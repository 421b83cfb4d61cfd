"""Shipped configs against pinned golden outputs.

``golden_outputs.json`` holds, for every ``configs/*.json``, the files its run
writes: CSV files as their list of lines, JSON files as their parsed document.
A numerical change to the package must be a decision, so it shows up here.

Comment lines, CSV headers, versions and config digests must match exactly.
Numbers must match within ``REL_TOL`` relative or ``ABS_TOL`` absolute,
which leaves room for last-digit rounding changes in the product kernel and
nothing more.  ``oracle_check`` differences are pinned as ``<= tolerance``,
not as raw values, because they are rounding noise by design.

To re-pin after an intended numerical change (declare it in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py

It replaces only the pinned values the comparison rejects, so a change that
moves one number, or only the config digests, re-pins only those.

The engine's matrix products go through BLAS, so the bytes depend on the
BLAS kernels as well as on numpy's SIMD level; the pins hold on any of them.
``--print DIR`` runs every config into DIR and prints the outputs as JSON,
which the tests run under another OpenBLAS core type or numpy SIMD level read.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from spinbath.cli import EXIT_OK, run
from spinbath.config import config_from_file

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

REL_TOL = 1e-10
ABS_TOL = 1e-14
ORACLE_DIFFS = ("max_diff_expectation", "max_diff_overlap", "max_diff_reduced_state")

CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


def run_outputs(cfg_path: Path, out: Path) -> dict:
    """Run one config into ``out`` and return its files in golden form."""
    out.mkdir(parents=True)
    code = run(dataclasses.replace(config_from_file(cfg_path), out=str(out)))
    assert code == EXIT_OK, f"{cfg_path.name} exited {code}"
    files = {}
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="ascii")
        files[path.name] = json.loads(text) if path.suffix == ".json" else text.splitlines()
    return files


def close(value: float, pinned: float) -> bool:
    if math.isinf(pinned):
        return value == pinned
    return math.isclose(value, pinned, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_csv(lines: list[str], pinned: list[str]) -> list[str]:
    problems = []
    if len(lines) != len(pinned):
        return [f"{len(lines)} lines, pinned {len(pinned)}"]
    if lines[:3] != pinned[:3]:
        problems.append(f"header {lines[:3]!r}, pinned {pinned[:3]!r}")
    for k, (row, ref) in enumerate(zip(lines[3:], pinned[3:]), start=4):
        values, refs = row.split(","), ref.split(",")
        if len(values) != len(refs):
            problems.append(f"line {k}: {len(values)} fields, pinned {len(refs)}")
        elif not all(close(float(v), float(r)) for v, r in zip(values, refs)):
            problems.append(f"line {k}: {row!r}, pinned {ref!r}")
    return problems


def compare_json(doc: dict, pinned: dict) -> list[str]:
    if sorted(doc) != sorted(pinned):
        return [f"keys {sorted(doc)}, pinned {sorted(pinned)}"]
    return [f"{key}: {doc[key]!r}, pinned {ref!r}" for key, ref in pinned.items() if not holds(doc, key, ref)]


def holds(doc: dict, key: str, ref) -> bool:
    """Whether the pin ``ref`` accepts ``doc[key]``."""
    if key in ORACLE_DIFFS:
        return doc[key] <= doc["tolerance"]
    if isinstance(ref, float):
        return close(doc[key], ref)
    return doc[key] == ref


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_every_shipped_config_is_pinned(golden):
    assert sorted(golden) == CONFIGS


def compare_files(files: dict, pinned: dict) -> list[str]:
    if sorted(files) != sorted(pinned):
        return [f"files {sorted(files)}, pinned {sorted(pinned)}"]
    problems = []
    for fname, ref in pinned.items():
        compare = compare_json if fname.endswith(".json") else compare_csv
        problems += [f"{fname}: {p}" for p in compare(files[fname], ref)]
    return problems


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_matches_golden(name, golden, tmp_path):
    problems = compare_files(run_outputs(CONFIG_DIR / name, tmp_path / "out"), golden[name])
    assert not problems, "\n".join(problems[:20])


# OpenBLAS's Sandybridge kernels multiply and add apart where newer cores fuse
# the two, so every product the engine builds rounds differently; a BLAS other
# than OpenBLAS ignores the variable and runs its own kernels.  numpy without
# its AVX2 and AVX-512 loops (x86-64 only) rounds its complex products apart.
WITHOUT_FMA = {
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-pre-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


@pytest.mark.parametrize("setting", sorted(WITHOUT_FMA))
def test_shipped_configs_match_golden_without_fused_multiply_add(setting, golden, tmp_path):
    if setting == "numpy-pre-avx2" and platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("numpy's X86_V3 and AVX-512 features exist only on x86-64")
    env = dict(os.environ, **WITHOUT_FMA[setting])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--print", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    outputs = json.loads(proc.stdout)
    assert sorted(outputs) == CONFIGS
    problems = [f"{name}: {p}" for name in CONFIGS for p in compare_files(outputs[name], golden[name])]
    assert not problems, "\n".join(problems[:20])


def pinned_digest(files: dict) -> str:
    """The one config digest a config's pinned files carry."""
    digests = {
        ref["config_digest"] if fname.endswith(".json") else ref[1].removeprefix("# config ")
        for fname, ref in files.items()
    }
    assert len(digests) == 1, digests
    return digests.pop()


# config.py takes SHA-256 from CPython's built-in module, _sha256 on 3.10 and
# 3.11 and _sha2 from 3.12, and falls back to hashlib.  A module set to None
# in sys.modules fails to import, so each branch runs on any interpreter.
@pytest.mark.parametrize("blocked", [("_sha256",), ("_sha256", "_sha2")])
def test_every_digest_branch_gives_the_pinned_digests(blocked, golden):
    paths = [str(CONFIG_DIR / name) for name in CONFIGS]
    code = (
        "import json, sys\n"
        f"for name in {blocked!r}:\n"
        "    sys.modules[name] = None\n"
        "from spinbath.config import config_from_file\n"
        f"digests = [config_from_file(path).digest for path in {paths!r}]\n"
        "print(json.dumps([digests, 'hashlib' in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    digests, used_hashlib = json.loads(proc.stdout)
    assert digests == [pinned_digest(golden[name]) for name in CONFIGS]
    assert used_hashlib == (len(blocked) == 2 or sys.version_info < (3, 12))


def repin(outputs: dict, pinned: dict) -> dict:
    """``outputs`` in golden form, keeping every pin that still accepts its new value.

    A number is replaced only where ``close`` (for oracle differences, the
    tolerance) rejects it, and any other field only where it differs, so a
    change that moves only the config digests re-pins only the digests.
    """
    golden = {}
    for name, files in outputs.items():
        golden[name] = {}
        for fname, new in files.items():
            ref = pinned.get(name, {}).get(fname)
            if isinstance(new, dict) and isinstance(ref, dict):
                new = {key: ref[key] if key in ref and holds(new, key, ref[key]) else new[key] for key in new}
            elif isinstance(new, list) and isinstance(ref, list) and len(new) == len(ref):
                new = new[:3] + [_repin_row(row, old) for row, old in zip(new[3:], ref[3:])]
            golden[name][fname] = new
    return golden


def _repin_row(row: str, pinned: str) -> str:
    values, refs = row.split(","), pinned.split(",")
    if len(values) != len(refs):
        return row
    return ",".join(r if close(float(v), float(r)) else v for v, r in zip(values, refs))


def test_repin_replaces_only_what_the_pins_reject():
    head = ["# spinbath 0.1.0", "# config old", "t,value"]
    doc = {"config_digest": "old", "ratio": 0.5, "n": 3, "max_diff_overlap": 1e-15, "tolerance": 1e-10}
    pinned = {"a.json": {"r.json": doc, "s.csv": [*head, "0,0.25", "1,0.125", "2,3"]}}
    new_head = ["# spinbath 0.1.0", "# config new", "t,value"]
    new_doc = {**doc, "config_digest": "new", "ratio": 0.5 * (1 + 1e-12), "max_diff_overlap": 2e-15}
    outputs = {
        "a.json": {"r.json": new_doc, "s.csv": [*new_head, "0,0.25000000000000006", "1,0.126", "2,3,4"]},
        "b.json": {"q.json": {"x": 1.0}},
    }
    # Only the digest, the number close() rejects and the row of another
    # width are replaced; the ratio and the oracle difference keep their pins.
    assert repin(outputs, pinned) == {
        "a.json": {
            "r.json": {**doc, "config_digest": "new"},
            "s.csv": [*new_head, "0,0.25", "1,0.126", "2,3,4"],
        },
        "b.json": {"q.json": {"x": 1.0}},
    }
    # A file whose row count changed is taken whole.
    outputs["a.json"]["s.csv"] = outputs["a.json"]["s.csv"][:4]
    assert repin(outputs, pinned)["a.json"]["s.csv"] == outputs["a.json"]["s.csv"]


def all_outputs(scratch: Path) -> dict:
    return {name: run_outputs(CONFIG_DIR / name, scratch / Path(name).stem) for name in CONFIGS}


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] == ["--print"]:
        print(json.dumps(all_outputs(Path(sys.argv[2]))))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            golden = repin(all_outputs(Path(tmp)), json.loads(GOLDEN.read_text(encoding="ascii")))
        GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="ascii")
        print(f"wrote {GOLDEN}", file=sys.stderr)
