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
    problems = []
    for key, ref in pinned.items():
        value = doc[key]
        if key in ORACLE_DIFFS:
            ok = value <= doc["tolerance"]
        elif isinstance(ref, float):
            ok = close(value, ref)
        else:
            ok = value == ref
        if not ok:
            problems.append(f"{key}: {value!r}, pinned {ref!r}")
    return problems


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


def all_outputs(scratch: Path) -> dict:
    return {name: run_outputs(CONFIG_DIR / name, scratch / Path(name).stem) for name in CONFIGS}


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:2] == ["--print"]:
        print(json.dumps(all_outputs(Path(sys.argv[2]))))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            golden = all_outputs(Path(tmp))
        GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="ascii")
        print(f"wrote {GOLDEN}", file=sys.stderr)
