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
"""

from __future__ import annotations

import dataclasses
import json
import math
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


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_matches_golden(name, golden, tmp_path):
    files = run_outputs(CONFIG_DIR / name, tmp_path / "out")
    pinned = golden[name]
    assert sorted(files) == sorted(pinned)
    problems = []
    for fname, ref in pinned.items():
        compare = compare_json if fname.endswith(".json") else compare_csv
        problems += [f"{fname}: {p}" for p in compare(files[fname], ref)]
    assert not problems, "\n".join(problems[:20])


def _write_golden(scratch: Path) -> None:
    golden = {name: run_outputs(CONFIG_DIR / name, scratch / Path(name).stem) for name in CONFIGS}
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="ascii")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_golden(Path(tmp))
    print(f"wrote {GOLDEN}", file=sys.stderr)
