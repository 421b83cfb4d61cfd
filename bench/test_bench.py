"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They run every workload once (about a minute on two cores) and need ~1 GB.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import OBS_SEED_OFFSET, SWEEP_N, WORKLOADS

SEED = 3


@pytest.fixture(scope="module")
def traced():
    """One span-traced run of every workload: name -> (output dir, child record)."""
    base = run.RUN_DIR / f"selftest-{os.getpid()}"
    results = {}
    for name, workload in WORKLOADS.items():
        out = base / name
        out.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(run.CHILD), "spans", "--", *workload.argv(SEED), "--out", str(out)],
            env=run.child_env(), capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S, check=True,
        )
        results[name] = (out, json.loads(proc.stdout.splitlines()[-1]))
    yield results
    shutil.rmtree(base, ignore_errors=True)
    if not any(run.RUN_DIR.iterdir()):
        run.RUN_DIR.rmdir()


def _rewrite_rows(path: Path, dest: Path, change) -> None:
    """Copy a spinbath CSV, passing each data row's fields through `change`."""
    lines = path.read_text(encoding="ascii").splitlines()
    rows = [",".join(change(k, line.split(","))) for k, line in enumerate(lines[3:])]
    dest.write_text("\n".join(lines[:3] + rows) + "\n", encoding="ascii")


def _scaled(fields: list[str]) -> list[str]:
    """Every column after t multiplied by 1 + 1e-6."""
    return fields[:1] + [format(float(x) * (1.0 + 1e-6), ".17g") for x in fields[1:]]


def _perturbed(name: str, out: Path, dest: Path) -> None:
    dest.mkdir(exist_ok=True)
    output = WORKLOADS[name].output
    if name in ("overlap-deep", "trace-long"):
        _rewrite_rows(out / output, dest / output, lambda k, f: _scaled(f))
    elif name == "sweep-seeds":
        _rewrite_rows(out / output, dest / output, lambda k, f: f[:3] + ["0"] if k == 1 else f)
    else:
        doc = json.loads((out / output).read_text())
        doc["passed"] = False
        (dest / output).write_text(json.dumps(doc))


def test_same_seed_gives_same_argv():
    for workload in WORKLOADS.values():
        assert workload.argv(SEED) == workload.argv(SEED)
        assert workload.argv(SEED) != workload.argv(SEED + 1)
    assert f"random:{SEED + OBS_SEED_OFFSET}" in WORKLOADS["trace-long"].argv(SEED)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_check_accepts_output_and_rejects_perturbed(traced, name):
    out, record = traced[name]
    assert record["exit"] == 0
    output = WORKLOADS[name].output
    assert WORKLOADS[name].check(out / output, SEED) is None
    bad = out.parent / f"{name}-perturbed"
    _perturbed(name, out, bad)
    assert WORKLOADS[name].check(bad / output, SEED) is not None


def test_counts_are_exact(traced):
    counts = {name: record["counts"] for name, (_, record) in traced.items()}
    for name, (out, _) in traced.items():
        assert counts[name]["cli.bytes_written"] == (out / WORKLOADS[name].output).stat().st_size
    deep = counts["overlap-deep"]
    assert deep["ensemble.sites_drawn"] == 10_000
    assert deep["engine.site_points"] == 10_000 * 2000
    assert deep["engine.factor_bytes"] == 16 * 10_000 * 2000
    rows = (traced["overlap-deep"][0] / "simulate_r.csv").read_text().splitlines()
    zeros = sum(row.endswith(",0,0,0") for row in rows)
    assert deep["engine.flushed_points"] == zeros > 0
    long = counts["trace-long"]
    assert long["ensemble.sites_drawn"] == 48
    assert long["engine.site_points"] == 48 * 200_000
    assert long["engine.factor_bytes"] == 32 * 48 * 200_000
    sweep = counts["sweep-seeds"]
    assert sweep["ensemble.sites_drawn"] == 4 * sum(SWEEP_N)
    assert sweep["engine.site_points"] == 4 * sum(SWEEP_N) * 400
    assert sweep["analysis.verdicts"] == 4 * len(SWEEP_N)
    oracle = counts["oracle-dense"]
    assert oracle["ensemble.sites_drawn"] == 4 * 16
    assert oracle["engine.site_points"] == 4 * 10 * 3 * 16
    # Per trial: build once; per time point evolve, expectation and reduced
    # state touch 2^17 amplitudes and the overlap builds two 2^16 branches.
    assert oracle["oracle.dense_amplitudes"] == 4 * (2**17 + 10 * 4 * 2**17)


def test_layer_self_times_account_for_the_run(traced):
    for _, record in traced.values():
        selfs = run.self_times(record["spans"])
        assert set(selfs) <= set(run.LAYER_TIMES.values())
        _, _, start, end = record["spans"][0]
        assert sum(selfs.values()) == pytest.approx(end - start, rel=1e-9)


def test_all_prints_every_end_to_end_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "all", "--seconds", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name in WORKLOADS:
        assert f"{name}: failed_frac = 0 (0 of " in proc.stdout
        for metric, unit in run.END_TO_END.items():
            assert any(line.split()[:2] == [name, metric] and line.split()[-1] == unit for line in lines)


def test_refuses_to_run_without_the_program():
    bare = run.RUN_DIR / f"bare-{os.getpid()}"
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "overlap-deep", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
