"""Benchmark of the spinbath command line, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # table of every workload

Closed loop, one client: each run is one fresh `python -m spinbath.cli
<argv>`-equivalent child (bench/child.py), and the next starts only after the
previous one has exited and its output has been checked.  The seed picks the
workload's inputs (see workloads.py); the program sees only the argv.

--trace 0 reports the end-to-end metrics:
  run_s        median wall time of cli.main(argv) in the child;
  setup_s      median of interpreter start + `import spinbath` + argument and
               config parsing, over the timed runs and SETUP_REPS set-up-only
               children;
  peak_rss_mb  median ru_maxrss of the child.
--trace 1 reports the per-layer metrics from span-wrapped runs alternated
with plain ones (trace.overhead_s is their difference), and
engine.peak_traced_mb from one separate tracemalloc run.

Every run before, inside and after the timed window counts as attempted; it
fails if the child exits non-zero or its output fails the workload's check.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_DIR = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 120.0
SETUP_REPS = 7
# A run stops launching children after this many failures.
MAX_FAILURES = 3

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer self times: metric name -> span name recorded by child.py.
LAYER_TIMES = {
    "ensemble.sample_model_s": "ensemble.sample_model",
    "ensemble.sample_observable_s": "ensemble.sample_observable",
    "model.make_model_s": "model.make_model",
    "model.make_observable_s": "model.make_observable",
    "engine.overlap_r_s": "engine.overlap_r",
    "engine.expectation_s": "engine.expectation",
    "engine.reduced_state_s": "engine.reduced_state",
    "analysis.n_scaling_sweep_self_s": "analysis.n_scaling_sweep",
    "analysis.r_trajectory_self_s": "analysis.r_trajectory",
    "analysis.decoherence_time_s": "analysis.decoherence_time",
    "oracle.build_initial_s": "oracle.build_initial",
    "oracle.evolve_s": "oracle.evolve",
    "oracle.expectation_s": "oracle.expectation",
    "oracle.overlap_s": "oracle.overlap",
    "oracle.reduced_state_s": "oracle.reduced_state",
    "config.parse_s": "config.parse",
    "cli.write_s": "cli.write",
    "cli.self_s": "cli.main",
}
# Work counters, exact for a fixed seed.
LAYER_COUNTS = {
    "ensemble.sites_drawn": "count",
    "engine.site_points": "count",
    "engine.factor_bytes": "B_computed",
    "engine.flushed_points": "count",
    "oracle.dense_amplitudes": "count",
    "cli.bytes_written": "B",
    "analysis.verdicts": "count",
}
LAYER_DERIVED = {
    "ensemble.us_per_site": "us",
    "engine.ns_per_site_point": "ns",
    "engine.peak_traced_mb": "MiB",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER = {**{name: "s" for name in LAYER_TIMES}, **LAYER_COUNTS, **LAYER_DERIVED}


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def self_times(spans: list) -> dict[str, float]:
    """Sum per span name of duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, _, start, end), child_time in zip(spans, covered):
        out[name] += end - start - child_time
    return out


class Session:
    """Runs children of one workload and seed, checks outputs, keeps tallies."""

    def __init__(self, workload: Workload, seed: int, out: Path):
        self.workload = workload
        self.argv = workload.argv(seed) + ["--out", str(out)]
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict[str, str | None] = {}
        self.env = child_env()

    def launch(self, mode: str) -> dict | None:
        """One child; its record with t_spawn added, or None if it failed."""
        self.attempted += 1
        output = self.out / self.workload.output
        output.unlink(missing_ok=True)
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, "--", *self.argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self._fail(f"{mode} run exceeded {CHILD_TIMEOUT_S:g} s")
        if proc.returncode != 0:
            return self._fail(f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        lines = proc.stdout.splitlines()
        if not lines:
            return self._fail(f"{mode} run printed no record")
        record = json.loads(lines[-1])
        record["t_spawn"] = t_spawn
        if mode != "setup":
            problem = self._check(output)
            if problem:
                return self._fail(f"{mode} run output: {problem}")
        return record

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def _check(self, output: Path) -> str | None:
        # Byte-identical output has the same verdict; replays are deterministic.
        try:
            digest = hashlib.sha256(output.read_bytes()).hexdigest()
        except OSError as exc:
            return f"cannot read {output.name}: {exc}"
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = self.workload.check(output, self.seed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.verdicts[digest] = f"unreadable output: {exc}"
        return self.verdicts[digest]

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"FAIL {self.workload.name}: {problem}", file=sys.stderr)
        return None

    def loop(self, modes: tuple[str, ...], seconds: float) -> dict[str, list[dict]]:
        """Cycle through modes until `seconds` have passed and each ran once."""
        records: dict[str, list[dict]] = {mode: [] for mode in modes}
        deadline = time.perf_counter() + seconds
        while self.failed < MAX_FAILURES and (time.perf_counter() < deadline or not all(records.values())):
            for mode in modes:
                record = self.launch(mode)
                if record is not None:
                    records[mode].append(record)
        return records


def setup_s(record: dict) -> float:
    return record["t_imported"] - record["t_spawn"] + record["t_run"] - record["t_main"]


def run_s(record: dict) -> float:
    return record["t_end"] - record["t_main"]


def end_to_end(session: Session, seconds: float) -> dict[str, float]:
    session.launch("plain")  # warm-up: page cache, bytecode, first-call costs
    timed = session.loop(("plain",), seconds)["plain"]
    setups = [r for r in (session.launch("setup") for _ in range(SETUP_REPS)) if r is not None]
    if not timed:
        raise RuntimeError("no run succeeded")
    print(f"{len(timed)} timed runs, {len(timed) + len(setups)} set-up samples")
    return {
        "run_s": statistics.median(run_s(r) for r in timed),
        "setup_s": statistics.median(setup_s(r) for r in timed + setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in timed),
    }


def per_layer(session: Session, seconds: float) -> dict[str, float]:
    session.launch("plain")  # warm-up
    records = session.loop(("plain", "spans"), seconds)
    peak = session.launch("tracemalloc")
    if not records["plain"] or not records["spans"] or peak is None:
        raise RuntimeError("no traced run succeeded")
    print(f"{len(records['spans'])} traced runs, {len(records['plain'])} plain runs")
    samples: dict[str, list[float]] = defaultdict(list)
    counts = None
    for record in records["spans"]:
        selfs = self_times(record["spans"])
        _, _, start, end = record["spans"][0]  # cli.main, the root
        total = sum(selfs.get(span, 0.0) for span in LAYER_TIMES.values())
        if set(selfs) - set(LAYER_TIMES.values()) or abs(total - (end - start)) > 1e-9 * (end - start):
            session.problems.append(f"layer self times {total!r} do not account for run_s {end - start!r}")
        for metric, span in LAYER_TIMES.items():
            samples[metric].append(selfs.get(span, 0.0))
        samples["trace.run_s"].append(end - start)
        run_counts = {name: record["counts"].get(name, 0) for name in LAYER_COUNTS}
        if counts is not None and run_counts != counts:
            session.problems.append(f"counts differ between identical runs: {counts} vs {run_counts}")
        counts = run_counts
        if record["missing"]:
            print(f"note: package lacks wrap points {record['missing']}", file=sys.stderr)
    metrics = {metric: statistics.median(values) for metric, values in samples.items()}
    metrics.update(counts)
    sites = counts["ensemble.sites_drawn"]
    points = counts["engine.site_points"]
    engine_s = sum(metrics[m] for m in ("engine.overlap_r_s", "engine.expectation_s", "engine.reduced_state_s"))
    metrics["ensemble.us_per_site"] = 1e6 * metrics["ensemble.sample_model_s"] / sites if sites else 0.0
    metrics["engine.ns_per_site_point"] = 1e9 * engine_s / points if points else 0.0
    metrics["engine.peak_traced_mb"] = peak["engine_peak_bytes"] / 2**20
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(run_s(r) for r in records["plain"])
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Session, dict[str, float]]:
    out = RUN_DIR / f"{name}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    session = Session(WORKLOADS[name], seed, out)
    try:
        return session, (per_layer if trace else end_to_end)(session, seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if RUN_DIR.is_dir() and not any(RUN_DIR.iterdir()):
            RUN_DIR.rmdir()


def result_line(session: Session, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": session.correct,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinbath" / "cli.py").is_file():
        print(f"error: no spinbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            session, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        all_correct &= session.correct
        for problem in session.problems:
            print(f"problem {name}: {problem}")
        print(f"{name}: failed_frac = {session.failed / session.attempted:g} ({session.failed} of {session.attempted} runs)")
        for metric, unit in units.items():
            print(f"{name}  {metric:34s} {metrics[metric]:>16.6g} {unit}")
        if args.workload != "all":
            print(result_line(session, metrics, units))
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
