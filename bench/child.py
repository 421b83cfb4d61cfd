"""One benchmark child: a single `spinbath.cli` invocation, timed from inside.

Usage:  python3 child.py MODE -- CLI_ARGV...

MODE is one of

  plain        run the command as `python -m spinbath.cli CLI_ARGV` would;
  setup        start, import and parse exactly as `plain`, then return
               before the command runs (a set-up-only sample);
  spans        like `plain`, with a span around every call that `cli`,
               `analysis`, `config` and `ensemble` make into another layer,
               plus exact work counters at the same boundaries;
  tracemalloc  like `plain`, with tracemalloc on, recording the largest
               allocation peak seen inside one engine call.

Nothing in the package is edited: the wrappers replace names in the calling
modules' namespaces after import.  The last line of stdout is one JSON record
with perf_counter() marks (CLOCK_MONOTONIC, so comparable with the parent's),
the process's own ru_maxrss, and, per mode, spans, counts or the traced peak.
The process exits with the code `cli.main` returned.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spinbath.cli as cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import spinbath.analysis  # noqa: E402
import spinbath.config  # noqa: E402
import spinbath.ensemble  # noqa: E402

MODES = ("plain", "setup", "spans", "tracemalloc")

# Engine calls: position of the time argument, and bytes of per-site factor
# matrices materialised per site and time point, from the engine's formulas:
# overlap_r builds one complex (N, T) matrix; expectation two real ones
# (gamma0 at +t and -t) and one complex one (gamma1).  Computed, not measured.
ENGINE_CALLS = {"engine.overlap_r": (1, 16), "engine.expectation": (2, 32), "engine.reduced_state": (1, 16)}


def _engine_count(name):
    time_arg, factor_bytes = ENGINE_CALLS[name]

    def count(counts, args, kwargs, result):
        site_points = args[0].n_sites * int(np.size(args[time_arg]))
        counts["engine.site_points"] += site_points
        counts["engine.factor_bytes"] += factor_bytes * site_points
        if name == "engine.overlap_r":
            counts["engine.flushed_points"] += int(np.count_nonzero(np.asarray(result) == 0))

    return count


def _count_sites(counts, args, kwargs, result):
    counts["ensemble.sites_drawn"] += int(args[0])


def _count_verdict(counts, args, kwargs, result):
    counts["analysis.verdicts"] += 1


def _count_written(counts, args, kwargs, result):
    counts["cli.bytes_written"] += args[0].stat().st_size


def _count_built(counts, args, kwargs, result):
    counts["oracle.dense_amplitudes"] += result.amplitudes.size


def _count_read(counts, args, kwargs, result):
    counts["oracle.dense_amplitudes"] += args[0].amplitudes.size


def _count_branches(counts, args, kwargs, result):
    # oracle_overlap builds the two 2^N bath branch states.
    counts["oracle.dense_amplitudes"] += 2 * 2 ** args[0].n_sites


# (module, attribute, span name, counter) for every call the four benchmark
# workloads make from one layer into another.
WRAP_POINTS = (
    (cli, "sample_model", "ensemble.sample_model", _count_sites),
    (cli, "sample_observable", "ensemble.sample_observable", None),
    (cli, "overlap_r", "engine.overlap_r", _engine_count("engine.overlap_r")),
    (cli, "expectation", "engine.expectation", _engine_count("engine.expectation")),
    (cli, "reduced_system_state", "engine.reduced_state", _engine_count("engine.reduced_state")),
    (cli, "build_initial", "oracle.build_initial", _count_built),
    (cli, "evolve", "oracle.evolve", _count_built),
    (cli, "oracle_expectation", "oracle.expectation", _count_read),
    (cli, "oracle_overlap", "oracle.overlap", _count_branches),
    (cli, "oracle_reduced_state", "oracle.reduced_state", _count_read),
    (cli, "parse_observable_spec", "config.parse", None),
    (cli, "n_scaling_sweep", "analysis.n_scaling_sweep", None),
    (cli, "_write_csv", "cli.write", _count_written),
    (cli, "_write_json", "cli.write", _count_written),
    (spinbath.analysis, "sample_model", "ensemble.sample_model", _count_sites),
    (spinbath.analysis, "overlap_r", "engine.overlap_r", _engine_count("engine.overlap_r")),
    (spinbath.analysis, "r_trajectory", "analysis.r_trajectory", None),
    (spinbath.analysis, "decoherence_time", "analysis.decoherence_time", _count_verdict),
    (spinbath.config, "sample_observable", "ensemble.sample_observable", None),
    (spinbath.ensemble, "make_model", "model.make_model", None),
    (spinbath.ensemble, "make_observable", "model.make_observable", None),
)


class Tracer:
    """In-memory spans [name, parent index, start, end] plus work counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def open(self, name: str, start: float) -> list:
        span = [name, self.stack[-1] if self.stack else -1, start, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = self.open(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


class EnginePeak:
    """Largest tracemalloc peak above the entry level inside one engine call."""

    def __init__(self):
        self.peak_bytes = 0

    def wrap(self, name, fn, count):
        if name not in ENGINE_CALLS:
            return fn

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - entry)

        return measured


def install(wrapper) -> list[str]:
    """Replace every wrap point present; return those the package lacks."""
    missing = []
    for module, attr, name, count in WRAP_POINTS:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
        else:
            setattr(module, attr, wrapper.wrap(name, fn, count))
    return missing


def main(mode: str, argv: list[str]) -> int:
    record = {"mode": mode, "t_start": T_START, "t_imported": T_IMPORTED}
    tracer = Tracer() if mode == "spans" else None
    peak = EnginePeak() if mode == "tracemalloc" else None
    if tracer or peak:
        record["missing"] = install(tracer or peak)

    real_run = cli.run

    def run(cfg):
        # cli.main calls run() once argument and config parsing are done.
        record["t_run"] = time.perf_counter()
        if tracer:
            tracer.close(tracer.open("config.parse", record["t_main"]))
        return 0 if mode == "setup" else real_run(cfg)

    cli.run = run
    if peak:
        tracemalloc.start()
    root = None
    record["t_main"] = time.perf_counter()
    if tracer:
        root = tracer.open("cli.main", record["t_main"])
    code = cli.main(argv)
    if tracer:
        tracer.close(root)
    record["t_end"] = time.perf_counter()
    if peak:
        tracemalloc.stop()
        record["engine_peak_bytes"] = peak.peak_bytes
    if tracer:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    record["exit"] = code
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(record))
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in MODES or sys.argv[2] != "--":
        print(f"usage: child.py {{{'|'.join(MODES)}}} -- CLI_ARGV...", file=sys.stderr)
        sys.exit(64)
    sys.exit(main(sys.argv[1], sys.argv[3:]))
