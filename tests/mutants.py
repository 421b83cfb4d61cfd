"""Mutation check: each mutant breaks the package a little, and a test must notice.

    python tests/mutants.py [--only NAME [NAME ...]]

A mutant replaces one text in one source file by another.  The text must
occur exactly once in that file, which ``tests/test_project.py`` checks, so
a refactor that moves it has to update the mutant here instead of silently
disarming it.  For each mutant the script copies the repository, without
``.git`` and caches, to a temporary directory, applies the mutant there and
runs the tier-1 command with ``-x`` (``COMMAND``), all of it but that text
check (``TEXT_CHECK``).  It prints KILLED with the first failing test (or
"timed out" after ``TIMEOUT`` seconds), or SURVIVED, and the time taken;
the exit status is 1 if any mutant survived.  Before the mutants it runs an
unmutated copy, the control, text check included: if that fails, no kill
means anything, and the script stops with exit status 2.
A surviving mutant is either a gap in the tests or an equivalent change,
which is then listed here with the reason.
The full run takes several minutes.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_run", ".bench_build", ".benchmarks")
COMMAND = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x")
# This test finds each mutant's text in src/, which a mutant has changed; the
# control run keeps it, and the mutant runs deselect it.
TEXT_CHECK = "tests/test_project.py::test_every_mutant_text_occurs_once_in_src"
# Seconds one run of tier-1 may take; a mutant that hangs the tests (an
# endless loop, say) counts as killed, as mutation tools usually do.
TIMEOUT = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


ENGINE = "src/spinbath/engine.py"
ANALYSIS = "src/spinbath/analysis.py"
ORACLE = "src/spinbath/oracle.py"
CONFIG = "src/spinbath/config.py"
CLI = "src/spinbath/cli.py"
MODEL = "src/spinbath/model.py"

MUTANTS = (
    Mutant(
        "expectation-scaled",
        ENGINE,
        "    return float(out[0]) if scalar else out",
        "    out *= 1 + 1e-9\n    return float(out[0]) if scalar else out",
    ),
    Mutant(
        "overlap-scaled",
        ENGINE,
        "    return complex(out[0]) if scalar else out",
        "    out = out * (1 + 1e-9)\n    return complex(out[0]) if scalar else out",
    ),
    Mutant("drop-at-1070", ENGINE, "_DROP = -1077", "_DROP = -1070"),
    Mutant("floor-at-zero", ENGINE, "_FLOOR = 2.0**-960", "_FLOOR = 0.0"),
    Mutant(
        "fine-offsets-scaled",
        ENGINE,
        "offsets = np.arange(run) * step",
        "offsets = np.arange(run) * step * (1 + 1e-12)",
    ),
    Mutant(
        "no-norm-division",
        ENGINE,
        "r = complex(r[0]) / float(norm[0])",
        "r = complex(r[0])",
    ),
    Mutant(
        "live-window-ge",
        ENGINE,
        "np.any([e[lo:hi] > _DROP",
        "np.any([e[lo:hi] >= _DROP",
    ),
    Mutant(
        "even-step-slack-200-ulp",
        ENGINE,
        "slack = 2.0 * np.spacing(",
        "slack = 200.0 * np.spacing(",
    ),
    Mutant(
        "first-site-block-dropped",
        ENGINE,
        "for site in range(0, couplings.size, rows):",
        "for site in range(rows, couplings.size, rows):",
    ),
    Mutant(
        "coarse-angles-of-abs-t",
        ENGINE,
        "alpha = np.multiply(g, origins, out=angles[1])",
        "alpha = np.multiply(g, np.abs(origins), out=angles[1])",
    ),
    Mutant(
        "gamma1-coefficient-conjugated",
        ENGINE,
        "(cross_re, static, 1j * up_minus_down)",
        "(cross_re, static, -1j * up_minus_down)",
    ),
    Mutant("quadrature-coarser-rule", ANALYSIS, "coarse, fine = means", "fine, coarse = means"),
    Mutant("quadrature-tolerance-1", ANALYSIS, "_RULE_RTOL = 1e-9", "_RULE_RTOL = 1.0"),
    Mutant(
        "quadrature-half-width-doubled",
        ANALYSIS,
        "half = 0.5 * (t1 - t0) / count",
        "half = (t1 - t0) / count",
    ),
    # Negating x_j at both ends of the node grid is an equivalent mutant: the
    # Gauss nodes and weights are symmetric about 0.
    Mutant(
        "quadrature-node-grid-end",
        ANALYSIS,
        "t1 - half * (1 - xj)",
        "t1 - half * (1 + xj)",
    ),
    Mutant(
        "oracle-phase-sign",
        ORACLE,
        "phase = np.multiply(field, 0.5 * t",
        "phase = np.multiply(field, -0.5 * t",
    ),
    Mutant(
        "oracle-overlap-sign",
        ORACLE,
        "turn = np.exp(0.5j * t * model.couplings)",
        "turn = np.exp(-0.5j * t * model.couplings)",
    ),
    Mutant(
        "hold-window-slack-one-step",
        ANALYSIS,
        "slack = 1e-6 * float(steps.min())",
        "slack = 1.0 * float(steps.min())",
    ),
    Mutant("digest-separators", CONFIG, 'separators=(",", ":")', 'separators=(", ", ":")'),
    Mutant(
        "random-spec-seed-plus-one",
        CONFIG,
        "sample_observable(n_sites, obs_seed)",
        "sample_observable(n_sites, obs_seed + 1)",
    ),
    Mutant("csv-tie-margin-zero", CLI, "(np.abs(frac - 0.5) < 1e-6)", "(np.abs(frac - 0.5) < 0)"),
    Mutant(
        "csv-non-finite-off-percent",
        CLI,
        "~finite | (np.abs(frac - 0.5) < 1e-6)",
        "(np.abs(frac - 0.5) < 1e-6)",
    ),
    Mutant(
        "simulate-r-small-overlaps-zeroed",
        CLI,
        "    r = overlap_r(model, times)\n",
        "    r = overlap_r(model, times)\n    r[np.abs(r) < 1e-14] = 0\n",
    ),
    Mutant(
        "sweep-decohered-any",
        ANALYSIS,
        "decohered=all(v.decohered for v in verdicts)",
        "decohered=any(v.decohered for v in verdicts)",
    ),
    Mutant(
        "oracle-grid-short",
        CLI,
        "np.linspace(0.0, 50.0 / model.mean_coupling, 10)",
        "np.linspace(0.0, 5.0 / model.mean_coupling, 10)",
    ),
    Mutant(
        "dense-norm-tol-1e-2",
        ORACLE,
        "abs(np.vdot(amps, amps).real - 1.0) <= 1e-10",
        "abs(np.vdot(amps, amps).real - 1.0) <= 1e-2",
    ),
    Mutant("oracle-residue-tol-1e-2", ORACLE, "if abs(value.imag) > 1e-10:", "if abs(value.imag) > 1e-2:"),
    Mutant(
        "reduced-trace-tol-1e-6",
        ENGINE,
        "if abs(np.trace(mat) - 1.0) > 1e-12:",
        "if abs(np.trace(mat) - 1.0) > 1e-6:",
    ),
    Mutant("hermiticity-tol-1e-6", MODEL, "HERMITICITY_TOL = 1e-12", "HERMITICITY_TOL = 1e-6"),
    Mutant("commensurate-rtol-1e-3", ANALYSIS, "COMMENSURATE_RTOL = 1e-9", "COMMENSURATE_RTOL = 1e-3"),
    Mutant(
        "verdict-tail-right",
        ANALYSIS,
        'tail = np.searchsorted(times, times[-1] - window - slack, side="left")',
        'tail = np.searchsorted(times, times[-1] - window + slack, side="right")',
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's text in its file under ``root``; it must occur exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def first_failure(output: str) -> str:
    """The first test pytest's short summary names as failed, or the output's last line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    lines = output.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def run(mutant: Mutant | None) -> bool:
    """Run tier-1 in a copy of the repository, mutated unless ``mutant`` is None; True if a test failed."""
    with tempfile.TemporaryDirectory(prefix="spinbath-mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(*IGNORED))
        command = COMMAND
        if mutant is not None:
            apply(mutant, root)
            command += ("--deselect", TEXT_CHECK)
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        started = time.monotonic()
        try:
            proc = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
            failed, detail = proc.returncode != 0, first_failure(proc.stdout)
        except subprocess.TimeoutExpired:
            failed, detail = True, f"timed out after {TIMEOUT} s"
        elapsed = time.monotonic() - started
    if mutant is None:
        label, name = ("FAILED" if failed else "PASSED"), "(control)"
    else:
        label, name = ("KILLED" if failed else "SURVIVED"), mutant.name
    print(f"{label:8}  {name:30}  {elapsed:6.1f} s  {detail}", flush=True)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=[m.name for m in MUTANTS], help="run these mutants")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only is None or m.name in args.only]
    if run(None):
        print("the unmutated copy fails tier-1, so no mutant can be judged")
        return 2
    killed = sum(run(m) for m in mutants)
    print(f"{killed} of {len(mutants)} mutants killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
