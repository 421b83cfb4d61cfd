"""Command-line experiment runner with reproducible, digest-stamped outputs.

Precedence for every knob: command-line flag, then config-file field, then
the ExperimentConfig default.  Outputs land in --out, else $SPINBATH_OUT_DIR,
else the working directory.  Data files carry no timestamps and use a fixed
float rendering (17 significant digits, lowercase exponent), so replaying a
config produces byte-identical files.

Exit codes: 0 success, 1 invalid config or usage, 2 resource cap exceeded,
3 I/O failure, 4 oracle check above tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import fluctuation_stats, n_scaling_sweep, recurrence_check, timescale_report
from .config import (
    ExperimentConfig,
    config_from_dict,
    config_from_file,
    parse_observable_spec,
)
from .engine import expectation, overlap_r, reduced_system_state
from .ensemble import commensurate_model, sample_model, sample_observable
from .model import SpinBathModel
from .oracle import (
    SiteCapError,
    build_initial,
    evolve,
    oracle_expectation,
    oracle_overlap,
    oracle_reduced_state,
)

OUT_DIR_ENV = "SPINBATH_OUT_DIR"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE_CAP = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4

# Seed offset separating observable draws from model draws in oracle checks.
_OBS_SEED_OFFSET = 10**6


def _write_csv(path: Path, digest: str, columns: tuple[str, ...], data) -> None:
    """Write one 1-D array per column under the digest-stamped header.

    Bool and integer columns print as integers (True as 1), float columns as
    %.17g; every row is formatted by one % call over the interleaved values.
    """
    data = [np.asarray(col) for col in data]
    rows = len(data[0])
    row = ",".join("%d" if col.dtype.kind in "biu" else "%.17g" for col in data) + "\n"
    values = [None] * (rows * len(data))
    for j, col in enumerate(data):
        values[j :: len(data)] = col.tolist()
    body = (row * rows) % tuple(values)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="ascii", newline="") as fh:
        fh.write(f"# spinbath {__version__}\n# config {digest}\n{','.join(columns)}\n")
        fh.write(body)


def _write_json(path: Path, digest: str, payload: dict) -> None:
    doc = {"version": __version__, "config_digest": digest}
    doc.update(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="ascii",
        newline="",
    )


def _out_dir(cfg: ExperimentConfig) -> Path:
    if cfg.out is not None:
        return Path(cfg.out)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path.cwd()


def _model(cfg: ExperimentConfig, n_sites: int | None = None, seed: int | None = None) -> SpinBathModel:
    return sample_model(
        n_sites if n_sites is not None else cfg.n,
        seed if seed is not None else cfg.seed,
        coeff_dist=cfg.coeff_dist,
        g_dist=cfg.g_dist,
        a=cfg.a,
        b=cfg.b,
    )


def _time_grid(cfg: ExperimentConfig, model: SpinBathModel) -> np.ndarray:
    t_max = cfg.t_max if cfg.t_max is not None else 100.0 / model.mean_coupling
    return np.linspace(0.0, t_max, cfg.points)


def _cmd_simulate_r(cfg: ExperimentConfig, out: Path) -> int:
    model = _model(cfg)
    times = _time_grid(cfg, model)
    r = overlap_r(model, times)
    _write_csv(
        out / "simulate_r.csv",
        cfg.digest,
        ("t", "re_r", "im_r", "abs_r"),
        (times, r.real, r.imag, np.abs(r)),
    )
    return EXIT_OK


def _cmd_simulate_obs(cfg: ExperimentConfig, out: Path) -> int:
    model = _model(cfg)
    obs, _ = parse_observable_spec(cfg.obs, model.n_sites, cfg.eps)
    times = _time_grid(cfg, model)
    values = expectation(model, obs, times)
    _write_csv(
        out / "simulate_obs.csv",
        cfg.digest,
        ("t", "value"),
        (times, values),
    )
    return EXIT_OK


def _cmd_sweep_n(cfg: ExperimentConfig, out: Path) -> int:
    n_list = list(cfg.n_list) if cfg.n_list is not None else [cfg.n]
    rows = n_scaling_sweep(
        n_list,
        cfg.seed,
        threshold=cfg.theta,
        window=cfg.window,
        n_seeds=cfg.n_seeds,
        points=cfg.points,
        t_max=cfg.t_max,
    )
    _write_csv(
        out / "sweep_n.csv",
        cfg.digest,
        ("n", "t_d", "sup_late", "decohered"),
        (
            [row.n_sites for row in rows],
            [row.t_d for row in rows],
            [row.sup_late for row in rows],
            [row.decohered for row in rows],
        ),
    )
    return EXIT_OK


def _dense_point(state0, model, obs, t: float, site_cap: int):
    """Dense expectation, overlap and reduced state at time t.

    The evolved vector dies with the call, so the next evolve does not run
    while it is still held.
    """
    state = evolve(state0, model, t)
    return (
        oracle_expectation(state, obs),
        oracle_overlap(model, t, site_cap=site_cap),
        oracle_reduced_state(state),
    )


def _cmd_oracle_check(cfg: ExperimentConfig, out: Path) -> int:
    max_expectation = 0.0
    max_overlap = 0.0
    max_reduced = 0.0
    for trial in range(cfg.trials):
        model = _model(cfg, seed=cfg.seed + trial)
        obs = sample_observable(cfg.n, cfg.seed + trial + _OBS_SEED_OFFSET)
        state0 = build_initial(model, site_cap=cfg.site_cap)
        # The engine runs once over the whole (evenly spaced) grid, as real
        # runs call it; the oracle runs point by point.
        times = np.linspace(0.0, 50.0 / model.mean_coupling, 10)
        values = expectation(model, obs, times).tolist()
        overlaps = overlap_r(model, times).tolist()
        for t, value, overlap in zip(times.tolist(), values, overlaps):
            dense_value, dense_overlap, dense_reduced = _dense_point(
                state0, model, obs, t, cfg.site_cap
            )
            max_expectation = max(max_expectation, abs(value - dense_value))
            max_overlap = max(max_overlap, abs(overlap - dense_overlap))
            diff = np.abs(dense_reduced - reduced_system_state(model, t).matrix).max()
            max_reduced = max(max_reduced, float(diff))
    passed = max(max_expectation, max_overlap, max_reduced) <= cfg.tol
    _write_json(
        out / "oracle_check.json",
        cfg.digest,
        {
            "n": cfg.n,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "tolerance": cfg.tol,
            "max_diff_expectation": max_expectation,
            "max_diff_overlap": max_overlap,
            "max_diff_reduced_state": max_reduced,
            "passed": passed,
        },
    )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_recurrence(cfg: ExperimentConfig, out: Path) -> int:
    model = commensurate_model(cfg.n, cfg.g_base, cfg.seed, a=cfg.a, b=cfg.b)
    t_rec = 2.0 * np.pi / cfg.g_base
    abs_r = recurrence_check(model, t_rec)
    _write_json(
        out / "recurrence.json",
        cfg.digest,
        {
            "n": cfg.n,
            "seed": cfg.seed,
            "g_base": cfg.g_base,
            "t_rec": t_rec,
            "abs_r": abs_r,
            "deviation": abs(abs_r - 1.0),
        },
    )
    return EXIT_OK


def _cmd_timescale(cfg: ExperimentConfig, out: Path) -> int:
    report = timescale_report(cfg.v1_ev, cfg.v2_ev)
    _write_json(
        out / "timescale.json",
        cfg.digest,
        {
            "v1_ev": report.v1_ev,
            "v2_ev": report.v2_ev,
            "t_ds_s": report.t_ds_s,
            "t_du_s": report.t_du_s,
            "hierarchy_ok": report.hierarchy_ok,
        },
    )
    return EXIT_OK


def _cmd_fluctuation(cfg: ExperimentConfig, out: Path) -> int:
    model = _model(cfg)
    gbar = model.mean_coupling
    t0 = cfg.t0 if cfg.t0 is not None else 50.0 / gbar
    t1 = cfg.t1 if cfg.t1 is not None else 550.0 / gbar
    mean_r2, predicted_r2 = fluctuation_stats(model, (t0, t1), cfg.samples, seed=cfg.seed)
    _write_json(
        out / "fluctuation.json",
        cfg.digest,
        {
            "n": cfg.n,
            "seed": cfg.seed,
            "t0": t0,
            "t1": t1,
            "samples": cfg.samples,
            "mean_r2": mean_r2,
            "predicted_r2": predicted_r2,
            "ratio": mean_r2 / predicted_r2,
        },
    )
    return EXIT_OK


_HANDLERS = {
    "simulate-r": _cmd_simulate_r,
    "simulate-obs": _cmd_simulate_obs,
    "sweep-n": _cmd_sweep_n,
    "oracle-check": _cmd_oracle_check,
    "recurrence": _cmd_recurrence,
    "timescale": _cmd_timescale,
    "fluctuation": _cmd_fluctuation,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one configured experiment; returns the process exit code."""
    out = _out_dir(cfg)
    try:
        return _HANDLERS[cfg.command](cfg, out)
    except SiteCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the invalid-config exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="number of environment sites")
    sub.add_argument("--coeff-dist", default=None, help="site coefficient distribution name")
    sub.add_argument("--g-dist", default=None, help="coupling distribution name")
    sub.add_argument("--a-re", type=float, default=None, help="central up amplitude, real part")
    sub.add_argument("--a-im", type=float, default=None, help="central up amplitude, imaginary part")
    sub.add_argument("--b-re", type=float, default=None, help="central down amplitude, real part")
    sub.add_argument("--b-im", type=float, default=None, help="central down amplitude, imaginary part")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t-max", type=float, default=None, help="grid end time (default 100 / gbar)")
    sub.add_argument("--points", type=int, default=None, help="number of grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinbath", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spinbath {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file; flags override its fields")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="base random seed")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("simulate-r", parents=[common], help="bath-branch overlap trajectory to CSV")
    _add_model_flags(sub)
    _add_grid_flags(sub)

    sub = subs.add_parser("simulate-obs", parents=[common], help="observable expectation trajectory to CSV")
    _add_model_flags(sub)
    _add_grid_flags(sub)
    sub.add_argument("--obs", default=None, help="observable spec: eid:... | single-site:... | random:...")
    sub.add_argument("--eps", default=None, help="site part for single-site specs (name or 4 numbers)")

    sub = subs.add_parser("sweep-n", parents=[common], help="decoherence verdicts across site counts")
    _add_model_flags(sub)
    _add_grid_flags(sub)
    sub.add_argument("--n-list", type=_int_list, default=None, help="comma-separated site counts")
    sub.add_argument("--seeds", dest="n_seeds", type=int, default=None, help="seeds per site count")
    sub.add_argument("--theta", type=float, default=None, help="decoherence threshold")
    sub.add_argument("--window", type=float, default=None, help="hold window (default 20 / gbar)")

    sub = subs.add_parser("oracle-check", parents=[common], help="analytic vs dense-state equivalence report")
    _add_model_flags(sub)
    sub.add_argument("--trials", type=int, default=None, help="number of (model, observable) pairs")
    sub.add_argument("--tol", type=float, default=None, help="largest allowed |difference|")
    sub.add_argument("--site-cap", type=int, default=None, help="dense-state memory guard override")

    sub = subs.add_parser("recurrence", parents=[common], help="revival at the common period of commensurate couplings")
    _add_model_flags(sub)
    sub.add_argument("--g-base", type=float, default=None, help="base coupling; site j couples at j * g_base")

    sub = subs.add_parser("timescale", parents=[common], help="hbar / V decoherence-time estimates")
    sub.add_argument("--v1", dest="v1_ev", type=float, default=None, help="first interaction strength (eV)")
    sub.add_argument("--v2", dest="v2_ev", type=float, default=None, help="second interaction strength (eV)")

    sub = subs.add_parser("fluctuation", parents=[common], help="late-time |r|^2 average vs prediction")
    _add_model_flags(sub)
    sub.add_argument("--samples", type=int, default=None, help="random time samples in the window")
    sub.add_argument("--t0", type=float, default=None, help="window start (default 50 / gbar)")
    sub.add_argument("--t1", type=float, default=None, help="window end (default 550 / gbar)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    options = vars(args)
    config_path = options.pop("config", None)
    data: dict = {}
    if config_path is not None:
        try:
            cfg = config_from_file(config_path)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        data = cfg.to_dict()
    data.update({k: v for k, v in options.items() if v is not None})
    try:
        cfg = config_from_dict(data)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
