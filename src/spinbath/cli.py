"""Command-line experiment runner with reproducible, digest-stamped outputs.

Each subcommand offers one flag per config field that can change its output
(``config.COMMANDS``), plus --config and --out; a flag or config key for a
field it does not read exits 1, and so does a config value of the wrong
type.  Precedence for every field: command-line flag, then config-file
field, then the ExperimentConfig default.  Each subcommand writes one file
named after it, ``-`` as ``_`` (sweep-n writes sweep_n.csv), in --out, else
$SPINBATH_OUT_DIR, else the working directory.  Data files carry no
timestamps and use a fixed float rendering (17 significant digits, lowercase
exponent), so replaying a config produces byte-identical files.

Exit codes: 0 success, 1 invalid config or usage, 2 resource cap exceeded,
3 I/O failure, 4 a report with ``"passed": false`` (oracle-check above its
tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    TimescaleReport,
    fluctuation_stats,
    n_scaling_sweep,
    predicted_rel_variance,
    recurrence_check,
)
from .config import (
    COMMANDS,
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

# Rows formatted per block, one _format_floats call per float column: its
# float64 temporaries (64 KiB) then stay under glibc's 128 KiB mmap threshold
# and reuse heap pages; 2^14 rows run at half the speed.
_CSV_BLOCK_ROWS = 2**13


@functools.cache
def _csv_tables() -> dict:
    """Tables for ``_format_floats``, built on the first CSV write.

    Row i = x + 324 serves decimal exponent x: 10^(16 - x) ~ (hi + lo) 2^scale
    from exact integers, 17 times the layout form (x + 4 in fixed notation, 21
    in exponent form), and the slot's sign, "0.000" prefix and e+XX suffix (row
    i + 633 with a minus).  Column form * 17 + digits - 1 of ``masks`` keeps
    digit c at byte 7 + c left of the point, at 8 + c right of it, and the point.
    """
    pow10, form, affix = [], [], []
    # q = floor(10^(16 - x) 2^s) from floor(10^(16 - x) 2^S) at the largest s, // 10 a step.
    shifts = [116 - math.floor((16 - x) * math.log2(10)) for x in range(-324, 309)]
    chain = 10**340 << shifts[-1]
    for x, s in zip(range(-324, 309), shifts):  # 10^(16 - x) 2^s has ~117 bits
        q = chain >> (shifts[-1] - s)
        chain //= 10
        pow10.append((float(q), float(q - int(float(q))), -s))
        fixed = -4 <= x < 17
        form.append(17 * (x + 4 if fixed else 21))
        prefix = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        affix.append((prefix, b"" if fixed else b"e%+03d" % x))
    key = np.arange(22 * 17)
    x, ndig = key // 17 - 4, key % 17 + 1
    point = np.select([x < 0, x < 17], [17, x + 1], 1)  # digits before the point
    kept = np.arange(17) < np.maximum(ndig, np.where(x < 0, 0, point))[:, None]
    right = np.arange(17) >= point[:, None]
    masks = np.zeros((3, key.size, 32), np.uint8)  # left digits, right digits, point
    masks[0, :, 7:24] = 255 * (kept & ~right)
    masks[1, :, 8:25] = 255 * (kept & right)
    masks[2, key, 7 + point] = ord(".") * (ndig > point)
    hi, lo, scale = np.array(pow10).T
    hh = 134217729.0 * hi
    hh -= hh - hi  # Dekker split: hi = hh + (hi - hh), 26 bits each
    g = np.arange(10**4)
    pad = [(sign + pre).ljust(7, b"\0") + bytes(18) + suf.ljust(7, b"\0")
           for sign in (b"", b"-") for pre, suf in affix]
    return {
        "hh": hh, "hl": hi - hh, "lo": lo, "scale": scale.astype(np.int32), "form": np.array(form),
        "affix": np.frombuffer(b"".join(pad), "<u8").reshape(-1, 4), "masks": masks.view("<u8"),
        "quad": (48 + g[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8).view("<u4").ravel(),
        "zeros": sum(g % 10**j == 0 for j in range(1, 5)).astype(np.uint8),
    }


def _format_floats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float's %.17g text as a NUL-padded 32-byte slot, and the rows % must format.

    The digits are round(|v| 10^(16 - x)) at v's decimal exponent x: with
    v = m 2^e, m times the double-double 10^(16 - x) (Dekker products, no FMA)
    is an integral double plus a tail good to ~1e-14.  log10 guesses x and the
    unrounded product corrects it.  Rows with a value that is not finite, or
    whose tail is within 1e-6 of a half (a possible exact tie), are flagged.
    """
    t = _csv_tables()
    finite, zero = np.isfinite(values), values == 0
    a = np.where(finite & ~zero, np.abs(values), 1.0)
    m, e = np.frexp(a)
    mh = 134217729.0 * m
    mh -= mh - m
    i = np.floor(np.log10(a)).astype(np.intp) + 324
    while True:  # a second pass only where log10 misjudged the decade
        hh, hl, lo, scale = (t[name].take(i) for name in ("hh", "hl", "lo", "scale"))
        big = m * (hh + hl)
        tail = ((mh * hh - big) + mh * hl + (m - mh) * hh) + (m - mh) * hl + m * lo
        big, tail = np.ldexp(big, e + scale), np.ldexp(tail, e + scale)
        # Margins that a rounding carry absorbs, so no step undoes another.
        step = ((big - 1e17) + tail >= 0.5).astype(np.intp) - ((big - 1e16) + tail < -0.01)
        if not step.any():
            break
        i += step
    whole = np.floor(tail)
    frac = tail - whole
    digits = big.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17  # rounded up to 1 at the next exponent
    digits[carry] = 10**16
    i += carry
    digits[zero], i[zero] = 0, 324  # "0" in fixed notation at x = 0
    top = digits // 10**8
    groups = [top // 10**8]  # the lead digit, then four groups of four
    for half in (top.astype(np.int32) % 10**8, (digits - top * 10**8).astype(np.int32)):
        groups += [half // 10**4, half % 10**4]
    slots = np.zeros((len(values), 8), "<u4")
    trailing = np.zeros(len(values), np.uint8)
    for j, group in enumerate(groups):
        slots[:, 1 + j] = t["quad"].take(group)
        zeros = t["zeros"].take(group) if j else 0
        trailing = zeros + (zeros == 4) * trailing
    key = t["form"].take(i) + 16 - trailing
    # One mask at a time: near a 2 MiB peak a call reuses the heap pages of the
    # last; at 3 MiB glibc trims and refaults them every call (3x slower).
    left, right, point = t["masks"]
    out = slots.view("<u8") & left.take(key, axis=0)
    out |= np.roll(slots.view(np.uint8), 1).view("<u8") & right.take(key, axis=0)
    out |= point.take(key, axis=0)
    out |= t["affix"].take(i + 633 * np.signbit(values), axis=0)
    return out, ~finite | (np.abs(frac - 0.5) < 1e-6)


def _write_csv(path: Path, digest: str, columns: tuple[str, ...], data) -> None:
    """Write one 1-D array per column under the digest-stamped header.

    Bool and integer columns print as integers (True as 1), float columns as
    %.17g, formatted in numpy.  A row goes through one % call only if it holds
    a non-finite value or a possible rounding tie, so the bytes are those of %
    on every row.  Each block of rows is written before the next is formatted.
    """
    data = [np.asarray(col) for col in data]
    row = ",".join("%d" if col.dtype.kind in "biu" else "%.17g" for col in data) + "\n"
    with path.open("wb") as fh:
        fh.write(f"# spinbath {__version__}\n# config {digest}\n{','.join(columns)}\n".encode())
        buffer = np.empty((min(len(data[0]), _CSV_BLOCK_ROWS), len(data), 4), "<u8")
        for lo in range(0, len(data[0]), _CSV_BLOCK_ROWS):
            block = [col[lo : lo + _CSV_BLOCK_ROWS] for col in data]
            text, ties = buffer[: len(block[0])], np.zeros(len(block[0]), bool)
            for j, col in enumerate(block):
                if col.dtype.kind in "biu":  # + 0 prints bools as 0 and 1
                    text[:, j] = (col + 0).astype("S32").view("<u8").reshape(-1, 4)
                else:
                    text[:, j], undecided = _format_floats(col.astype(float))
                    ties |= undecided
            chars = text.view(np.uint8).reshape(len(text), -1)
            chars[:, 31::32] = ord(",")
            chars[:, -1] = ord("\n")
            for r in np.flatnonzero(ties):
                line = (row % tuple(col[r].item() for col in block)).encode()
                chars[r] = np.frombuffer(line.ljust(chars.shape[1], b"\0"), np.uint8)
            fh.write(chars.tobytes().translate(None, b"\0"))


def _write_json(path: Path, digest: str, payload: dict) -> None:
    doc = {"version": __version__, "config_digest": digest}
    doc.update(payload)
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


def _model(cfg: ExperimentConfig, seed: int | None = None) -> SpinBathModel:
    a, b = complex(cfg.a_re, cfg.a_im), complex(cfg.b_re, cfg.b_im)
    return sample_model(cfg.n, seed if seed is not None else cfg.seed, a=a, b=b)


def _time_grid(cfg: ExperimentConfig, model: SpinBathModel) -> np.ndarray:
    t_max = cfg.t_max if cfg.t_max is not None else 100.0 / model.mean_coupling
    return np.linspace(0.0, t_max, cfg.points)


def _cmd_simulate_r(cfg: ExperimentConfig) -> tuple:
    """bath-branch overlap trajectory to CSV"""
    model = _model(cfg)
    times = _time_grid(cfg, model)
    r = overlap_r(model, times)
    return ("t", "re_r", "im_r", "abs_r"), (times, r.real, r.imag, np.abs(r))


def _cmd_simulate_obs(cfg: ExperimentConfig) -> tuple:
    """observable expectation trajectory to CSV"""
    model = _model(cfg)
    obs = parse_observable_spec(cfg.obs, model.n_sites)
    times = _time_grid(cfg, model)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by time
        values = expectation(model, obs, times)
    finite = np.isfinite(values)
    if not finite.all():
        t = times[np.argmin(finite)]
        raise ValueError(f"the expectation value at t = {t:.17g} is not finite: beyond the double range")
    return ("t", "value"), (times, values)


def _cmd_sweep_n(cfg: ExperimentConfig) -> tuple:
    """decoherence verdicts across site counts"""
    rows = n_scaling_sweep(
        cfg.n_list,
        cfg.seed,
        threshold=cfg.theta,
        window=cfg.window,
        n_seeds=cfg.n_seeds,
        points=cfg.points,
        t_max=cfg.t_max,
    )
    # The header names SweepRow's fields in order, n_sites as "n".
    return ("n", "t_d", "sup_late", "decohered"), tuple(zip(*map(dataclasses.astuple, rows)))


def _cmd_oracle_check(cfg: ExperimentConfig) -> dict:
    """analytic vs dense-state equivalence report"""
    worst = np.zeros(3)  # expectation, overlap, reduced state
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
            state = evolve(state0, model, t)
            diffs = (
                abs(value - oracle_expectation(state, obs)),
                abs(overlap - oracle_overlap(model, t, site_cap=cfg.site_cap)),
                np.abs(oracle_reduced_state(state) - reduced_system_state(model, t).matrix).max(),
            )
            del state  # freed before the next evolve allocates another
            worst = np.maximum(worst, diffs)  # a NaN difference stays NaN
    passed = bool(np.all(worst <= cfg.tol))
    # JSON has no NaN or infinity; a non-finite maximum is written as null.
    worst = [float(w) if np.isfinite(w) else None for w in worst]
    return {
        "n": cfg.n,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "tolerance": cfg.tol,
        "max_diff_expectation": worst[0],
        "max_diff_overlap": worst[1],
        "max_diff_reduced_state": worst[2],
        "passed": passed,
    }


def _cmd_recurrence(cfg: ExperimentConfig) -> dict:
    """revival at the common period of commensurate couplings"""
    model = commensurate_model(cfg.n, cfg.g_base, cfg.seed)
    t_rec = 2.0 * np.pi / cfg.g_base
    abs_r = recurrence_check(model, t_rec)
    return {
        "n": cfg.n,
        "seed": cfg.seed,
        "g_base": cfg.g_base,
        "t_rec": t_rec,
        "abs_r": abs_r,
        "deviation": abs(abs_r - 1.0),
    }


def _cmd_timescale(cfg: ExperimentConfig) -> dict:
    """hbar / V decoherence-time estimates"""
    return dataclasses.asdict(TimescaleReport(cfg.v1_ev, cfg.v2_ev))


def _cmd_fluctuation(cfg: ExperimentConfig) -> dict:
    """window mean of |r|^2 vs its long-time closed form"""
    model = _model(cfg)
    gbar = model.mean_coupling
    t0 = cfg.t0 if cfg.t0 is not None else 50.0 / gbar
    t1 = cfg.t1 if cfg.t1 is not None else 550.0 / gbar
    mean_r2, predicted_r2, nodes = fluctuation_stats(model, (t0, t1))
    return {
        "n": cfg.n,
        "seed": cfg.seed,
        "t0": t0,
        "t1": t1,
        "nodes": nodes,
        "mean_r2": mean_r2,
        "predicted_r2": predicted_r2,
        "ratio": mean_r2 / predicted_r2,
        "predicted_rel_variance": predicted_rel_variance(model),
    }


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
    """Execute one configured experiment; returns the process exit code.

    A handler returns a report dict (JSON) or a (columns, data) pair (CSV).
    """
    try:
        result = _HANDLERS[cfg.command](cfg)
        path = _out_dir(cfg) / cfg.command.replace("-", "_")
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(result, dict):
            _write_json(path.with_suffix(".json"), cfg.digest, result)
            return EXIT_OK if result.get("passed", True) else EXIT_CHECK_FAILED
        _write_csv(path.with_suffix(".csv"), cfg.digest, *result)
        return EXIT_OK
    except (SiteCapError, MemoryError) as exc:  # numpy refuses an allocation it cannot make
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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


# Config field -> (flag, type, help) for every field a subcommand can read.
_FLAGS = {
    "n": ("--n", int, "number of environment sites"),
    "n_list": ("--n-list", _int_list, "comma-separated site counts"),
    "seed": ("--seed", int, "base random seed"),
    "a_re": ("--a-re", float, "central up amplitude, real part"),
    "a_im": ("--a-im", float, "central up amplitude, imaginary part"),
    "b_re": ("--b-re", float, "central down amplitude, real part"),
    "b_im": ("--b-im", float, "central down amplitude, imaginary part"),
    "t_max": ("--t-max", float, "grid end time (default 100 / gbar)"),
    "points": ("--points", int, "number of grid points"),
    "theta": ("--theta", float, "decoherence threshold"),
    "window": ("--window", float, "hold window (default 20 / gbar)"),
    "obs": ("--obs", str, "observable spec: eid:... | single-site:... | random:..."),
    "g_base": ("--g-base", float, "base coupling; site j couples at j * g_base"),
    "v1_ev": ("--v1", float, "first interaction strength (eV)"),
    "v2_ev": ("--v2", float, "second interaction strength (eV)"),
    "trials": ("--trials", int, "number of (model, observable) pairs"),
    "tol": ("--tol", float, "largest allowed |difference|"),
    "n_seeds": ("--seeds", int, "seeds per site count"),
    "t0": ("--t0", float, "start of the window |r|^2 is averaged over (default 50 / gbar)"),
    "t1": ("--t1", float, "end of that window (default 550 / gbar)"),
    "site_cap": ("--site-cap", int, "dense-state memory guard override (not in the digest)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinbath", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spinbath {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file; flags override its fields")
    common.add_argument("--out", default=None, help="output directory")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, reads in COMMANDS.items():
        # No prefix matching: sweep-n refuses --n rather than read it as --n-list.
        summary = _HANDLERS[command].__doc__
        sub = subs.add_parser(command, parents=[common], allow_abbrev=False, help=summary)
        for name in reads:
            flag, kind, text = _FLAGS[name]
            sub.add_argument(flag, dest=name, type=kind, help=text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    options = vars(args)
    config_path = options.pop("config", None)
    try:
        # The file is validated whole before the flags merge into it.
        data = config_from_file(config_path).to_dict() if config_path is not None else {}
        data.update({k: v for k, v in options.items() if v is not None})
        cfg = config_from_dict(data)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
