"""The benchmark's workloads: argv from a seed, and an output check for each.

Every check is a referee that does not call the package.  Models and random
observables are re-derived from the README's reproducibility contract
(`SeedSequence(seed).spawn(n)`, one child per site, draws in a fixed order),
so a check also fails if the sampler drifts from that contract.  A check
returns None when the output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

# The engine documents that a summed log magnitude below -700 is reported as
# exactly 0; a zero row is accepted only where the referee lies below it.
FLUSH_FLOOR_LOG = -700.0
# Central amplitudes a = b = 1/sqrt(2), the package default, rounded as the
# package rounds it.
DEFAULT_AMPLITUDE = float(1.0 / np.sqrt(2.0))
# Model and observable draws use disjoint seeds so their streams are unrelated.
OBS_SEED_OFFSET = 1_000_000
# Rows of a long trajectory the referees recompute: evenly spaced, endpoints
# included.
SAMPLE_ROWS = 97


def program_seed(seed: int) -> int:
    """The non-negative model seed a benchmark seed maps to."""
    return seed % 2**32


def site_draws(n_sites: int, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Per-site (u, phi, g) exactly as the reproducibility contract draws them."""
    u, phi, g = [], [], []
    for child in np.random.SeedSequence(seed).spawn(n_sites):
        gen = np.random.default_rng(child)
        u.append(gen.uniform(0.0, 1.0))
        phi.append(gen.uniform(0.0, 2.0 * np.pi))
        g.append(1.0 - gen.uniform(0.0, 1.0))
    return u, phi, g


def observable_draws(n_sites: int, seed: int) -> list[tuple[float, float, complex]]:
    """(d0, d1, off) of the system part, then of each site part, of `random:<seed>`."""
    parts = []
    for child in np.random.SeedSequence(seed).spawn(n_sites + 1):
        gen = np.random.default_rng(child)
        d0, d1 = gen.uniform(-1.0, 1.0, 2)
        magnitude = gen.uniform(0.0, 1.0)
        angle = gen.uniform(0.0, 2.0 * np.pi)
        parts.append((float(d0), float(d1), complex(magnitude * np.exp(1j * angle))))
    return parts


def read_csv(path: Path, columns: tuple[str, ...]) -> np.ndarray:
    """Data rows of a spinbath CSV after checking its two comment lines and header."""
    lines = path.read_text(encoding="ascii").splitlines()
    if len(lines) < 4 or not lines[0].startswith("# spinbath ") or not lines[1].startswith("# config "):
        raise ValueError(f"{path.name}: missing version or config line")
    if lines[2] != ",".join(columns):
        raise ValueError(f"{path.name}: header {lines[2]!r}, expected {','.join(columns)!r}")
    return np.array([[float(x) for x in line.split(",")] for line in lines[3:]])


def sample_rows(points: int) -> list[int]:
    return sorted(set(np.linspace(0, points - 1, SAMPLE_ROWS).round().astype(int).tolist()))


def uniform_grid_problem(times: np.ndarray, points: int, t_max: float) -> str | None:
    if times.size != points:
        return f"{times.size} rows, expected {points}"
    expected = np.linspace(0.0, t_max, points)
    worst = float(np.max(np.abs(times - expected)))
    if worst > 1e-12 * t_max:
        return f"time grid deviates from linspace(0, {t_max!r}, {points}) by {worst:.3e}"
    return None


def overlap_log_referee(t: float, c: list[float], g: list[float]) -> float:
    """log|r(t)| = 1/2 sum_i log1p(-4 u_i (1 - u_i) sin^2(g_i t)), with c_i = 4 u_i (1 - u_i)."""
    return 0.5 * math.fsum(math.log1p(-ci * math.sin(gi * t) ** 2) for ci, gi in zip(c, g))


def overlap_arg_referee(t: float, u: list[float], g: list[float]) -> float:
    """arg r(t) = sum_i atan2((2 u_i - 1) sin(g_i t), cos(g_i t))."""
    return math.fsum(math.atan2((2.0 * ui - 1.0) * math.sin(gi * t), math.cos(gi * t)) for ui, gi in zip(u, g))


def check_overlap(path: Path, n_sites: int, seed: int, t_max: float, points: int) -> str | None:
    """simulate-r rows against the stdlib log-space referee on a fixed row sample."""
    data = read_csv(path, ("t", "re_r", "im_r", "abs_r"))
    problem = uniform_grid_problem(data[:, 0], points, t_max)
    if problem:
        return problem
    if not np.all(np.isfinite(data)):
        return "non-finite value"
    u, _, g = site_draws(n_sites, seed)
    c = [4.0 * ui * (1.0 - ui) for ui in u]
    abs_r = data[:, 3]
    rows = set(sample_rows(points))
    # Also the last representable row and the first flushed one, if any.
    zero = np.flatnonzero(abs_r == 0.0)
    if zero.size:
        rows.update({int(zero[0]), max(int(zero[0]) - 1, 0)})
    for k in sorted(rows):
        t, re_r, im_r, mag = data[k].tolist()
        ref = overlap_log_referee(t, c, g)
        tol = 1e-10 * max(1.0, abs(ref))
        if mag == 0.0:
            if ref >= FLUSH_FLOOR_LOG + tol:
                return f"row {k}: |r| = 0 but referee log|r| = {ref!r} is above the floor"
            continue
        if mag < sys.float_info.min:
            if abs(mag - math.exp(ref)) > tol * math.exp(ref) + 4 * math.ulp(0.0):
                return f"row {k}: subnormal |r| = {mag!r}, referee exp({ref!r})"
            continue
        if abs(math.log(mag) - ref) > tol:
            return f"row {k}: log|r| = {math.log(mag)!r}, referee {ref!r}"
        if abs(mag - math.hypot(re_r, im_r)) > 1e-13 * mag:
            return f"row {k}: abs_r disagrees with hypot(re_r, im_r)"
        if ref >= FLUSH_FLOOR_LOG:
            d = math.remainder(math.atan2(im_r, re_r) - overlap_arg_referee(t, u, g), 2.0 * math.pi)
            if abs(d) > 1e-9:
                return f"row {k}: arg r off the referee by {d:.3e} rad"
    return None


def expectation_referee(t: float, sites, parts) -> tuple[mpmath.mpf, mpmath.mpf]:
    """<psi(t)| S (x) E_1 (x) ... (x) E_N |psi(t)> and the sum of its terms' magnitudes.

    From the state, not the engine's formulas: the up branch carries
    (alpha e^(igt/2), beta e^(-igt/2)) per site, the down branch the same at
    -t, and the value is |a|^2 S00 P_uu + |b|^2 S11 P_dd + 2 Re(conj(a) b S01 P_ud)
    with P_xy = prod_i <x_i| E_i |y_i>.
    """

    def form(x, e, y):
        (e00, e11, e01) = e
        return mpmath.conj(x[0]) * (e00 * y[0] + e01 * y[1]) + mpmath.conj(x[1]) * (
            mpmath.conj(e01) * y[0] + e11 * y[1]
        )

    p_uu = p_dd = p_ud = mpmath.mpc(1)
    for (alpha, beta, g), e in zip(sites, parts[1:]):
        ph = mpmath.expj(g * t / 2)
        up = (alpha * ph, beta * mpmath.conj(ph))
        down = (alpha * mpmath.conj(ph), beta * ph)
        p_uu *= form(up, e, up)
        p_dd *= form(down, e, down)
        p_ud *= form(up, e, down)
    s00, s11, s01 = parts[0]
    w = mpmath.mpf(DEFAULT_AMPLITUDE) ** 2
    terms = (w * s00 * p_uu.real, w * s11 * p_dd.real, 2 * w * (s01 * p_ud).real)
    return mpmath.fsum(terms), mpmath.fsum(abs(x) for x in (w * s00 * p_uu, w * s11 * p_dd, 2 * w * s01 * p_ud))


def check_expectation(path: Path, n_sites: int, seed: int, obs_seed: int, points: int) -> str | None:
    """simulate-obs rows against an mpmath recomputation of the three product terms."""
    data = read_csv(path, ("t", "value"))
    u, phi, g = site_draws(n_sites, seed)
    problem = uniform_grid_problem(data[:, 0], points, 100.0 / float(np.mean(g)))
    if problem:
        return problem
    if not np.all(np.isfinite(data)):
        return "non-finite value"
    with mpmath.workdps(40):
        sites = [
            (mpmath.sqrt(ui), mpmath.sqrt(1 - mpmath.mpf(ui)) * mpmath.expj(pi), mpmath.mpf(gi))
            for ui, pi, gi in zip(u, phi, g)
        ]
        parts = [(mpmath.mpf(d0), mpmath.mpf(d1), mpmath.mpc(off)) for d0, d1, off in observable_draws(n_sites, obs_seed)]
        for k in sample_rows(points):
            t, value = data[k].tolist()
            ref, scale = expectation_referee(mpmath.mpf(t), sites, parts)
            if abs(value - ref) > 1e-10 * scale + 1e-300:
                return f"row {k}: value {value!r}, referee {mpmath.nstr(ref, 17)}"
    return None


def check_sweep(path: Path, n_list: tuple[int, ...], theta: float) -> str | None:
    """Every row decohered with sup_late <= theta; median sup_late strictly falls with N."""
    data = read_csv(path, ("n", "t_d", "sup_late", "decohered"))
    if data[:, 0].tolist() != list(n_list):
        return f"site counts {data[:, 0].tolist()}, expected {list(n_list)}"
    for n, t_d, sup_late, decohered in data.tolist():
        if decohered != 1.0 or not math.isfinite(t_d) or not 0.0 <= sup_late <= theta:
            return f"n = {int(n)}: decohered {decohered:g}, t_d {t_d!r}, sup_late {sup_late!r}"
    if not np.all(np.diff(data[:, 2]) < 0.0):
        return f"median sup_late not strictly decreasing in N: {data[:, 2].tolist()}"
    return None


def check_oracle(path: Path, n_sites: int, trials: int) -> str | None:
    """oracle-check reports passed: true with every difference within its tolerance."""
    doc = json.loads(path.read_text(encoding="ascii"))
    if doc.get("passed") is not True:
        return f"passed is {doc.get('passed')!r}"
    if doc.get("n") != n_sites or doc.get("trials") != trials:
        return f"n {doc.get('n')!r}, trials {doc.get('trials')!r}; expected {n_sites}, {trials}"
    for key in ("max_diff_expectation", "max_diff_overlap", "max_diff_reduced_state"):
        if not 0.0 <= doc[key] <= doc["tolerance"]:
            return f"{key} = {doc[key]!r} exceeds tolerance {doc['tolerance']!r}"
    return None


@dataclass(frozen=True)
class Workload:
    """A named command line; `check(output path, seed)` referees what it wrote."""

    name: str
    output: str
    argv: Callable[[int], list[str]]
    check: Callable[[Path, int], str | None]


SWEEP_N = (30, 300, 3000, 10000)

# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "overlap-deep",
            "simulate_r.csv",
            lambda s: ["simulate-r", "--n", "10000", "--points", "2000", "--t-max", "1.0", "--seed", str(program_seed(s))],
            lambda path, s: check_overlap(path, 10000, program_seed(s), 1.0, 2000),
        ),
        Workload(
            "trace-long",
            "simulate_obs.csv",
            lambda s: [
                "simulate-obs", "--n", "48", "--points", "200000",
                "--obs", f"random:{program_seed(s) + OBS_SEED_OFFSET}", "--seed", str(program_seed(s)),
            ],
            lambda path, s: check_expectation(
                path, 48, program_seed(s), program_seed(s) + OBS_SEED_OFFSET, 200000
            ),
        ),
        Workload(
            "sweep-seeds",
            "sweep_n.csv",
            lambda s: [
                "sweep-n", "--n-list", ",".join(map(str, SWEEP_N)), "--seeds", "4", "--points", "400",
                "--theta", "0.1", "--seed", str(program_seed(s)),
            ],
            lambda path, s: check_sweep(path, SWEEP_N, 0.1),
        ),
        Workload(
            "oracle-dense",
            "oracle_check.json",
            lambda s: ["oracle-check", "--n", "16", "--trials", "4", "--seed", str(program_seed(s))],
            lambda path, s: check_oracle(path, 16, 4),
        ),
    )
}
