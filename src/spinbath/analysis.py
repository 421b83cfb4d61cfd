"""Decoherence verdicts and long-time statistics built on the fast evaluators.

The central operational definition lives here: a trajectory counts as
decohered once its magnitude stays at or below a threshold for a full hold
window.  Everything is evaluated on the supplied grid only; grid density is
the caller's responsibility.  No interpolation happens behind the caller's
back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import _product, _site_weights, overlap_r
from .ensemble import sample_model
from .model import SpinBathModel, Trajectory, _Checked

# Reduced Planck constant in eV s; the only dimensionful number in the package.
HBAR_EV_S = 6.582119569e-16

# Marker for "no qualifying window found"; trajectories never certify
# non-decoherence, they only fail to certify decoherence.
NEVER = math.inf

# Relative tolerance for deciding that a coupling is an integer multiple of
# the base frequency.
COMMENSURATE_RTOL = 1e-9

# fluctuation_stats' quadrature.  At a quarter of a 16-node panel (4 nodes)
# per period of |r|^2's top frequency the coarser rule is good to about 1e-12
# relative and the finer one to rounding: the two differ by at most 1.2e-12 at
# N = 1-8 (seed 0), N = 20 (seeds 0-4) and N = 50.  The budget bounds one
# overlap_r call's node grid and its results, at most 2^18 times in 6 MiB, and
# the finer rule's kernel work: 0.7 s for N = 280 on the default window,
# 1.0e8 site-nodes, on a shared 2-core x86-64.
_GAUSS_NODES = 16
_PANELS_PER_PERIOD = 0.25
_RULE_RTOL = 1e-9
_MAX_NODES = 2**22
_MAX_SITE_NODES = 10**8


@dataclass(frozen=True)
class DecoherenceVerdict(_Checked):
    """Outcome of the threshold-and-hold test on one trajectory.

    ``t_d`` is the earliest grid time from which the magnitude stays at or
    below ``threshold`` for a full ``window``; NEVER (= math.inf) if no such
    window exists on the grid.  ``sup_late`` is the largest magnitude over the
    certified window when decohered, and over the final window of the grid
    when not.
    """

    t_d: float
    threshold: float
    window: float
    sup_late: float
    decohered: bool

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly between 0 and 1")
        if not self.window > 0.0:
            raise ValueError("window must be positive")
        if self.decohered and self.sup_late > self.threshold:
            raise ValueError("a decohered verdict requires sup_late <= threshold")
        if not self.decohered and not math.isinf(self.t_d):
            raise ValueError("a non-decohered verdict requires t_d = NEVER")


@dataclass(frozen=True)
class TimescaleReport(_Checked):
    """hbar/V decoherence-time estimates for two interaction strengths.

    ``t_ds_s`` belongs to the first strength (the strong, self-interaction
    scale), ``t_du_s`` to the second (the weak, environment-coupling scale).
    ``hierarchy_ok`` records that a stronger interaction implies a shorter
    time.
    """

    v1_ev: float
    v2_ev: float
    t_ds_s: float = field(init=False)
    t_du_s: float = field(init=False)
    hierarchy_ok: bool = field(init=False)

    def __post_init__(self):
        # timescale_estimate raises unless the strength is positive and finite.
        t_ds, t_du = timescale_estimate(self.v1_ev), timescale_estimate(self.v2_ev)
        self._store(t_ds_s=t_ds, t_du_s=t_du, hierarchy_ok=(not self.v1_ev > self.v2_ev) or t_ds < t_du)


@dataclass(frozen=True)
class SweepRow:
    """Median verdict statistics for one site count in a scaling sweep."""

    n_sites: int
    t_d: float
    sup_late: float
    decohered: bool


def decoherence_time(traj: Trajectory, threshold: float, window: float) -> DecoherenceVerdict:
    """Earliest grid time from which |value| holds at or below the threshold.

    Scans every grid point t* whose window [t*, t* + window] still fits on the
    grid and returns the first one where all grid samples in that window have
    magnitude <= threshold.  A trajectory that keeps re-exceeding the
    threshold (every quasi-periodic signal does) never qualifies.  The window
    must reach the next sample from every grid point, or a single sample
    below the threshold would certify it: a window shorter than the largest
    grid step raises ValueError.
    """
    # The verdict checks the threshold; the window is checked before the grid step is.
    if not window > 0.0:
        raise ValueError("window must be positive")
    if traj.span < 2.0 * window:
        raise ValueError("trajectory must span at least twice the hold window")
    times = traj.times
    magnitudes = np.abs(traj.values)
    below = magnitudes <= threshold
    # Cumulative count of below-threshold samples; window [i, j) is all below
    # exactly when the count increases by j - i.
    counts = np.concatenate([[0], np.cumsum(below)])
    # Rounding slack for window edges, in the grid's own units: far below any
    # grid step, so rescaling times and window together keeps the verdict.
    steps = np.diff(times)
    slack = 1e-6 * float(steps.min())
    if window + slack < steps.max():
        raise ValueError(
            f"hold window {window!r} is shorter than the grid step {float(steps.max())!r}; "
            f"it would hold a single sample"
        )
    # Last start index whose window still fits on the grid.
    fit = np.searchsorted(times, times[-1] - window + slack, side="right")
    ends = np.searchsorted(times, times[:fit] + window + slack, side="right")
    starts = np.arange(fit)
    qualified = counts[ends] - counts[starts] == ends - starts
    hits = np.nonzero(qualified)[0]
    if hits.size:
        i = int(hits[0])
        t_d, late = float(times[i]), magnitudes[i : ends[i]]
    else:
        tail = np.searchsorted(times, times[-1] - window - slack, side="left")
        t_d, late = NEVER, magnitudes[tail:]
    return DecoherenceVerdict(t_d, threshold, window, float(late.max()), decohered=bool(hits.size))


def r_trajectory(model: SpinBathModel, t_max: float, points: int) -> Trajectory:
    """Sample the bath-branch overlap on a uniform grid starting at 0."""
    if points < 2:
        raise ValueError("need at least two grid points")
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be positive and finite")
    times = np.linspace(0.0, t_max, points)
    return Trajectory(times=times, values=overlap_r(model, times))


def predicted_rel_variance(model: SpinBathModel) -> float:
    """Closed-form relative temporal variance V of |r|^2 about its long-time mean.

    Site i contributes |f_i|^2 = a_i + b_i cos(2 g_i t), with
    a_i = |alpha_i|^4 + |beta_i|^4 and b_i = 2 |alpha_i|^2 |beta_i|^2.  For
    incommensurate couplings the cosines at a random late time are
    independent, so |r|^2 there has relative variance
    V = prod_i (1 + b_i^2 / (2 a_i^2)) - 1, summed as log1p terms; inf where
    it overflows.
    """
    w_up, w_down = _site_weights(model)
    ratio = 2.0 * (w_up * w_down / (w_up**2 + w_down**2)) ** 2  # b^2 / (2 a^2)
    with np.errstate(over="ignore"):
        return float(np.expm1(np.log1p(ratio).sum()))


def fluctuation_stats(model: SpinBathModel, t_window: tuple[float, float]) -> tuple[float, float, int]:
    """Window mean of |r|^2 against its closed-form long-time mean.

    |r(t)|^2 is a trigonometric polynomial with frequencies in [-2G, 2G],
    G = sum_i g_i, so composite 16-node Gauss-Legendre panels, about
    _PANELS_PER_PERIOD of them per period of 2G, give its window mean to
    rounding; a rule with twice the panels checks it and is returned.  Each
    rule is 16 even node grids, node j of every panel on one.  The
    long-time mean prod_i (|alpha_i|^4 + |beta_i|^4) holds for incommensurate
    couplings (commensurate models belong in recurrence_check).  Returns
    (window mean, long-time mean, nodes of the finer rule).  Raises
    ValueError, in this order, when the long-time mean is below the smallest
    normal double, where no ratio means anything; when the finer rule needs
    more than _MAX_NODES nodes or _MAX_SITE_NODES site-nodes; and when the
    two rules differ by more than _RULE_RTOL relative.
    """
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError("time window is degenerate")
    w_up, w_down = _site_weights(model)
    predicted_r2 = _product(w_up**2 + w_down**2)
    if predicted_r2 < np.finfo(float).tiny:
        raise ValueError(
            f"predicted late-time |r|^2 = {predicted_r2!r} is below the smallest "
            f"normal double; use fewer sites"
        )
    # The coarser rule's panels over the window's (t1 - t0) G / pi periods of
    # 2G; inf where the window is beyond any budget.
    panels = max(1.0, _PANELS_PER_PERIOD * float(model.couplings.sum()) * (t1 - t0) / math.pi)
    nodes = 2 * _GAUSS_NODES * panels
    if nodes > _MAX_NODES or model.n_sites * nodes > _MAX_SITE_NODES:
        raise ValueError(
            f"the window mean of |r|^2 needs {nodes:.3g} quadrature nodes, {model.n_sites * nodes:.3g} "
            f"site-nodes; the budget is {_MAX_NODES} nodes and {_MAX_SITE_NODES:.3g} site-nodes: "
            f"shorten the window or use fewer sites"
        )
    from numpy.polynomial.legendre import leggauss  # only fluctuation pays its import

    x, w = leggauss(_GAUSS_NODES)
    means = []
    for count in (math.ceil(panels), 2 * math.ceil(panels)):
        half = 0.5 * (t1 - t0) / count
        sums = []  # w_j times node j's sum of |r|^2 over the panels
        for xj, wj in zip(x, w):
            r = overlap_r(model, np.linspace(t0 + half * (1 + xj), t1 - half * (1 - xj), count))
            sums.append(wj * np.vdot(r, r).real)
        # Each panel's weights sum to 2, and the panels are of equal width.
        means.append(math.fsum(sums) / (2 * count))
    coarse, fine = means
    nodes = _GAUSS_NODES * count  # the finer rule's
    if not abs(fine - coarse) <= _RULE_RTOL * fine:
        raise ValueError(
            f"the window mean of |r|^2 is {fine!r} on {nodes} nodes and {coarse!r} on half "
            f"as many: unresolved beyond {_RULE_RTOL:g} relative"
        )
    return fine, predicted_r2, nodes


def recurrence_check(model: SpinBathModel, t_rec: float) -> float:
    """|r| at the common period of a commensurate-coupling model.

    Requires every coupling to be an integer multiple of 2 pi / t_rec; then
    every overlap factor returns to 1 simultaneously at t_rec, so the value
    must be 1 up to rounding.  A closed quasi-periodic system has no
    decoherence time; this makes the revival explicit.
    """
    if not (np.isfinite(t_rec) and t_rec > 0.0):
        raise ValueError("recurrence time must be positive and finite")
    g_base = 2.0 * np.pi / t_rec
    ratios = model.couplings / g_base
    nearest = np.rint(ratios)
    if np.any(nearest < 1.0) or np.any(
        np.abs(ratios - nearest) > COMMENSURATE_RTOL * np.maximum(1.0, ratios)
    ):
        raise ValueError(
            "couplings are not integer multiples of 2*pi / t_rec; "
            "recurrence is only exact for commensurate models"
        )
    return abs(overlap_r(model, t_rec))


def timescale_estimate(v_ev: float) -> float:
    """Decoherence-time estimate hbar / V for an interaction strength in eV.

    Raises ValueError when hbar / V is below the smallest normal double, where
    the quotient loses relative precision.
    """
    if not (np.isfinite(v_ev) and v_ev > 0.0):
        raise ValueError("interaction strength must be positive and finite")
    t = HBAR_EV_S / v_ev
    if t < np.finfo(float).tiny:
        raise ValueError(
            f"hbar / V = {t!r} s for V = {v_ev!r} eV is below the smallest normal double"
        )
    return t


def _median(values: list[float]) -> float:
    """``np.median`` of a few floats, without the ``numpy.ma`` import it makes.

    Sorts, then takes the middle value or ``np.mean`` of the middle two, as
    ``np.median`` does.
    """
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else np.mean(ordered[mid - 1 : mid + 1]))


def n_scaling_sweep(
    n_list: list[int],
    seed: int,
    threshold: float = 0.1,
    window: float | None = None,
    n_seeds: int = 5,
    points: int = 2000,
    t_max: float | None = None,
) -> list[SweepRow]:
    """Median decoherence verdicts across site counts, common seeded family.

    For each site count, n_seeds models are drawn at seeds seed, seed+1, ...
    and judged on a uniform grid.  Defaults follow the mean coupling gbar of
    each model: window 20 / gbar, grid span 100 / gbar.  Because per-site
    random streams are keyed by site index, the models at different site
    counts share their common sites, so rows are directly comparable.  Median
    sup_late decreases as the bath grows; a single site never decoheres.
    """
    if not n_list:
        raise ValueError("need at least one site count")
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    rows = []
    for n_sites in n_list:
        verdicts = []
        for k in range(n_seeds):
            model = sample_model(n_sites, seed + k)
            gbar = model.mean_coupling
            w = window if window is not None else 20.0 / gbar
            span = t_max if t_max is not None else 100.0 / gbar
            verdicts.append(decoherence_time(r_trajectory(model, span, points), threshold, w))
        rows.append(
            SweepRow(
                n_sites=n_sites,
                t_d=_median([v.t_d for v in verdicts]),
                sup_late=_median([v.sup_late for v in verdicts]),
                decohered=all(v.decohered for v in verdicts),
            )
        )
    return rows
