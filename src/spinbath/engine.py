"""Closed-form evaluators for the dephasing model, O(N) per time point.

Because the coupling Hamiltonian is diagonal in the up/down product basis,
every product-form observable has an expectation value that factorizes into
one 2x2 contraction per site.  This module evaluates those per-site factors
and multiplies them with one separate-exponent product, ``_site_products``;
every per-site product in the package goes through it, plain products of
per-site numbers too (``_product``).  Callers pass each site's raw
coefficients and a closed-form bound on its factors.  The kernel divides each
site's coefficients by 2^e, the least power of two at or above that bound, so
every factor has modulus at most 1 and the integer sum of the e is carried
apart.  Factors are multiplied in site blocks into a running mantissa that is
renormalized after every block, its power of two carried as an integer, so a
product is a correctly scaled double however many sites it spans.  A
power-of-two scale is exact and a partial product within a block can only
shrink, so a block product that stays above 2^-960 is exactly what
multiplying frexp mantissas would give, whichever bound scaled it.  The few
time points whose block product falls below that floor, or to 0, are
recomputed from factors split one by one into mantissa and exponent.
Results underflow gradually the way IEEE doubles do: subnormal where the
true value is, exactly 0 only below 2^-1074, and a point certainly below
2^-1075 after a block is not multiplied further.  Factors are built one tile
of at most 2^14 site-times (16 sites x 1024 times on a long grid), so a call
holds O(N + T) memory, never an (N, T) matrix.

Every factor depends on time only through the rotation e^(i g t) of its
site.  When the times form an evenly spaced grid (every t_k within
2 ulp(max |t|) of t_0 + k h, as np.linspace gives), the rotation is built by
angle addition: runs of b = isqrt(tile width) points share one cos/sin at
the run's first, actual time, each offset p within a run has one cos/sin of
g p h, and the rotation at every point is their complex product.  A tile of
width 1024 (b = 32) thus takes 32 + 32 cos/sin pairs per site instead of
1024.  This moves each phase by at most about |g| 4 ulp(max |t|), the same
order as the rounding of g t itself.  Any other grid, and a scalar time,
takes cos and sin of every g t directly and gives exactly the values a
direct evaluation gives.

Every public function accepts a scalar time or a 1-D array of times and
returns a matching scalar or array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RelevantObservable, SpinBathModel

# Factors are built and multiplied in tiles of at most _TILE_TIMES times and
# _TILE_ELEMENTS (sites x times) elements, and at most _TILE_SITES sites: a
# product of _TILE_SITES split mantissas, each with its larger component in
# [0.5, 1), stays above 2^-1000, still a normal double.  Medians of 10
# alternating rounds on a shared 2-core x86-64 machine, numpy 2.4: overlap_r
# at N = 10^4, T = 2000; expectation at N = 48, T = 2e5; overlap_r at N = 30,
# 300, 3000 and 10^4, T = 400; and the traced peak of _expectation_products at
# N = 48, T = 2e5 (6.1 MiB of it the results).
#
#   elements  times x sites  overlap  expectation  T = 400  peak
#   2^13      2000 x 4       0.394 s  0.421 s      0.112 s  7.05 MiB
#   2^13      1024 x 8       0.381 s  0.396 s      0.111 s  6.99 MiB
#   2^14      2000 x 8       0.338 s  0.390 s      0.094 s  7.80 MiB
#   2^14      1024 x 16      0.325 s  0.343 s      0.092 s  7.75 MiB
#   2^14       512 x 32      0.373 s  0.400 s      0.096 s  7.47 MiB
#   2^14       256 x 64      0.353 s  0.402 s      0.102 s  7.33 MiB
#   2^15      1024 x 32      0.310 s  0.328 s      0.092 s  8.73 MiB
#
# 2^15 holds more than the 2 MiB beside the results that
# test_products_write_time_chunks_in_place allows.
_TILE_ELEMENTS = 2**14
_TILE_TIMES = 1024
_TILE_SITES = 1000
# A block product whose larger component is below _FLOOR may have passed
# through the subnormal range; those points take the per-element split.
_FLOOR = 2.0**-960
# After a _fold a running product is m 2^e with the larger of |Re m|, |Im m|
# in [0.5, 1), so |m| < sqrt(2), and every later factor has modulus at most 1
# up to a few ulp.  Once e <= _DROP, each component of the final product is
# below sqrt(2) 2^-1077 (1 + O(N eps)) < 2^-1075, half the least subnormal, and
# rounds to the +0.0 (after `out += 0`) that m 2^e gives: it is not multiplied.
_DROP = -1077


@dataclass(frozen=True)
class ReducedState:
    """2x2 state of the central qubit after tracing out the bath."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError("reduced state must be 2x2")
        if not np.isfinite(mat).all():  # NaN would pass every comparison below
            raise ValueError("reduced state must be finite")
        if abs(np.trace(mat) - 1.0) > 1e-12:
            raise ValueError("reduced state must have unit trace")
        if abs(mat[0, 1] - np.conj(mat[1, 0])) > 1e-12:
            raise ValueError("reduced state must be Hermitian")
        # Smaller eigenvalue of a 2x2 Hermitian matrix with unit trace.
        det = (mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]).real
        disc = max(1.0 - 4.0 * det, 0.0)
        if 0.5 * (1.0 - np.sqrt(disc)) < -1e-12:
            raise ValueError("reduced state must be positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def _as_times(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _check_sizes(model: SpinBathModel, obs: RelevantObservable) -> None:
    if obs.n_sites != model.n_sites:
        raise ValueError(
            f"observable has {obs.n_sites} site parts, model has {model.n_sites} sites"
        )


def _site_weights(model: SpinBathModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-site (|alpha|^2, |beta|^2) without the abs round trip.

    Squaring the components directly keeps exactly representable weights
    exact (e.g. alpha = 0.5 + 0.5i), which abs-then-square does not.
    """
    w_up = model.alphas.real**2 + model.alphas.imag**2
    w_down = model.betas.real**2 + model.betas.imag**2
    return w_up, w_down


def _ldexp(x: np.ndarray, exponent: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * 2**exponent for real or complex x, rounded once, into ``out`` if given."""
    if not np.iscomplexobj(x):
        return np.ldexp(x, exponent, out=out)
    if out is None:
        out = np.empty_like(x)
    np.ldexp(x.real, exponent, out=out.real)
    np.ldexp(x.imag, exponent, out=out.imag)
    return out


def _magnitude(x: np.ndarray) -> np.ndarray:
    """|x| for real x, the larger of |Re|, |Im| for complex x."""
    if not np.iscomplexobj(x):
        return np.abs(x)
    return np.maximum(np.abs(x.real), np.abs(x.imag))


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = mantissa * 2**exponent, the larger of |Re|, |Im| of the mantissa in [0.5, 1).

    Zero splits into a zero mantissa and exponent 0.
    """
    if not np.iscomplexobj(x):
        return np.frexp(x)
    _, exponent = np.frexp(_magnitude(x))
    return _ldexp(x, -exponent), exponent


def _row_product(block: np.ndarray) -> np.ndarray:
    """Product over the rows, in row order at any width (a lone column goes in twice)."""
    wide = np.repeat(block, 2, axis=1) if block.shape[1] == 1 else block
    return wide.prod(axis=0)[: block.shape[1]]


def _fold(mantissa: np.ndarray, exponent: np.ndarray, block: np.ndarray) -> None:
    """Multiply the product over the rows of ``block`` into a running product.

    ``mantissa`` and ``exponent`` hold the running product per time point and
    are updated in place; the mantissa is left with its larger component in
    [0.5, 1).  Every factor in ``block`` has modulus at most 1, so a block
    product above _FLOOR had only normal partial products and carries the
    significands a per-element split would give.  Points below _FLOOR, or at
    0, are recomputed from split factors, unless the running product is
    already exactly 0 and stays so.
    """
    fold = _row_product(block)
    fold *= mantissa
    magnitude = _magnitude(fold)
    low = np.flatnonzero(magnitude < _FLOOR)
    if low.size:
        low = low[mantissa[low] != 0]
        parts, part_exponents = _split(block.take(low, axis=1))
        fold[low] = _row_product(parts) * mantissa[low]
        exponent[low] += part_exponents.sum(axis=0)
        magnitude[low] = _magnitude(fold[low])
    _, carry = np.frexp(magnitude)
    _ldexp(fold, -carry, out=mantissa)
    exponent += carry


def _even_step(times: np.ndarray) -> float | None:
    """Spacing h of an evenly spaced grid, or None for any other grid.

    The grid is evenly spaced when every t_k lies within 2 ulp(max |t|) of
    t_0 + k h, with h = (t_last - t_0) / (T - 1).  A span beyond the double
    range gives a non-finite h and counts as uneven.
    """
    if times.size < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        step = (times[-1] - times[0]) / (times.size - 1)
        if not np.isfinite(step):
            return None
        slack = 2.0 * np.spacing(max(abs(times[0]), abs(times[-1])))
        grid = np.arange(times.size) * step + times[0]
        return float(step) if np.all(np.abs(times - grid) <= slack) else None


def _scratch(dtype=float):
    """``take(rows, cols)``: a C-contiguous view of one buffer, reallocated only to grow."""
    store = [np.empty(0, dtype)]

    def take(rows, cols):
        if store[0].size < rows * cols:
            store[0] = np.empty(rows * cols, dtype)
        return store[0][: rows * cols].reshape(rows, cols)

    return take


def _site_products(
    factors, couplings: np.ndarray, times: np.ndarray, bound: np.ndarray, columns
) -> list[np.ndarray]:
    """Products over all sites of each factor that ``factors`` builds.

    ``bound`` bounds the modulus of every factor of each site.  The kernel
    divides that site's entries of ``columns`` by the least power of two at or
    above it, and ``factors(cos, sin, *scaled)`` gets cos and sin of g t over
    a tile of sites and times with those sites' scaled coefficients as
    (sites, 1) columns.  It returns a tuple of (sites, times) arrays, real or
    complex, and the result holds one array over ``times`` per entry.  Each
    running product keeps a mantissa and an integer exponent per time point
    and is renormalized after every site block by ``_fold``, which splits
    factors one by one only at points whose block product left the normal
    range; the only rounding to the double range is the final ldexp.

    A tile spans at most _TILE_TIMES times and _TILE_ELEMENTS elements, so
    1024 times take blocks of 16 sites and a scalar time blocks of
    _TILE_SITES.  On an evenly spaced grid the rotation e^(i g t) is built by
    angle addition: each run of b = isqrt(cols) points takes one coarse
    rotation at its first, actual time and one fine rotation g p h per offset
    p, and t_(qb+p) gets their product.  On any other grid b = 1 and cos, sin
    are taken of every g t directly.  Points at or below _DROP in every product
    after a block are certainly 0: later tiles span only the window between a
    chunk's first and last other points, each element computed as before.
    """
    fraction, powers = np.frexp(bound)
    powers -= fraction == 0.5
    columns = [np.ldexp(column, -powers)[:, None] for column in columns]
    scale = int(powers.sum())
    cols = max(1, min(times.size, _TILE_TIMES))
    rows = min(_TILE_SITES, _TILE_ELEMENTS // cols)
    step = _even_step(times)
    run = 1 if step is None else math.isqrt(cols)
    offsets = np.arange(run) * (step or 0.0)
    coarse, fine, rotation = _scratch(complex), _scratch(complex), _scratch(complex)
    results = None
    for c in range(0, max(times.size, 1), cols):
        t = times[c : c + cols]
        lo, hi = 0, t.size
        running = None
        for first_site in range(0, couplings.size, rows):
            sites = slice(first_site, first_site + rows)
            g = couplings[sites, None]
            if run > 1:
                first = lo - lo % run  # the first time of the run that holds lo
                rot_c, rot_f = coarse(g.size, -(-(hi - first) // run)), fine(g.size, run)
                for out, x in ((rot_c, t[first:hi:run]), (rot_f, offsets)):
                    np.cos(np.multiply(g, x, out=out.imag), out=out.real)
                    np.sin(out.imag, out=out.imag)
                rot = rotation(g.size, rot_c.shape[1] * run)
                np.multiply(rot_c[:, :, None], rot_f[:, None, :], out=rot.reshape(g.size, -1, run))
                cos, sin = rot.real[:, lo - first : hi - first], rot.imag[:, lo - first : hi - first]
            else:
                angle = g * t[lo:hi]
                cos, sin = np.cos(angle), np.sin(angle)
            blocks = factors(cos, sin, *(column[sites] for column in columns))
            if running is None:
                running = [
                    (np.ones(t.size, b.dtype), np.full(t.size, scale, np.int64)) for b in blocks
                ]
            for (mantissa, exponent), block in zip(running, blocks):
                _fold(mantissa[lo:hi], exponent[lo:hi], block)
            if lo < hi and min(max(e[i] for _, e in running) for i in (lo, hi - 1)) > _DROP:
                continue  # both ends live: the window stays
            live = lo + np.flatnonzero(np.any([e[lo:hi] > _DROP for _, e in running], axis=0))
            if not live.size:
                break
            # numpy multiplies a 1-element array in place on a scalar path that
            # rounds complex products apart from its vector path: keep 2 points.
            lo, hi = min(live[0], max(lo, live[-1] - 1)), max(live[-1] + 1, min(hi, live[0] + 2))
        if results is None:
            results = [np.empty(times.size, mantissa.dtype) for mantissa, _ in running]
        for (mantissa, exponent), result in zip(running, results):
            out = _ldexp(mantissa, exponent, out=result[c : c + cols])
            # Adding 0 turns a negative number that underflowed to -0.0 into +0.0.
            out += 0
    return results


def _expectation_products(
    model: SpinBathModel, obs: RelevantObservable, times: np.ndarray
) -> list[np.ndarray]:
    """gamma0 at +t, gamma0 at -t and gamma1, from one rotation per tile.

    With cross = conj(alpha) beta eps_ud, the per-site factors are

        gamma0(+-t):  |alpha|^2 eps_uu + |beta|^2 eps_dd + 2 Re(cross e^(-+i g t)),
        gamma1(t):    |alpha|^2 eps_uu e^(i g t) + |beta|^2 eps_dd e^(-i g t) + 2 Re(cross).
    """
    _check_sizes(model, obs)
    w_up, w_down = _site_weights(model)
    up = w_up * obs.site_parts[:, 0, 0].real
    down = w_down * obs.site_parts[:, 1, 1].real
    static, up_minus_down = up + down, up - down
    cross = np.conj(model.alphas) * model.betas * obs.site_parts[:, 0, 1]
    cross_re, cross_im = 2.0 * cross.real, 2.0 * cross.imag
    columns = static, cross_re, cross_im, up_minus_down
    # The summed moduli bound the modulus of all three factors.
    bound = sum(np.abs(c) for c in columns)

    takes = _scratch(), _scratch(), _scratch(), _scratch(complex)

    def factors(cos, sin, static, cross_re, cross_im, up_minus_down):
        even, odd, minus, g1 = (take(*cos.shape) for take in takes)
        np.add(static, np.multiply(cross_re, cos, out=even), out=even)
        np.multiply(cross_im, sin, out=odd)
        np.subtract(even, odd, out=minus)
        np.add(np.multiply(static, cos, out=g1.real), cross_re, out=g1.real)
        np.multiply(up_minus_down, sin, out=g1.imag)
        return np.add(even, odd, out=even), minus, g1

    return _site_products(factors, model.couplings, times, bound, columns)


def expectation(model: SpinBathModel, obs: RelevantObservable, t):
    """Exact expectation value of a product observable in the evolved state.

    The two population weights see the bath rotated in opposite senses, so the
    population product enters once at +t and once at -t:

        |a|^2 s00 gamma0(+t) + |b|^2 s11 gamma0(-t)
            + 2 Re(a conj(b) s10 gamma1(t)).

    Matches the brute-force dense evaluation to machine precision.
    """
    times, scalar = _as_times(t)
    out, minus, coherence = _expectation_products(model, obs, times)
    s00 = obs.system_part[0, 0].real
    s11 = obs.system_part[1, 1].real
    s10 = obs.system_part[1, 0]
    a, b = complex(model.a), complex(model.b)
    w_a = a.real**2 + a.imag**2
    w_b = b.real**2 + b.imag**2
    weight = 2.0 * a * np.conj(b) * s10
    # Combined in place in the product arrays: no T-length temporaries.
    out *= w_a * s00
    out += np.multiply(minus, w_b * s11, out=minus)
    re, im = coherence.real, coherence.imag
    re *= weight.real
    re -= np.multiply(im, weight.imag, out=im)
    out += re
    return float(out[0]) if scalar else out


def overlap_r(model: SpinBathModel, t):
    """Overlap of the two bath branches:  prod_i (|alpha_i|^2 e^(i g_i t) + |beta_i|^2 e^(-i g_i t)).

    Its modulus controls how much central-qubit coherence survives at time t.
    Satisfies overlap_r(-t) == conj(overlap_r(t)).
    """
    times, scalar = _as_times(t)
    w_up, w_down = _site_weights(model)
    w_sum = w_up + w_down

    take = _scratch(complex)

    def factors(cos, sin, w_sum, w_diff):
        f = take(*cos.shape)
        np.multiply(w_sum, cos, out=f.real)
        np.multiply(w_diff, sin, out=f.imag)
        return (f,)

    out = _site_products(factors, model.couplings, times, w_sum, (w_sum, w_up - w_down))[0]
    return complex(out[0]) if scalar else out


def _product(values: np.ndarray) -> float:
    """prod(values), one site per value, with no intermediate underflow or overflow."""
    return float(
        _site_products(
            lambda cos, sin, v: (v,), np.zeros(values.size), np.zeros(1), np.abs(values), (values,)
        )[0][0]
    )


def r_squared_bounds(model: SpinBathModel) -> tuple[float, float]:
    """Envelope of |overlap_r|^2 over all times.

    Each squared site factor oscillates between (2|alpha|^2 - 1)^2 and 1, so
    the product is bracketed by (prod_i (2|alpha_i|^2 - 1)^2, 1).
    """
    w_up, _ = _site_weights(model)
    return _product((2.0 * w_up - 1.0) ** 2), 1.0


def reduced_system_state(model: SpinBathModel, t: float) -> ReducedState:
    """State of the central qubit at time ``t`` after tracing out the bath.

    Populations are frozen at |a|^2, |b|^2; the coherence is the initial one
    scaled by the bath-branch overlap of the normalized site states:
    rho_01 = a conj(b) overlap_r(t) / prod_i (|alpha_i|^2 + |beta_i|^2).
    Without that division the site norms, each within NORM_TOL of 1, would
    push |rho_01| past the populations' bound as N grows.  The convention
    matches the dense partial trace entrywise, up to the site norms that the
    dense state keeps.
    """
    w_up, w_down = _site_weights(model)
    r = overlap_r(model, float(t)) / _product(w_up + w_down)
    a, b = complex(model.a), complex(model.b)
    coherence = a * np.conj(b) * r
    matrix = np.array(
        [
            [a.real**2 + a.imag**2, coherence],
            [np.conj(coherence), b.real**2 + b.imag**2],
        ],
        dtype=complex,
    )
    return ReducedState(matrix=matrix)
