"""Closed-form evaluators for the dephasing model, O(N) per time point.

Because the coupling Hamiltonian is diagonal in the up/down product basis,
every product-form observable has an expectation value that factorizes into
one 2x2 contraction per site.  This module evaluates those per-site factors
and multiplies them with one separate-exponent product, ``_site_products``;
every per-site product in the package goes through it, plain products of
per-site numbers too (``_product``).  Callers pass each site's raw
coefficients and moduli whose sum bounds its factors.  The kernel divides
each site's coefficients by 2^e, the least power of two at or above that sum
(found without overflow, so e may exceed 1023), so every factor has modulus
at most 1 and the integer sum of the e is carried apart.  Factors are
multiplied in site blocks into a running mantissa that is renormalized after
every block, its power of two carried as an integer, so a product is a
correctly scaled double however many sites it spans.  A
power-of-two scale is exact and a partial product within a block can only
shrink, so a block product that stays above 2^-960 is exactly what
multiplying frexp mantissas would give, whichever bound scaled it.  The few
time points whose block product falls below that floor, or to 0, are
recomputed from factors split one by one into mantissa and exponent.
Results underflow gradually the way IEEE doubles do: subnormal where the
true value is, exactly 0 only below 2^-1074, and a point certainly below
2^-1075 after a block is not multiplied further.  The loop is site-major:
within each chunk of up to 4096 times, every site block (32 sites on a long
grid) builds what depends on its sites alone once, then sweeps the chunk's
live times in tiles of at most 2^15 site-times per product (32 sites x 1024
times), so a call holds O(N + T) memory, never an (N, T) matrix.  Which
factors meet at a time point is fixed by the run geometry below and the site
blocks; the chunk and tile widths set memory and speed and move no byte.
``overlap_r`` takes a row range: it multiplies only the chunks and live
windows that hold the selected times, in the whole grid's run geometry, so
each selected row has the bytes of the full call.

Every per-site factor is f = a + b cos(g t) + c sin(g t): callers give the
coefficients (a, b, c).  On an evenly spaced grid (every t_k within
2 ulp(max |t|) of t_0 + k h, as np.linspace gives), runs of L = isqrt(tile
width) points share a coarse angle alpha = g t at the run's first, actual
time, the offset p in a run has a fine angle beta = g p h, and by angle
addition f = a + P cos beta + Q sin beta with P = b cos alpha + c sin alpha,
Q = c cos alpha - b sin alpha.  Per site, [1, cos alpha, sin alpha] times the
rotated coefficients is [a, P, Q], and that times [1, cos beta, sin beta] is
the tile: two matrix products and 32 cos/sin pairs per site for 1024 times,
plus the run's 32 fine pairs once per site and chunk, or only the pairs a
live window inside one run spans.  The phase moves by at
most about |g| 4 ulp(max |t|), the order of the rounding of g t itself.
Other grids and scalar times take L = 1 and beta = 0, so f = a + P is
[1, cos g t, sin g t] times [a, b, c]: the coarse stage alone is the tile.
The products go through BLAS, so the bytes depend on its kernels (fused
multiply-add or not) and numpy's SIMD level; values agree to a few ulp.

Every public function accepts a scalar time or a 1-D array of times and
returns a matching scalar or array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import RelevantObservable, SpinBathModel, _Checked, _check_hermitian

# Factors are folded in site blocks of at most _TILE_SITES sites and
# _TILE_ELEMENTS // min(T, _TILE_TIMES) sites: a product of _TILE_SITES split
# mantissas, each with its larger component in [0.5, 1), stays above 2^-1000,
# still a normal double.  The blocks fix which factors meet, so these three
# constants fix the output bytes.  Medians of 10 alternating rounds on a shared
# 2-core x86-64 machine, numpy 2.4, OpenBLAS Haswell kernels, with tiles of
# 1024 times (_PIECE_ELEMENTS set alike): overlap_r at N = 10^4, T = 2000;
# expectation at N = 48, T = 2e5; overlap_r at N = 30, 300, 3000 and 10^4,
# T = 400; and the traced peaks of _expectation_products at N = 48, T = 2e5
# (6.1 MiB of it the results) and of overlap_r at N = 10^4, T = 2000.
#
#   elements  times x sites  overlap  expectation  T = 400  peak      overlap peak
#   2^14      1024 x 16      0.118 s  0.142 s      0.051 s  6.63 MiB  1.17 MiB
#   2^15      1024 x 32      0.102 s  0.092 s      0.035 s  7.00 MiB  1.51 MiB
#   2^16      1024 x 64      0.084 s  0.094 s      0.031 s  7.68 MiB  2.20 MiB
# 2^16 buys up to 18% for 0.7 MiB more, and it moves output bytes.
_TILE_ELEMENTS = 2**15
_TILE_TIMES = 1024
_TILE_SITES = 1000
# Each site block sweeps a chunk of up to _CHUNK_TIMES times, whose running
# products it keeps, in tiles of up to _PIECE_ELEMENTS site-times of each
# product; all products share one tile buffer.  Both only set memory and
# speed.  Tiles of 2048 times for expectation's three products, the bytes of
# three tiles of 1024, raise its traced peak at N = 48, T = 2e5 from 7.00 to
# 7.66 MiB for 5-10% less time.
_PIECE_ELEMENTS = 2**15
_CHUNK_TIMES = 4096
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
class ReducedState(_Checked):
    """2x2 state of the central qubit after tracing out the bath."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _check_hermitian(self.matrix, "reduced state")
        if abs(np.trace(mat) - 1.0) > 1e-12:
            raise ValueError("reduced state must have unit trace")
        # Smaller eigenvalue of a 2x2 Hermitian matrix with unit trace.
        det = (mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]).real
        disc = max(1.0 - 4.0 * det, 0.0)
        if 0.5 * (1.0 - np.sqrt(disc)) < -1e-12:
            raise ValueError("reduced state must be positive semidefinite")
        self._store(matrix=mat)


def _as_times(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {arr.shape}")
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
    fold = np.multiply(_row_product(block), mantissa)
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
        # One reused temporary: the check grid becomes |grid - times| in place.
        grid = np.arange(times.size, dtype=float)
        grid *= step
        grid += times[0]
        grid -= times
        np.abs(grid, out=grid)
        return float(step) if np.all(grid <= slack) else None


def _live_window(exponents: list[np.ndarray], lo: int, hi: int) -> tuple[int, int]:
    """The narrowest part of [lo, hi) that holds every point some product keeps above _DROP."""
    if min(max(e[i] for e in exponents) for i in (lo, hi - 1)) > _DROP:
        return lo, hi  # both ends live: the window stays
    live = lo + np.flatnonzero(np.any([e[lo:hi] > _DROP for e in exponents], axis=0))
    return (int(live[0]), int(live[-1]) + 1) if live.size else (lo, lo)


def _site_products(
    couplings: np.ndarray, times: np.ndarray, moduli: np.ndarray, coefficients, rows: slice = slice(None)
) -> list[np.ndarray]:
    """Products over all sites of a + b cos(g t) + c sin(g t), one per triple.

    ``coefficients`` holds one (a, b, c) triple per product, each a per-site
    array or a scalar; a product is complex where any of them is.  ``moduli``
    holds one or more rows of per-site moduli whose sum bounds every factor of
    a site, whose coefficients are divided by the least power of two at or
    above that sum, which may lie beyond the double range.  Each running
    product keeps its mantissa in the result array itself and an integer
    exponent per time point, renormalized by ``_fold`` after every site block;
    the only rounding to the double range is the final ldexp.  ``rows``, a
    slice of step 1, selects the times whose products are computed and
    returned; a step other than 1 raises ValueError.

    The loop is site-major within each chunk of _CHUNK_TIMES times.  Site
    blocks of ``height`` sites (32 for 1024 or more times) are the outer loop:
    a block's rotated coefficients and fine stage are built once, then one
    tile loop sweeps the chunk's live window in pieces of whole runs, batched
    over the block's sites.  Each piece takes one coarse-stage product for all
    products ([1, cos, sin] times the scaled [a, b, c], the tile itself, where
    beta = 0), then per product its fine-stage product on runs and its fold.
    The angle stack has at least two rows: BLAS multiplies a one-row matrix on
    a path that rounds apart.  Points at or below _DROP in every product after
    a block are certainly 0, so later blocks span only the live window, and a
    window inside one run builds its fine stage only for the offsets it spans
    (at least two, for the same reason).  A chunk's window starts as the
    selected rows within it, and chunks without any are skipped.  A point's
    factors depend only on the run geometry (runs of isqrt(min(T,
    _TILE_TIMES)) times from the first time of the whole grid, selected or
    not) and the fold partition, so chunk, piece, window and row range move
    no byte of the points they hold.  Buffers are allocated
    once per call, for a block's widest piece, and later pieces and the last,
    shorter block take views of their heads.  Times whose phase error,
    4 ulp(max |t|) max |g|, is not below 1 radian raise ValueError.
    """
    first_row, last_row, stride = rows.indices(times.size)
    if stride != 1:
        raise ValueError(f"rows must be a slice of consecutive times, got step {stride}")
    last_row = max(first_row, last_row)
    span = float(np.abs([times.min(initial=0.0), times.max(initial=0.0)]).max())  # NaN if any t is
    blur = 4.0 * float(np.spacing(span)) * float(np.abs(couplings).max(initial=0.0))
    if not blur < 1.0:  # a NaN or infinite time is refused too
        raise ValueError(f"times up to {span:.3g} leave the phases g t unresolved by {blur:.3g} rad")
    # Summed at the power of two of each site's largest modulus, the moduli
    # cannot overflow, and they round as they would unscaled.
    moduli = np.atleast_2d(moduli)
    top = np.frexp(moduli.max(axis=0))[1]
    fraction, powers = np.frexp(np.ldexp(moduli, -top).sum(axis=0))
    powers += top - (fraction == 0.5)
    del moduli, top, fraction  # (N,) arrays that the loop below does not need
    scale = int(powers.sum())
    widths = [1 + (np.result_type(*triple).kind == "c") for triple in coefficients]
    *starts, parts = itertools.accumulate([0, *widths])  # each product's first part, and all
    dtypes = [complex if w > 1 else float for w in widths]
    # (sites, 3, parts): a, b, c over the bound; a complex product has a (re, im) pair of parts.
    scaled = np.empty((couplings.size, 3, parts))
    for triple, j, w, d in zip(coefficients, starts, widths, dtypes):
        part = scaled[:, :, j : j + w].view(d)[..., 0]
        for i, x in enumerate(triple):
            part[:, i] = x
    np.ldexp(scaled, -powers[:, None, None], out=scaled)
    cols = max(1, min(times.size, _TILE_TIMES))
    height = min(_TILE_SITES, _TILE_ELEMENTS // cols, couplings.size)
    step = _even_step(times)
    run = 1 if step is None else math.isqrt(cols)
    piece = max(1, _PIECE_ELEMENTS // (height * run)) * run
    chunk = max(1, _CHUNK_TIMES // run) * run
    # Runs in the widest piece; a lone run goes in twice.
    widest = max(2, -(-min(piece, chunk, times.size) // run))
    # Each product's columns of the coarse stage: its factor where beta = 0, else its [a, P, Q].
    per_part = 1 if run == 1 else 3
    spans = [slice(per_part * j, per_part * (j + w)) for j, w in zip(starts, widths)]
    angle_store = np.empty(height * 3 * widest)
    coarse_store = np.empty(height * widest * per_part * parts)
    if run > 1:
        offsets = np.arange(run) * step
        rotation = np.zeros((height, 3, parts, 3))
        tile_store = np.empty(height * widest * run * max(widths))
        # The fine stage keeps each site's cos and sin offsets contiguous; BLAS gets transposed views.
        fine, pair = np.ones((3, height, run)), np.zeros((height, 2, 3, run, 2))
    results = [np.empty(last_row - first_row, d) for d in dtypes]
    exponents = [np.empty(min(last_row - first_row, chunk), np.int64) for _ in dtypes]
    for start in range(first_row - first_row % chunk, last_row, chunk):
        # Times [base, end) of this chunk are selected; every index below is into ``times``.
        base, end = max(start, first_row), min(start + chunk, last_row)
        mantissas = [result[base - first_row : end - first_row] for result in results]
        running = [exponent[: end - base] for exponent in exponents]
        for mantissa, exponent in zip(mantissas, running):
            mantissa.fill(1.0)
            exponent.fill(scale)
        lo, hi = base, end
        for site in range(0, couplings.size, height):
            if lo == hi:
                break
            first = lo - lo % run  # the first time of the run that holds lo
            sites = slice(site, site + height)
            g = couplings[sites, None]
            n = g.size
            right = scaled[sites]  # beta = 0: the rotated coefficients times [1, 1, 0] are [a, b, c]
            skip, width = 0, run  # the fine stage's first offset and its count
            if run > 1:
                a, b, c = right.transpose(1, 0, 2)
                rotation[:n, 0, :, 0], rotation[:n, 1, :, 1] = a, b
                rotation[:n, 2, :, 1] = rotation[:n, 1, :, 2] = c
                np.negative(b, out=rotation[:n, 2, :, 2])
                right = rotation[:n].reshape(n, 3, -1)
                if hi - first <= run:
                    # A window inside one run takes only the offsets it spans, at least two:
                    # BLAS multiplies a one-column matrix on a path that rounds apart.
                    skip = min(lo - first, run - 2)
                    width = max(hi - first - skip, 2)
                beta = np.multiply(g, offsets[skip : skip + width], out=fine[1, :n, :width])
                np.sin(beta, out=fine[2, :n, :width])
                np.cos(beta, out=beta)
                fine_stack = fine[:, :n, :width].transpose(1, 0, 2)
                pair[:n, 0, :, :width, 0] = pair[:n, 1, :, :width, 1] = fine_stack
                # A complex product's block-diagonal pair interleaves its (re, im) parts.
                fines = [(fine_stack, pair[:n, :, :, :width].reshape(n, 6, -1))[w - 1] for w in widths]
            for p in range(first, hi, piece):
                stop = min(p + piece, hi)
                origins = times[p:stop:run]
                count = 2 if origins.size == 1 else origins.size  # a lone run goes in twice
                angles = angle_store[: 3 * n * count].reshape(3, n, count)
                angles[0] = 1.0
                alpha = np.multiply(g, origins, out=angles[1])
                np.sin(alpha, out=angles[2])
                np.cos(alpha, out=alpha)
                coarse = coarse_store[: n * count * right.shape[2]].reshape(n, count, -1)
                np.matmul(angles.transpose(1, 2, 0), right, out=coarse)
                begin = max(lo, p)
                for i, (mantissa, exponent, d) in enumerate(zip(mantissas, running, dtypes)):
                    tile = coarse[..., spans[i]]
                    if run > 1:
                        out = tile_store[: n * count * fines[i].shape[2]].reshape(n, count, -1)
                        tile = np.matmul(tile, fines[i], out=out)
                    tile = tile.view(d).reshape(n, -1)
                    points = slice(begin - base, stop - base)
                    _fold(mantissa[points], exponent[points], tile[:, begin - p - skip : stop - p - skip])
            lo, hi = (base + k for k in _live_window(running, lo - base, hi - base))
        for mantissa, exponent in zip(mantissas, running):
            _ldexp(mantissa, exponent, out=mantissa)
            # Adding 0 turns a negative number that underflowed to -0.0 into +0.0.
            mantissa += 0
    return results


def _expectation_products(
    model: SpinBathModel, obs: RelevantObservable, times: np.ndarray
) -> list[np.ndarray]:
    """gamma0 at +t, gamma0 at -t and gamma1 from one kernel call.

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
    coefficients = (
        (static, cross_re, cross_im),
        (static, cross_re, -cross_im),
        (cross_re, static, 1j * up_minus_down),
    )
    # The summed moduli bound the modulus of all three factors.  Unnamed
    # here, they are freed once the kernel has its powers of two.
    return _site_products(
        model.couplings, times, np.abs([static, cross_re, cross_im, up_minus_down]), coefficients
    )


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


def _overlap_coefficients(model: SpinBathModel):
    """Bound and (a, b, c) of each site's factor |alpha|^2 e^(i g t) + |beta|^2 e^(-i g t)."""
    w_up, w_down = _site_weights(model)
    w_sum = w_up + w_down
    return w_sum, (0, w_sum, 1j * (w_up - w_down))


def overlap_r(model: SpinBathModel, t, *, rows: slice = slice(None)):
    """Overlap of the two bath branches:  prod_i (|alpha_i|^2 e^(i g_i t) + |beta_i|^2 e^(-i g_i t)).

    Its modulus controls how much central-qubit coherence survives at time t.
    Satisfies overlap_r(-t) == conj(overlap_r(t)).  ``rows``, a slice of
    consecutive times of an array ``t``, returns only those rows, each with
    the bytes of ``overlap_r(model, t)[rows]``, and multiplies no other; a
    slice step other than 1, or ``rows`` with a scalar time, raises
    ValueError.
    """
    times, scalar = _as_times(t)
    if scalar and rows != slice(None):
        raise ValueError("rows select times of an array, not of a scalar time")
    bound, overlap = _overlap_coefficients(model)
    out = _site_products(model.couplings, times, bound, (overlap,), rows=rows)[0]
    return complex(out[0]) if scalar else out


def _product(values: np.ndarray) -> float:
    """prod(values), one site per value, with no intermediate underflow or overflow."""
    products = _site_products(np.zeros(values.size), np.zeros(1), np.abs(values), ((values, 0, 0),))
    return float(products[0][0])


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
    times, scalar = _as_times(t)
    if not scalar:
        raise ValueError(f"the reduced state takes one time, got shape {times.shape}")
    w_sum, overlap = _overlap_coefficients(model)
    r, norm = _site_products(model.couplings, times, w_sum, (overlap, (w_sum, 0, 0)))
    r = complex(r[0]) / float(norm[0])
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
