"""Closed-form evaluators for the dephasing model, O(N) per time point.

Because the coupling Hamiltonian is diagonal in the up/down product basis,
every product-form observable has an expectation value that factorizes into
one 2x2 contraction per site.  This module evaluates those per-site factors
and multiplies them with one separate-exponent product: each factor is split
into a mantissa and a power of two, mantissas are multiplied in site blocks
and the exponent is carried as an integer, so a product is a correctly scaled
double however many sites it spans.  Results underflow gradually the way
IEEE doubles do: subnormal where the true value is, exactly 0 only below
2^-1074.  Factors are built one tile of sites x times at a time, so a call
holds O(N + T) memory, never an (N, T) matrix.

Every public function accepts a scalar time or a 1-D array of times and
returns a matching scalar or array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RelevantObservable, SpinBathModel, _check_hermitian

# Factors are built and multiplied in tiles of at most _TILE_ELEMENTS
# (sites x times) and at most _TILE_SITES sites.  Every mantissa has its larger
# component in [0.5, 1), so a product of _TILE_SITES of them stays above
# 2^-1000, still a normal double, until the running product is renormalized.
_TILE_ELEMENTS = 2**12
_TILE_SITES = 1000


@dataclass(frozen=True)
class ReducedState:
    """2x2 state of the central qubit after tracing out the bath."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError("reduced state must be 2x2")
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

    @property
    def rho00(self) -> float:
        return float(self.matrix[0, 0].real)

    @property
    def rho01(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def rho10(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def rho11(self) -> float:
        return float(self.matrix[1, 1].real)


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


def _ldexp(x: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """x * 2**exponent for real or complex x, rounded once."""
    if not np.iscomplexobj(x):
        return np.ldexp(x, exponent)
    out = np.empty_like(x)
    np.ldexp(x.real, exponent, out=out.real)
    np.ldexp(x.imag, exponent, out=out.imag)
    return out


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = mantissa * 2**exponent, the larger of |Re|, |Im| of the mantissa in [0.5, 1).

    Zero splits into a zero mantissa and exponent 0.
    """
    if not np.iscomplexobj(x):
        return np.frexp(x)
    _, exponent = np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)))
    return _ldexp(x, -exponent), exponent


def _site_products(factors, n_sites: int, times: np.ndarray) -> list[np.ndarray]:
    """Products over all sites of each factor that ``factors`` builds.

    ``factors(sites, t)`` returns a tuple of (sites, times) arrays, real or
    complex, for a slice of sites and a chunk of times; the result holds one
    array over ``times`` per tuple entry.  Each running product keeps a
    mantissa and an integer exponent per time point and is renormalized
    after every site block; the only rounding to the double range is the
    final ldexp.
    """
    cols = max(1, min(times.size, _TILE_ELEMENTS))
    rows = min(_TILE_SITES, _TILE_ELEMENTS // cols)
    chunks = []
    for c in range(0, max(times.size, 1), cols):
        t = times[c : c + cols]
        running = None
        for lo in range(0, n_sites, rows):
            blocks = factors(slice(lo, lo + rows), t)
            if running is None:
                running = [(np.ones(t.size, b.dtype), np.zeros(t.size, np.int64)) for b in blocks]
            for (mantissa, exponent), block in zip(running, blocks):
                block_mantissa, block_exponent = _split(block)
                mantissa *= block_mantissa.prod(axis=0)
                mantissa[:], carry = _split(mantissa)
                exponent += block_exponent.sum(axis=0)
                exponent += carry
        # Adding 0 turns a negative number that underflowed to -0.0 into +0.0.
        chunks.append([_ldexp(mantissa, exponent) + 0 for mantissa, exponent in running])
    return [np.concatenate(parts) for parts in zip(*chunks)]


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
    static, up_minus_down = (up + down)[:, None], (up - down)[:, None]
    cross = np.conj(model.alphas) * model.betas * obs.site_parts[:, 0, 1]
    cross_re, cross_im = 2.0 * cross.real[:, None], 2.0 * cross.imag[:, None]

    def factors(sites, t):
        phase = np.outer(model.couplings[sites], t)
        cos, sin = np.cos(phase), np.sin(phase)
        even = static[sites] + cross_re[sites] * cos
        odd = cross_im[sites] * sin
        g1 = np.empty(phase.shape, complex)
        g1.real = static[sites] * cos + cross_re[sites]
        g1.imag = up_minus_down[sites] * sin
        return even + odd, even - odd, g1

    return _site_products(factors, model.n_sites, times)


def gamma0(model: SpinBathModel, obs: RelevantObservable, t):
    """Population-sector product: for each site,

        |alpha|^2 eps_uu + |beta|^2 eps_dd + 2 Re(conj(alpha) beta eps_ud e^(-i g t)),

    multiplied over all sites.  Real by construction.
    """
    times, scalar = _as_times(t)
    out = _expectation_products(model, obs, times)[0]
    return float(out[0]) if scalar else out


def gamma1(model: SpinBathModel, obs: RelevantObservable, t):
    """Coherence-sector product: for each site,

        |alpha|^2 eps_uu e^(i g t) + |beta|^2 eps_dd e^(-i g t)
            + 2 Re(conj(alpha) beta eps_ud),

    multiplied over all sites.
    """
    times, scalar = _as_times(t)
    out = _expectation_products(model, obs, times)[2]
    return complex(out[0]) if scalar else out


def expectation(model: SpinBathModel, obs: RelevantObservable, t):
    """Exact expectation value of a product observable in the evolved state.

    The two population weights see the bath rotated in opposite senses, so the
    population product enters once at +t and once at -t:

        |a|^2 s00 gamma0(+t) + |b|^2 s11 gamma0(-t)
            + 2 Re(a conj(b) s10 gamma1(t)).

    Matches the brute-force dense evaluation to machine precision.
    """
    times, scalar = _as_times(t)
    plus, minus, coherence = _expectation_products(model, obs, times)
    s00 = obs.system_part[0, 0].real
    s11 = obs.system_part[1, 1].real
    s10 = obs.system_part[1, 0]
    a, b = complex(model.a), complex(model.b)
    w_a = a.real**2 + a.imag**2
    w_b = b.real**2 + b.imag**2
    out = w_a * s00 * plus + w_b * s11 * minus + 2.0 * np.real(a * np.conj(b) * s10 * coherence)
    return float(out[0]) if scalar else out


def overlap_r(model: SpinBathModel, t):
    """Overlap of the two bath branches:  prod_i (|alpha_i|^2 e^(i g_i t) + |beta_i|^2 e^(-i g_i t)).

    Its modulus controls how much central-qubit coherence survives at time t.
    Satisfies overlap_r(-t) == conj(overlap_r(t)).
    """
    times, scalar = _as_times(t)
    w_up, w_down = _site_weights(model)
    w_sum, w_diff = (w_up + w_down)[:, None], (w_up - w_down)[:, None]

    def factors(sites, t):
        phase = np.outer(model.couplings[sites], t)
        f = np.empty(phase.shape, complex)
        f.real = w_sum[sites] * np.cos(phase)
        f.imag = w_diff[sites] * np.sin(phase)
        return (f,)

    out = _site_products(factors, model.n_sites, times)[0]
    return complex(out[0]) if scalar else out


def r_squared_bounds(model: SpinBathModel) -> tuple[float, float]:
    """Envelope of |overlap_r|^2 over all times.

    Each squared site factor oscillates between (2|alpha|^2 - 1)^2 and 1, so
    the product is bracketed by (prod_i (2|alpha_i|^2 - 1)^2, 1).
    """
    w_up, _ = _site_weights(model)
    per_site = ((2.0 * w_up - 1.0) ** 2)[:, None]
    lower = _site_products(lambda sites, t: (per_site[sites],), model.n_sites, np.zeros(1))
    return float(lower[0][0]), 1.0


def single_spin_expectation(model: SpinBathModel, j: int, eps, t):
    """Expectation of a probe acting on environment spin ``j`` alone.

    Evaluated directly from the two site-j contractions, one per central-qubit
    branch (no product over the other sites):

        |a|^2 f_j(+t) + |b|^2 f_j(-t),
        f_j(t) = |alpha_j|^2 eps_uu + |beta_j|^2 eps_dd
                   + 2 Re(conj(alpha_j) beta_j eps_ud e^(-i g_j t)).

    Periodic with period 2 pi / g_j: the generic environment spin oscillates
    forever and never settles.
    """
    alpha, beta, g = model.site(j)
    eps = _check_hermitian(eps, "site part")
    times, scalar = _as_times(t)
    w_up = alpha.real**2 + alpha.imag**2
    w_down = beta.real**2 + beta.imag**2
    static = w_up * eps[0, 0].real + w_down * eps[1, 1].real
    cross = np.conj(alpha) * beta * eps[0, 1]
    f_plus = static + 2.0 * np.real(cross * np.exp(-1j * g * times))
    f_minus = static + 2.0 * np.real(cross * np.exp(1j * g * times))
    a, b = complex(model.a), complex(model.b)
    out = (a.real**2 + a.imag**2) * f_plus + (b.real**2 + b.imag**2) * f_minus
    return float(out[0]) if scalar else out


def reduced_system_state(model: SpinBathModel, t: float) -> ReducedState:
    """State of the central qubit at time ``t`` after tracing out the bath.

    Populations are frozen at |a|^2, |b|^2; the coherence is the initial one
    scaled by the bath-branch overlap:  rho01 = a conj(b) overlap_r(t).
    The convention matches the dense partial trace entrywise.
    """
    r = overlap_r(model, float(t))
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
