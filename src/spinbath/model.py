"""Domain types: the central-spin dephasing model and its product observables.

The closed system is one central qubit (amplitudes ``a``, ``b``) coupled to
``N`` environment spins.  Each environment spin ``i`` carries up/down
amplitudes ``alpha_i``, ``beta_i`` and a positive coupling frequency ``g_i``
(angular frequency, hbar = 1).  Sites are indexed 1..N throughout.

Observables are restricted to the product form

    (2x2 Hermitian system part) (x) (2x2 Hermitian part per site),

which is what makes the dynamics exactly evaluable in O(N) per time point.
All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Normalization: constructors reject inputs whose squared norm deviates from 1
# by more than NORM_TOL; well-formed inputs sit at machine precision.  Site
# deviations multiply into the overlap: |r(0)| <= 1 + N NORM_TOL keeps the
# reduced state's trace and eigenvalue checks (1e-12) up to N = 24, the dense
# oracle's default cap, and the dense norm check (1e-10) for any N it can hold.
NORM_TOL = 5e-14
HERMITICITY_TOL = 1e-12

IDENTITY_2 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)

PAULI_BY_NAME = {"id": IDENTITY_2, "sx": SIGMA_X, "sy": SIGMA_Y, "sz": SIGMA_Z}

# Sites validated, and drawn by the samplers, at a time: the temporaries stay
# small and cache-resident, and the largest chunk costs the fewest calls.
# Peak RSS of sweep-n --n-list 30,300,3000,10000 --seeds 4 --points 400 on a
# shared 2-core x86-64 machine: 37.0-37.3 MiB for chunks of 2^10 to 2^12
# sites, 37.7 MiB for 2^13, 38.2 MiB for 2^14 and 38.9 MiB unchunked.
_SITE_CHUNK = 2**12


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpinBathModel:
    """Central qubit plus N environment spins, all amplitudes normalized.

    ``alphas``, ``betas`` and ``couplings`` are parallel arrays over the
    environment sites (site ``j`` lives at array index ``j - 1``).
    """

    a: complex
    b: complex
    alphas: np.ndarray
    betas: np.ndarray
    couplings: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.alphas.shape[0]

    @property
    def mean_coupling(self) -> float:
        """Average of the site couplings; sets the natural time scale."""
        return float(np.mean(self.couplings))


@dataclass(frozen=True)
class RelevantObservable:
    """Product-form observable: one 2x2 system part, one 2x2 part per site.

    Stored matrices are Hermitian:  entry [0, 1] is the up/down coherence
    coefficient and equals the conjugate of entry [1, 0].
    """

    system_part: np.ndarray
    site_parts: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.site_parts.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """A sampled time series of one observable quantity.

    ``times`` is strictly increasing, in simulation units (hbar = 1; the mean
    coupling of the generating model sets the natural scale).  ``values`` may
    be real or complex.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("trajectory times and values must be 1-D")
        if times.shape != values.shape:
            raise ValueError("trajectory times and values must have equal length")
        if times.size < 2:
            raise ValueError("trajectory needs at least two samples")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


def make_model(a, b, sites) -> SpinBathModel:
    """Build a validated model from system amplitudes and (alpha, beta, g) triples.

    ``sites`` is a sequence of triples or an (N, 3) array of them.  Strict:
    inputs whose squared norms deviate from 1 by more than ``NORM_TOL`` are
    rejected, couplings must be real and positive, and at least one site is
    required.  The system pair is checked first, then the sites in chunks of
    ``_SITE_CHUNK``; the message names the first bad one.
    """
    if not isinstance(sites, np.ndarray):
        sites = list(sites)
    if len(sites) == 0:
        raise ValueError("model needs at least one environment site")
    try:
        table = np.asarray(sites, dtype=complex)
    except ValueError:
        table = None
    if table is None or table.ndim != 2 or table.shape[1] != 3:
        raise ValueError("every site must be an (alpha, beta, g) triple")
    a, b = complex(a), complex(b)
    _check_sites(np.array([a]), np.array([b]), np.ones(1), 0)
    for first in range(0, len(table), _SITE_CHUNK):
        rows = table[first : first + _SITE_CHUNK]
        _check_sites(rows[:, 0], rows[:, 1], rows[:, 2], first + 1)
    return SpinBathModel(
        a=a,
        b=b,
        alphas=_frozen_array(table[:, 0], complex),
        betas=_frozen_array(table[:, 1], complex),
        couplings=_frozen_array(table[:, 2].real, float),
    )


def _check_sites(x: np.ndarray, y: np.ndarray, g: np.ndarray, first: int) -> None:
    """Check rows of (amplitude, amplitude, coupling) columns; row k is site first + k.

    Site 0 is the system pair (a, b) with a stand-in coupling of 1.  The
    message names the first bad row, as ``make_model`` reports it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = np.abs(x) ** 2 + np.abs(y) ** 2
    norm_text = ("|a|^2 + |b|^2", "|alpha|^2 + |beta|^2")
    faults = (
        (~(np.isfinite(x) & np.isfinite(y)), "amplitudes must be finite"),
        (norm2 == 0.0, "amplitude pair has zero norm"),
        (
            ~(np.abs(norm2 - 1.0) <= NORM_TOL),
            lambda k: f"amplitudes not normalized: {norm_text[first + k > 0]} = {float(norm2[k])!r}",
        ),
        (g.imag != 0.0, lambda k: f"coupling must be real, got {complex(g[k])!r}"),
        (
            ~(np.isfinite(g.real) & (g.real > 0.0)),
            lambda k: f"coupling must be positive, got {float(g[k].real)!r}",
        ),
    )
    _raise_first_fault(faults, lambda k: f"site {first + k}" if first + k else "system")


def _raise_first_fault(faults, label) -> None:
    """Raise for the first index that any mask flags, naming it with ``label(k)``.

    ``faults`` pairs boolean masks over one axis with their messages (a string,
    or a function of the index), in the order a one-at-a-time check would try
    them, so the first message that applies at that index is the one raised.
    """
    bad = np.logical_or.reduce([mask for mask, _ in faults])
    if bad.any():
        k = int(np.argmax(bad))
        message = next(text for mask, text in faults if mask[k])
        raise ValueError(f"{label(k)} {message(k) if callable(message) else message}")


def _check_hermitian(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.array(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"{what} must be a 2x2 matrix")
    _check_hermitian_stack(mat[None], lambda k: what)
    return mat


def _check_hermitian_stack(mats: np.ndarray, label) -> None:
    """Entrywise Hermiticity of an (m, 2, 2) stack; ``label(k)`` names matrix k."""
    with np.errstate(over="ignore", invalid="ignore"):
        faults = (
            (~np.isfinite(mats).all(axis=(1, 2)), "entries must be finite"),
            (
                (np.abs(mats[:, 0, 0].imag) > HERMITICITY_TOL)
                | (np.abs(mats[:, 1, 1].imag) > HERMITICITY_TOL),
                "diagonal must be real",
            ),
            (
                np.abs(mats[:, 0, 1] - np.conj(mats[:, 1, 0])) > HERMITICITY_TOL,
                "off-diagonal entries must be conjugates",
            ),
        )
    _raise_first_fault(faults, label)


def make_observable(system_part, site_parts) -> RelevantObservable:
    """Validate Hermiticity entrywise and freeze a product-form observable."""
    system = _check_hermitian(system_part, "system part")
    if not isinstance(site_parts, np.ndarray):
        site_parts = list(site_parts)
    try:
        parts = np.array(site_parts, dtype=complex)
    except ValueError:
        parts = None
    if parts is None or parts.shape[1:] != (2, 2):
        # Ragged or misshapen input: check part by part, so that the message
        # names the first part that fails.
        parts = [
            _check_hermitian(p, f"site part {k + 1}") for k, p in enumerate(site_parts)
        ]
        parts = np.stack(parts) if parts else np.empty((0, 2, 2), dtype=complex)
    if len(parts) == 0:
        raise ValueError("observable needs at least one site part")
    _check_hermitian_stack(parts, lambda k: f"site part {k + 1}")
    return RelevantObservable(
        system_part=_frozen_array(system, complex),
        site_parts=_frozen_array(parts, complex),
    )


def eid_observable(s00: float, s01: complex, s11: float, n_sites: int) -> RelevantObservable:
    """System-only observable: given 2x2 system part, identity on every site.

    This is the family whose expectation decays to the diagonal mixture when
    the bath-branch overlap dies out.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    s01 = complex(s01)
    system = np.array([[s00, s01], [np.conj(s01), s11]], dtype=complex)
    sites = np.broadcast_to(IDENTITY_2, (n_sites, 2, 2))
    return make_observable(system, np.array(sites))


def single_site_observable(j: int, eps, n_sites: int) -> RelevantObservable:
    """Observable that probes environment spin ``j`` only (identity elsewhere)."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if not 1 <= j <= n_sites:
        raise ValueError(f"site index {j} out of range 1..{n_sites}")
    eps = _check_hermitian(eps, "site part")
    sites = np.array(np.broadcast_to(IDENTITY_2, (n_sites, 2, 2)))
    sites[j - 1] = eps
    return make_observable(IDENTITY_2, sites)
