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

import math
from dataclasses import dataclass

import numpy as np

# Normalization: constructors reject inputs whose squared norm deviates from 1
# by more than NORM_TOL; well-formed inputs sit at machine precision.
NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-12

IDENTITY_2 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)

PAULI_BY_NAME = {"id": IDENTITY_2, "sx": SIGMA_X, "sy": SIGMA_Y, "sz": SIGMA_Z}


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

    def site(self, j: int) -> tuple[complex, complex, float]:
        """Return (alpha, beta, g) of site ``j`` (1-based)."""
        if not 1 <= j <= self.n_sites:
            raise ValueError(f"site index {j} out of range 1..{self.n_sites}")
        k = j - 1
        return complex(self.alphas[k]), complex(self.betas[k]), float(self.couplings[k])


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

    def is_identity_sites(self, tol: float = HERMITICITY_TOL) -> bool:
        """True when every site part is the identity (system-only observable)."""
        return bool(np.all(np.abs(self.site_parts - IDENTITY_2) <= tol))


@dataclass(frozen=True)
class Trajectory:
    """A sampled time series of one observable quantity.

    ``times`` is strictly increasing, in simulation units (hbar = 1; the mean
    coupling of the generating model sets the natural scale).  ``values`` may
    be real or complex.  ``config_digest`` ties the data to the experiment
    configuration that produced it.
    """

    times: np.ndarray
    values: np.ndarray
    label: str = ""
    config_digest: str = ""

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


def _check_pair(x: complex, y: complex, what: str) -> float:
    """Validate a normalized amplitude pair; return its squared norm."""
    for v in (x, y):
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"{what} amplitudes must be finite")
    norm2 = abs(x) ** 2 + abs(y) ** 2
    if norm2 == 0.0:
        raise ValueError(f"{what} amplitude pair has zero norm")
    return norm2


def make_model(a, b, sites) -> SpinBathModel:
    """Build a validated model from system amplitudes and (alpha, beta, g) triples.

    Strict: inputs whose squared norms deviate from 1 by more than ``NORM_TOL``
    are rejected, couplings must be positive, and at least one site is
    required.
    """
    sites = list(sites)
    if not sites:
        raise ValueError("model needs at least one environment site")
    a = complex(a)
    b = complex(b)

    sys_norm2 = _check_pair(a, b, "system")
    if abs(sys_norm2 - 1.0) > NORM_TOL:
        raise ValueError(
            f"system amplitudes not normalized: |a|^2 + |b|^2 = {sys_norm2!r}"
        )

    alphas = np.empty(len(sites), dtype=complex)
    betas = np.empty(len(sites), dtype=complex)
    couplings = np.empty(len(sites), dtype=float)
    for k, (alpha, beta, g) in enumerate(sites):
        alpha = complex(alpha)
        beta = complex(beta)
        g = float(g)
        norm2 = _check_pair(alpha, beta, f"site {k + 1}")
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(
                f"site {k + 1} amplitudes not normalized: "
                f"|alpha|^2 + |beta|^2 = {norm2!r}"
            )
        if not math.isfinite(g) or g <= 0.0:
            raise ValueError(f"site {k + 1} coupling must be positive, got {g!r}")
        alphas[k] = alpha
        betas[k] = beta
        couplings[k] = g

    return SpinBathModel(
        a=a,
        b=b,
        alphas=_frozen_array(alphas, complex),
        betas=_frozen_array(betas, complex),
        couplings=_frozen_array(couplings, float),
    )


def _check_hermitian(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.array(mat, dtype=complex)
    if mat.shape != (2, 2):
        raise ValueError(f"{what} must be a 2x2 matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} entries must be finite")
    if abs(mat[0, 0].imag) > HERMITICITY_TOL or abs(mat[1, 1].imag) > HERMITICITY_TOL:
        raise ValueError(f"{what} diagonal must be real")
    if abs(mat[0, 1] - np.conj(mat[1, 0])) > HERMITICITY_TOL:
        raise ValueError(f"{what} off-diagonal entries must be conjugates")
    return mat


def make_observable(system_part, site_parts) -> RelevantObservable:
    """Validate Hermiticity entrywise and freeze a product-form observable."""
    system = _check_hermitian(system_part, "system part")
    parts = [
        _check_hermitian(p, f"site part {k + 1}") for k, p in enumerate(site_parts)
    ]
    if not parts:
        raise ValueError("observable needs at least one site part")
    return RelevantObservable(
        system_part=_frozen_array(system, complex),
        site_parts=_frozen_array(np.stack(parts), complex),
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
