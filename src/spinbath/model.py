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

from dataclasses import dataclass, fields

import numpy as np

# Normalization: constructors reject inputs whose squared norm deviates from 1
# by more than NORM_TOL; well-formed inputs sit at machine precision.  The
# reduced state divides by the site norms, so only the probe pair's deviation
# reaches its trace check (1e-12), at any N.  Elsewhere site deviations
# multiply: overlap_r and expectation keep a factor within about 1 + N NORM_TOL
# of 1 (5e-9 at N = 10^5), and the dense norm check (1e-10) holds for any N
# the dense oracle can hold.
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


class _Checked:
    """Base of the checked types: ``__post_init__`` checks, ``_store`` keeps.

    A copy or a pickle is rebuilt from the ``init`` fields through the
    constructor, so it is checked and frozen again.
    """

    def _store(self, **values) -> None:
        """Set checked fields; each array, and the array it views, becomes read-only in place."""
        for value in values.values():
            for owner in (value, getattr(value, "base", None)):
                if isinstance(owner, np.ndarray):
                    owner.setflags(write=False)
        self.__dict__.update(values)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class SpinBathModel(_Checked):
    """Central qubit plus N environment spins, all amplitudes normalized.

    ``alphas``, ``betas`` and ``couplings`` are parallel arrays over the
    environment sites (site ``j`` lives at array index ``j - 1``).  Every
    amplitude pair must be normalized to ``NORM_TOL`` and every coupling real
    and positive; the probe pair is checked first, then the sites in chunks
    of ``_SITE_CHUNK``, and the message names the first bad one.
    """

    a: complex
    b: complex
    alphas: np.ndarray
    betas: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        a, b = complex(self.a), complex(self.b)
        alphas, betas = (np.asarray(x, dtype=complex) for x in (self.alphas, self.betas))
        g = np.asarray(self.couplings, dtype=complex if np.iscomplexobj(self.couplings) else float)
        shapes = (alphas.shape, betas.shape, g.shape)
        if alphas.ndim != 1 or len(set(shapes)) > 1:
            raise ValueError(f"alphas, betas and couplings must be 1-D of one length, got shapes {shapes}")
        if alphas.size == 0:
            raise ValueError("model needs at least one environment site")
        _check_sites(np.array([a]), np.array([b]), np.ones(1), 0)
        for first in range(0, alphas.size, _SITE_CHUNK):
            rows = slice(first, first + _SITE_CHUNK)
            _check_sites(alphas[rows], betas[rows], g[rows], first + 1)
        if g.dtype == complex:  # real, as checked
            g = np.ascontiguousarray(g.real)
        self._store(a=a, b=b, alphas=alphas, betas=betas, couplings=g)

    @property
    def n_sites(self) -> int:
        return self.alphas.shape[0]

    @property
    def mean_coupling(self) -> float:
        """Average of the site couplings; sets the natural time scale."""
        return float(np.mean(self.couplings))


@dataclass(frozen=True)
class RelevantObservable(_Checked):
    """Product-form observable: one 2x2 system part, one 2x2 part per site.

    Stored matrices are Hermitian:  entry [0, 1] is the up/down coherence
    coefficient and equals the conjugate of entry [1, 0]; the system part is
    checked first, then the site parts in chunks of ``_SITE_CHUNK``.
    """

    system_part: np.ndarray
    site_parts: np.ndarray

    def __post_init__(self):
        system = _check_hermitian(self.system_part, "system part")
        parts = np.asarray(self.site_parts, dtype=complex)
        if parts.shape[1:] != (2, 2):
            raise ValueError(f"site parts must be an (n, 2, 2) stack, got shape {parts.shape}")
        if len(parts) == 0:
            raise ValueError("observable needs at least one site part")
        for first in range(0, len(parts), _SITE_CHUNK):
            chunk = parts[first : first + _SITE_CHUNK]
            _check_hermitian_stack(chunk, lambda k: f"site part {first + k + 1}")
        self._store(system_part=system, site_parts=parts)

    @property
    def n_sites(self) -> int:
        return self.site_parts.shape[0]


@dataclass(frozen=True)
class Trajectory(_Checked):
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
        self._store(times=times, values=values)

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


def make_model(a, b, sites) -> SpinBathModel:
    """Parse system amplitudes and (alpha, beta, g) triples into a model.

    ``sites`` is a sequence of triples or an (N, 3) array of them; each column
    becomes a fresh array, which ``SpinBathModel`` checks and freezes.
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
    return SpinBathModel(a, b, table[:, 0].copy(), table[:, 1].copy(), table[:, 2].copy())


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
    mat = np.asarray(mat, dtype=complex)
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
    """Parse a product-form observable into fresh arrays, which ``RelevantObservable`` checks."""
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
    return RelevantObservable(np.array(system_part, dtype=complex), parts)


def eid_observable(s00: float, s01: complex, s11: float, n_sites: int) -> RelevantObservable:
    """System-only observable: given 2x2 system part, identity on every site.

    This is the family whose expectation decays to the diagonal mixture when
    the bath-branch overlap dies out.
    """
    s01 = complex(s01)
    system = np.array([[s00, s01], [np.conj(s01), s11]], dtype=complex)
    sites = np.broadcast_to(IDENTITY_2, (n_sites, 2, 2))
    return RelevantObservable(system, np.array(sites))


def single_site_observable(j: int, eps, n_sites: int) -> RelevantObservable:
    """Observable that probes environment spin ``j`` only (identity elsewhere)."""
    if not 1 <= j <= n_sites:
        raise ValueError(f"site index {j} out of range 1..{n_sites}")
    eps = _check_hermitian(eps, "site part")
    sites = np.array(np.broadcast_to(IDENTITY_2, (n_sites, 2, 2)))
    sites[j - 1] = eps
    return RelevantObservable(IDENTITY_2, sites)
