"""Brute-force reference implementation on the full 2^(N+1) state vector.

Everything here is deliberately independent of the product-form shortcuts in
``engine``: states are materialized, evolution multiplies explicit per-basis
phases, and expectations are direct contractions of the observable against
the whole vector.  Agreement between the two paths is the core correctness
check of the package.

The interaction is diagonal in the product basis, so evolution never mixes
amplitudes; it only rotates their phases.  The sign convention is fixed once,
by requiring that the up-branch bath state carry per-site factors
alpha_i e^(+i g_i t / 2) and beta_i e^(-i g_i t / 2), and is asserted in tests.
``evolve`` builds the model's field on every call, for the configurations with
site 1 up only.

The observable is applied in blocks of up to ``_BLOCK_PARTS`` consecutive 2x2
parts: their Kronecker product, a d x d matrix with d = 2^_BLOCK_PARTS, acts
on the leading d-fold axis of the vector by matrix products, and the result
lists that axis last.  The axes cycle through the front, and after the last
block every axis is back in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RelevantObservable, SpinBathModel, _freeze

# At the default cap a state is 2^25 complex doubles, 512 MiB.  evolve holds
# the input, the rotated vector and the 2^23 field values it builds for the
# call (about 1.06 GiB); oracle_expectation holds the state and two working
# vectors (1.5 GiB).  Raise site_cap explicitly on machines that can take more.
DEFAULT_SITE_CAP = 24

# 2x2 parts per block in oracle_expectation.  At N = 16 a call takes 3.8 ms
# with 4 parts, 4.4 ms with 2 or 3 and 5.5 ms with 5.
_BLOCK_PARTS = 4
# Largest m n k of one matrix product there: (1024, 16) @ (16, 16) complex
# for a 4-part block.  Products this size still run on both OpenBLAS threads;
# what the row slices buy is memory, for a little time.  On a shared 2-core
# x86-64 machine, 8 alternating runs each of `bench/run.py --workload
# oracle-dense --seconds 3` with and without them read peak RSS 46.09 against
# 47.65 MiB (lower in 8 of 8) and run_s 0.259 against 0.244 s (medians).
_PRODUCT_SIZE = 2**18


class SiteCapError(RuntimeError):
    """Raised when a dense-state request exceeds the memory guard."""


@dataclass(frozen=True)
class DenseState:
    """Full state vector over the central qubit and all bath sites.

    The central qubit is the most significant bit; site j sits at bit
    ``n_sites - j``.  A complex array of amplitudes is checked and frozen in
    place, not copied; any other array is converted to complex first.
    """

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != 2 ** (self.n_sites + 1) or amps.size < 4:
            raise ValueError("amplitude count must be 2^(n_sites + 1) with n_sites >= 1")
        if not abs(np.vdot(amps, amps).real - 1.0) <= 1e-10:  # a NaN or inf norm fails too
            raise ValueError("dense state must be finite and normalized")
        self.__dict__.update(amplitudes=_freeze(amps))


def _check_cap(n_sites: int, site_cap: int) -> None:
    if n_sites > site_cap:
        raise SiteCapError(
            f"{n_sites} sites exceeds the dense-state cap of {site_cap}; "
            "pass a larger site_cap to override"
        )


def _grow(start: np.ndarray, combine: np.ufunc, sites) -> np.ndarray:
    """Grow ``start`` along its last axis, one site per (x, y) pair in ``sites``.

    Entry j becomes combine(entry, x) at 2j and combine(entry, y) at 2j + 1, as
    in np.<combine>.outer; two strided calls per site take a fifth of its time.
    """
    for x, y in sites:
        grown = np.empty((*start.shape[:-1], 2 * start.shape[-1]), start.dtype)
        combine(start, x, out=grown[..., 0::2])
        combine(start, y, out=grown[..., 1::2])
        start = grown
    return start


def _site_field(model: SpinBathModel) -> np.ndarray:
    """Sum of g_i * (+1 for up, -1 for down) for each bath configuration with site 1 up.

    Site 1 is the top bit, as in build_initial; the complements, reversed, have the negated sums.
    """
    rest = model.couplings[1:]
    return _grow(model.couplings[:1], np.add, zip(rest, -rest))  # a + (-g) is a - g, bit for bit


def build_initial(model: SpinBathModel, site_cap: int = DEFAULT_SITE_CAP) -> DenseState:
    """Materialize the t = 0 product state over all 2^(N+1) basis vectors."""
    _check_cap(model.n_sites, site_cap)
    amps = np.array([model.a, model.b], dtype=complex)
    return DenseState(_grow(amps, np.multiply, zip(model.alphas, model.betas)), model.n_sites)


def evolve(state: DenseState, model: SpinBathModel, t: float) -> DenseState:
    """The state advanced by time ``t``, which must be finite.

    Each amplitude picks up e^(i z_s field t / 2) where z = +1 on the up
    system branch and -1 on the down branch, and field is the signed coupling
    sum of the bath configuration.  Diagonal, hence exactly unitary.  cos and
    sin are taken once per configuration with site 1 up; the complements
    (negated field, mirrored order) and the down branch take conjugates.
    """
    if state.n_sites != model.n_sites:
        raise ValueError(f"state has {state.n_sites} sites, model has {model.n_sites}")
    if not math.isfinite(t):  # checked before the trig, which warns on an infinite phase
        raise ValueError(f"evolution time must be finite, got {t!r}")
    field = _site_field(model)
    q = field.size
    amps = np.empty(4 * q, dtype=complex)
    phase = np.multiply(field, 0.5 * t, out=amps.imag[:q])
    np.cos(phase, out=amps.real[:q])
    np.sin(phase, out=phase)
    np.conjugate(amps[q - 1 :: -1], out=amps[q : 2 * q])
    np.conjugate(amps[: 2 * q], out=amps[2 * q :])
    amps *= state.amplitudes
    return DenseState(amps, state.n_sites)


def oracle_expectation(state: DenseState, obs: RelevantObservable) -> float:
    """<psi|O|psi> by applying O to the full vector, ``_BLOCK_PARTS`` parts at a time.

    Blocks take the system part first.  Cost O(d 2^(N+1)) per block and
    ceil((N + 1) / _BLOCK_PARTS) blocks, so O(N 2^(N+1)) with a constant of
    d / _BLOCK_PARTS = 4 multiply-adds per part and amplitude; two working
    vectors besides the state.  The imaginary residue must stay below 1e-10
    (anything larger means a non-Hermitian part leaked into the observable).
    """
    if obs.n_sites != state.n_sites:
        raise ValueError(
            f"observable has {obs.n_sites} site parts, state has {state.n_sites} sites"
        )
    parts = [obs.system_part, *obs.site_parts]
    vector = state.amplitudes
    # One allocation for both working vectors: glibc then keeps its pages
    # resident between calls instead of trimming and refaulting them.
    buffers = np.empty((2, vector.size), dtype=complex)
    for k, lo in enumerate(range(0, len(parts), _BLOCK_PARTS)):
        block = parts[lo]
        for part in parts[lo + 1 : lo + _BLOCK_PARTS]:
            block = np.kron(block, part)
        # (block @ X).T written as X.T @ block.T: the result comes out
        # contiguous with the block's axis last, ready for the next reshape.
        rows = vector.reshape(block.shape[0], -1).T
        vector = buffers[k % 2].reshape(rows.shape)
        step = _PRODUCT_SIZE // block.size
        for r in range(0, rows.shape[0], step):
            np.matmul(rows[r : r + step], block.T, out=vector[r : r + step])
    value = complex(np.vdot(state.amplitudes, vector.ravel()))
    if abs(value.imag) > 1e-10:
        raise ValueError(
            f"expectation has imaginary residue {value.imag:.3e}; observable is not Hermitian"
        )
    return value.real


def oracle_overlap(model: SpinBathModel, t: float, site_cap: int = DEFAULT_SITE_CAP) -> complex:
    """Inner product of the down-branch and up-branch bath states.

    Both 2^N bath states are built explicitly: the up branch carries per-site
    factors (alpha e^(i g t / 2), beta e^(-i g t / 2)), the down branch the
    same at -t.  The independent check on the O(N) product in engine.overlap_r.
    """
    _check_cap(model.n_sites, site_cap)
    turn = np.exp(0.5j * t * model.couplings)
    back = turn.conj()
    # Both branches as one (2, 2^k) chain: row 0 the up branch, row 1 the down branch.
    site_up = np.stack([model.alphas * turn, model.alphas * back], axis=1)[..., None]
    site_down = np.stack([model.betas * back, model.betas * turn], axis=1)[..., None]
    both = _grow(np.ones((2, 1), dtype=complex), np.multiply, zip(site_up, site_down))
    return complex(np.vdot(both[1], both[0]))


def oracle_reduced_state(state: DenseState) -> np.ndarray:
    """2x2 central-qubit density matrix, rho_jk = <half_k|half_j>: exactly Hermitian."""
    up, down = state.amplitudes.reshape(2, -1)
    off = np.vdot(down, up)
    return np.array([[np.vdot(up, up).real, off], [off.conj(), np.vdot(down, down).real]])
