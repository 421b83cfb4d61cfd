"""Seeded random model and observable generation with deterministic replay.

The generator family is part of the package contract, not an implementation
detail: every draw goes through a numpy PCG64 generator seeded from a spawned
``SeedSequence`` child, one child per site index.  Because child k of a seed
depends only on (seed, k), the first 20 sites of a 100-site model coincide
exactly with the 20-site model at the same seed, which is what makes
site-count sweeps a controlled comparison.  The per-site draw order (u, then
phase, then coupling) is likewise fixed; see the README for test vectors.

NumPy freezes both ``SeedSequence`` and ``PCG64`` (NEP 19), so the draws are
computed here for a chunk of children at once, with the same 32-bit hash and
128-bit LCG arithmetic that numpy runs one object at a time.  The results are
bit-identical to ``default_rng(child).uniform(...)``; the tests check this
against numpy itself.  Each chunk of ``_SITE_CHUNK`` sites is drawn and turned
into model rows before the next, straight into the model's preallocated arrays,
which the model checks chunk by chunk; so the memory beyond the model itself
stays bounded whatever the site count.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from .model import (
    _SITE_CHUNK,
    RelevantObservable,
    SpinBathModel,
    make_model,  # noqa: F401  (bench/child.py wraps these names; the samplers
    make_observable,  # noqa: F401  construct the model types and no longer call them)
)

DEFAULT_AMPLITUDE = 1.0 / np.sqrt(2.0)

# SeedSequence hash constants (numpy/random/bit_generator.pyx) and the PCG64
# multiplier.  Python ints, so no numpy scalar ever overflows; every product
# is taken on uint64 arrays, which wrap silently.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence hashmix on 32-bit words; returns (word, next hash constant)."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    hi_lo, lo_hi = a_hi * b_lo, a_lo * b_hi
    mid = ((a_lo * b_lo) >> 32) + (hi_lo & _MASK32) + (lo_hi & _MASK32)
    return a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One 128-bit LCG step, state * multiplier + increment, on (hi, lo) words."""
    new_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    new_lo = lo * _PCG_MULT_LO
    return _add128(new_hi, new_lo, inc_hi, inc_lo)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _check_streams(seed: int, first: int, n: int) -> int:
    """Check a seed and the spawn keys first .. first + n - 1; return the seed as an int."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if n < 1:
        raise ValueError("need at least one site")
    if first + n >= 1 << 32:
        raise ValueError(
            f"{first + n} streams need a two-word spawn key; at most 2**32 - 1 are supported"
        )
    return seed


def _contract_draws(n: int, seed: int, k: int, first: int = 0) -> np.ndarray:
    """Raw PCG64 outputs of children first .. first + n - 1 of ``SeedSequence(seed)``.

    Row i equals ``PCG64(child).random_raw(k)`` for the child with spawn key
    ``first + i``.  The spawn key is the only entropy word that differs between
    children, so the seed's pool is hashed once per call and only that last
    word is mixed in per child; a chunk's rows are the same bits whatever the
    chunk.
    """
    seed = _check_streams(seed, first, n)
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))

    # SeedSequence.mix_entropy over [seed words, zero padding, spawn key].
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    for word in words[_POOL_SIZE:] + [np.arange(first, first + n, dtype=np.uint64)]:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)

    # SeedSequence.generate_state(4, uint64): eight 32-bit words, little-endian pairs.
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        word, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(word)
    val = [state[2 * j] | (state[2 * j + 1] << 32) for j in range(4)]

    # pcg64_set_seed: state (val0, val1), increment 2 (val2, val3) + 1, two LCG steps.
    inc_hi = (val[2] << 1) | (val[3] >> 63)
    inc_lo = (val[3] << 1) | 1
    hi, lo = _add128(inc_hi, inc_lo, val[0], val[1])
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

    out = np.empty((n, k), dtype=np.uint64)
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: (hi ^ lo) rotated right by the top six state bits.
        x, rot = hi ^ lo, hi >> 58
        out[:, j] = (x >> rot) | (x << ((64 - rot) & 63))
    return out


def _uniform(raw: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` applied to raw outputs: 53-bit double, then scale."""
    return low + (high - low) * ((raw >> 11) * 2.0**-53)


def _chunks(n_streams: int, seed: int, k: int):
    """Raw draws of streams 0 .. n_streams - 1 as (rows, raw) pairs, ``_SITE_CHUNK`` each.

    ``rows`` is the chunk's slice of the streams.  The seed and the stream
    count are checked at the call, before the caller allocates its outputs;
    each chunk is drawn when the iteration reaches it.
    """
    _check_streams(seed, 0, n_streams)
    bounds = ((lo, min(lo + _SITE_CHUNK, n_streams)) for lo in range(0, n_streams, _SITE_CHUNK))
    return ((slice(lo, hi), _contract_draws(hi - lo, seed, k, lo)) for lo, hi in bounds)


def sample_model(
    n_sites: int,
    seed: int,
    a: complex = DEFAULT_AMPLITUDE,
    b: complex = DEFAULT_AMPLITUDE,
) -> SpinBathModel:
    """Draw a model with random site coefficients and couplings.

    Per site, in order: u ~ Uniform(0, 1) sets |alpha|^2 = u and
    |beta|^2 = 1 - u with alpha real non-negative; a relative phase
    ~ Uniform[0, 2 pi) goes onto beta; the coupling is 1 - Uniform(0, 1),
    i.e. uniform on the half-open interval (0, 1] so it is never zero.
    Deterministic for fixed (n_sites, seed).  Sites are drawn chunk by chunk
    into preallocated arrays.
    """
    chunks = _chunks(n_sites, seed, 3)
    alphas, betas = np.empty(n_sites, dtype=complex), np.empty(n_sites, dtype=complex)
    couplings = np.empty(n_sites)
    for rows, raw in chunks:
        alpha, beta, g = alphas[rows], betas[rows], couplings[rows]
        u = _uniform(raw[:, 0], 0.0, 1.0)
        np.sqrt(u, out=alpha)
        np.multiply(np.sqrt(1.0 - u), np.exp(1j * _uniform(raw[:, 1], 0.0, 2.0 * np.pi)), out=beta)
        np.subtract(1.0, _uniform(raw[:, 2], 0.0, 1.0), out=g)
    return SpinBathModel(a, b, alphas, betas, couplings)


def commensurate_model(n_sites: int, g_base: float, seed: int) -> SpinBathModel:
    """Random site coefficients but exactly commensurate couplings g_j = j g_base.

    Every bath frequency then divides 2 pi / g_base, so the overlap revives
    fully at that period.  The coefficients are those of ``sample_model`` at
    the same seed (u and phase come first in the draw order), whose couplings
    are replaced.  Both probe amplitudes are 1/sqrt(2); the overlap does not
    depend on them.
    """
    if not (np.isfinite(g_base) and g_base > 0.0):
        raise ValueError("base coupling must be positive and finite")
    model = sample_model(n_sites, seed)
    with np.errstate(over="ignore"):  # the model's check names an overflowing rung
        couplings = np.arange(1, n_sites + 1) * float(g_base)
    return dataclasses.replace(model, couplings=couplings)


def sample_observable(n_sites: int, seed: int) -> RelevantObservable:
    """Draw a random Hermitian product observable for equivalence sweeps.

    Stream 0 of the spawned family makes the system part, stream j the part
    for site j; deterministic per (n_sites, seed).  Each part takes four
    draws: the two diagonal entries ~ Uniform(-1, 1), then the modulus
    ~ Uniform(0, 1) and the phase ~ Uniform[0, 2 pi) of the upper
    off-diagonal entry, so every entry is bounded by 1 in modulus.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    chunks = _chunks(n_sites + 1, seed, 4)
    parts = np.empty((n_sites + 1, 2, 2), dtype=complex)
    for rows, raw in chunks:
        block = parts[rows]
        off = _uniform(raw[:, 2], 0.0, 1.0) * np.exp(1j * _uniform(raw[:, 3], 0.0, 2.0 * np.pi))
        block[:, 0, 0] = _uniform(raw[:, 0], -1.0, 1.0)
        block[:, 1, 1] = _uniform(raw[:, 1], -1.0, 1.0)
        block[:, 0, 1] = off
        block[:, 1, 0] = np.conj(off)
    return RelevantObservable(system_part=parts[0], site_parts=parts[1:])
