"""Dense-state reference: construction, evolution, contraction, cross-checks."""

import ast
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath.oracle
from spinbath.engine import expectation, overlap_r, reduced_system_state
from spinbath.ensemble import commensurate_model, sample_model, sample_observable
from spinbath.model import (
    IDENTITY_2,
    NORM_TOL,
    SIGMA_Z,
    RelevantObservable,
    eid_observable,
    make_model,
)
from spinbath.oracle import (
    DenseState,
    SiteCapError,
    _kron,
    _site_field,
    build_initial,
    evolve,
    oracle_expectation,
    oracle_overlap,
    oracle_reduced_state,
)

INV = 1.0 / math.sqrt(2.0)
EPS = sys.float_info.epsilon

seed_strategy = st.integers(min_value=0, max_value=2**32 - 1)


class TestBuildInitial:
    def test_basis_state(self):
        state = build_initial(make_model(1.0, 0.0, [(1.0, 0.0, 1.0)]))
        assert np.array_equal(state.amplitudes, [1.0, 0.0, 0.0, 0.0])

    def test_uniform_superposition(self):
        state = build_initial(make_model(INV, INV, [(INV, INV, 1.0)]))
        assert np.allclose(state.amplitudes, 0.5, atol=1e-12)

    @given(seed=seed_strategy)
    @settings(max_examples=25, deadline=None)
    def test_unit_norm(self, seed):
        state = build_initial(sample_model(4, seed))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_site_cap_guard_and_override(self):
        model = sample_model(5, 0)
        with pytest.raises(SiteCapError, match="cap"):
            build_initial(model, site_cap=4)
        assert build_initial(model, site_cap=5).n_sites == 5

    def test_index_layout_system_is_most_significant(self):
        # Down system amplitude b sits in the second half of the vector; the
        # last site occupies the least significant bit.
        model = make_model(0.6, 0.8, [(1.0, 0.0, 1.0), (0.0, 1.0, 1.0)])
        state = build_initial(model)
        # Basis index = (system, site1, site2); only (s, up, down) survive.
        assert state.amplitudes[0b001] == pytest.approx(0.6)
        assert state.amplitudes[0b101] == pytest.approx(0.8)
        assert np.count_nonzero(state.amplitudes) == 2


class TestDenseStateInvariants:
    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="2\\^"):
            DenseState(amplitudes=np.ones(6) / math.sqrt(6), n_sites=2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            DenseState(amplitudes=np.ones(4), n_sites=1)
        # A squared norm off by 2e-8: beyond the 1e-10 tolerance.
        with pytest.raises(ValueError, match="normalized"):
            DenseState(amplitudes=build_initial(sample_model(2, 1)).amplitudes * (1.0 + 1e-8), n_sites=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DenseState(amplitudes=np.full(4, bad, complex), n_sites=1)

    def test_amplitudes_frozen(self):
        state = build_initial(sample_model(2, 1))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_complex_array_is_shared_and_frozen_other_arrays_converted(self):
        amps = np.full(8, 1.0 / math.sqrt(8), dtype=complex)
        state = DenseState(amplitudes=amps, n_sites=2)
        assert state.amplitudes is amps and not amps.flags.writeable
        real = np.full(8, 1.0 / math.sqrt(8))
        state = DenseState(amplitudes=real, n_sites=2)
        assert state.amplitudes.dtype == complex and not state.amplitudes.flags.writeable
        assert real.flags.writeable
        real[0] = 0.0
        assert state.amplitudes[0] == 1.0 / math.sqrt(8)


def edge_model(sign: float, n_sites: int):
    """A model whose every amplitude pair deviates from unit norm by nearly
    NORM_TOL, in the direction of ``sign``: the scale starts at the exact edge
    and steps toward 1 one ulp at a time until make_model accepts."""
    base = sample_model(n_sites, 3)
    scale = math.sqrt(1.0 + sign * NORM_TOL)
    while True:
        try:
            return make_model(
                scale * base.a,
                scale * base.b,
                np.column_stack([scale * base.alphas, scale * base.betas, base.couplings]),
            )
        except ValueError:
            scale = float(np.nextafter(scale, 1.0))


class TestNormalizationTolerance:
    """Models make_model accepts pass the dense and reduced state checks."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_sites", [6, 24])
    def test_largest_accepted_deviation(self, sign, n_sites):
        model = edge_model(sign, n_sites)
        deviations = [abs(model.a) ** 2 + abs(model.b) ** 2 - 1.0]
        deviations += list(np.abs(model.alphas) ** 2 + np.abs(model.betas) ** 2 - 1.0)
        assert all(0.9 * NORM_TOL <= sign * d <= NORM_TOL for d in deviations)
        for t in (0.0, 0.7, 3.1):
            reduced_system_state(model, t)
        # 24 sites is the dense oracle's default cap; that state takes 512 MiB.
        if n_sites <= 6:
            state = build_initial(model)
            for t in (0.7, 3.1):
                evolve(state, model, t)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_sites", [48, 100])
    def test_reduced_state_beyond_the_dense_cap(self, sign, n_sites):
        # The site norms multiply to about 1 + sign N NORM_TOL; the coherence
        # is taken over the normalized site states, so it stays within the
        # populations' bound at any N.
        model = edge_model(sign, n_sites)
        for t in (0.0, 100.0 / model.mean_coupling):
            rho = reduced_system_state(model, t).matrix
            assert abs(rho[0, 1]) ** 2 <= rho[0, 0].real * rho[1, 1].real * (1.0 + 1e-13)


class TestEvolve:
    def test_zero_time_is_identity(self):
        model = sample_model(3, 7)
        state = build_initial(model)
        evolved = evolve(state, model, 0.0)
        assert np.array_equal(evolved.amplitudes, state.amplitudes)

    def test_up_branch_phase_advance(self):
        # Up system, single site: the site-up amplitude rotates by +g t / 2.
        alpha, beta, g, t = 0.6, 0.8, 1.3, 2.1
        model = make_model(1.0, 0.0, [(alpha, beta, g)])
        evolved = evolve(build_initial(model), model, t)
        assert evolved.amplitudes[0] == pytest.approx(alpha * np.exp(0.5j * g * t), abs=1e-12)
        assert evolved.amplitudes[1] == pytest.approx(beta * np.exp(-0.5j * g * t), abs=1e-12)

    def test_norm_preserved_at_long_times(self):
        model = sample_model(6, 11)
        state = build_initial(model)
        far = 1e6 / model.mean_coupling
        assert abs(np.linalg.norm(evolve(state, model, far).amplitudes) - 1.0) < 1e-12

    def test_successive_evolutions_compose(self):
        model = sample_model(2, 3)
        state = evolve(evolve(build_initial(model), model, 1.5), model, 2.0)
        direct = evolve(build_initial(model), model, 3.5)
        assert np.allclose(state.amplitudes, direct.amplitudes, atol=1e-12)

    def test_nan_time_is_rejected(self):
        model = sample_model(3, 0)
        with pytest.raises(ValueError, match="finite"):
            evolve(build_initial(model), model, math.nan)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_non_finite_time_is_rejected_before_the_rotation(self, t):
        # cos of an infinite phase would warn: evolve refuses the time first.
        model = sample_model(3, 0)
        state = build_initial(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                evolve(state, model, t)

    def test_model_state_mismatch(self):
        state = build_initial(sample_model(3, 0))
        with pytest.raises(ValueError, match="sites"):
            evolve(state, sample_model(4, 0), 1.0)

    @given(seed=seed_strategy, t=st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_two_branch_structure(self, seed, t):
        # The evolved vector must factor into the two analytic branch states.
        model = sample_model(4, seed)
        evolved = evolve(build_initial(model), model, t)
        up, down = _branch_chains(model, t)
        recon = np.concatenate([model.a * up, model.b * down])
        assert np.allclose(evolved.amplitudes, recon, atol=1e-12)


def _random_state(n_sites, seed):
    """A normalized dense state with no product structure."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** (n_sites + 1)) + 1j * rng.normal(size=2 ** (n_sites + 1))
    return DenseState(amplitudes=amps / np.linalg.norm(amps), n_sites=n_sites)


def _full_field(model):
    """g_i * (+1 for up, -1 for down) summed for all 2^N bath configurations, site 1 first."""
    field = np.zeros(1)
    for g in model.couplings:
        field = np.add.outer(field, np.array([g, -g])).ravel()
    return field


def _branch_chains(model, t):
    """The up and down bath states at t, each grown by its own outer-product chain.

    The up branch carries per-site factors (alpha e^(i g t / 2), beta e^(-i g t / 2));
    the down branch is the same at -t.
    """
    turn = np.exp(0.5j * t * model.couplings)
    back = turn.conj()
    up_pairs = np.stack([model.alphas * turn, model.betas * back], axis=1)
    down_pairs = np.stack([model.alphas * back, model.betas * turn], axis=1)
    up = np.ones(1, dtype=complex)
    down = np.ones(1, dtype=complex)
    for up_pair, down_pair in zip(up_pairs, down_pairs):
        up = np.multiply.outer(up, up_pair).ravel()
        down = np.multiply.outer(down, down_pair).ravel()
    return up, down


def _kron_matrix(obs):
    """The full 2^(N+1) x 2^(N+1) observable, system part most significant."""
    matrix = obs.system_part
    for part in obs.site_parts:
        matrix = np.kron(matrix, part)
    return matrix


class TestBlockedContraction:
    @pytest.mark.parametrize("n_sites", range(1, 10))
    def test_matches_full_matrix(self, n_sites):
        # N + 1 = 2..10 parts: the lead block alone (up to N = 3), one later
        # block of each size 1..4 (N = 4..7), and two of sizes 2+3 and 3+3.
        for seed in range(3):
            state = _random_state(n_sites, seed)
            obs = sample_observable(n_sites, seed + 100)
            matrix = _kron_matrix(obs)
            ref = np.vdot(state.amplitudes, matrix @ state.amplitudes).real
            scale = np.vdot(np.abs(state.amplitudes), np.abs(matrix) @ np.abs(state.amplitudes)).real
            assert abs(oracle_expectation(state, obs) - ref) <= (n_sites + 1) * EPS * scale

    def test_peak_memory_at_sixteen_sites(self):
        model = sample_model(16, 3)
        obs = sample_observable(16, 4)
        state = evolve(build_initial(model), model, 2.0)
        tracemalloc.start()
        try:
            oracle_expectation(state, obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Two working sub-vectors of 2^17 / 16 amplitudes (256 KiB) and no state-sized one.
        assert peak <= state.amplitudes.nbytes // 4

    @pytest.mark.parametrize("n_parts", range(1, 5))
    def test_kron_blocks_match_kron_chain(self, n_parts):
        # The blocks oracle_expectation builds carry the bits of np.kron.
        parts = sample_observable(16, 7).site_parts
        for lo in range(0, 16 - n_parts + 1, n_parts):
            chain = block = parts[lo]
            for part in parts[lo + 1 : lo + n_parts]:
                chain, block = np.kron(chain, part), _kron(block, part)
            assert np.array_equal(block, chain)

    def test_imports_nothing_from_engine(self):
        tree = ast.parse(Path(spinbath.oracle.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any("engine" in name.split(".") for name in names)


class TestDirectReferences:
    """The per-entry exp and kron constructions the oracle kernels replace."""

    @pytest.mark.parametrize("n_sites", [1, 4, 8])
    @pytest.mark.parametrize("t", [0.0, 0.7, -13.0, 4.5e5])
    def test_evolve_matches_full_exponential(self, n_sites, t):
        model = sample_model(n_sites, 31 + n_sites)
        state = _random_state(n_sites, n_sites)
        field = _full_field(model)
        phase = np.concatenate([field, -field]) * (0.5 * t)
        ref = state.amplitudes * np.exp(1j * phase)
        got = evolve(state, model, t).amplitudes
        assert np.all(np.abs(got - ref) <= 4 * EPS * np.abs(ref))

    @pytest.mark.parametrize("n_sites", [1, 4, 8])
    @pytest.mark.parametrize("t", [0.0, 0.7, -13.0, 4.5e5])
    def test_branch_states_match_kron_loop(self, n_sites, t):
        model = sample_model(n_sites, 57 + n_sites)
        up_ref = np.ones(1, dtype=complex)
        down_ref = np.ones(1, dtype=complex)
        for alpha, beta, g in zip(model.alphas, model.betas, model.couplings):
            up_ref = np.kron(up_ref, [alpha * np.exp(0.5j * g * t), beta * np.exp(-0.5j * g * t)])
            down_ref = np.kron(down_ref, [alpha * np.exp(-0.5j * g * t), beta * np.exp(0.5j * g * t)])
        up, down = _branch_chains(model, t)
        # Each of the N factors may differ by about an ulp.
        tol = 4 * n_sites * EPS
        assert np.all(np.abs(up - up_ref) <= tol * np.abs(up_ref))
        assert np.all(np.abs(down - down_ref) <= tol * np.abs(down_ref))

    @pytest.mark.parametrize("n_sites", range(1, 17))
    def test_complement_has_the_negated_field(self, n_sites):
        # evolve takes cos and sin on the configurations with site 1 up only.
        for model in (sample_model(n_sites, 70 + n_sites), commensurate_model(n_sites, 1.0, 3)):
            full = _full_field(model)
            assert np.array_equal(full[::-1], -full)
            half = _site_field(model)
            assert np.array_equal(half.view(np.int64), full[: half.size].view(np.int64))

    @pytest.mark.parametrize("n_sites", range(1, 17))
    def test_build_initial_matches_kron_loop(self, n_sites):
        # A sampled model and a commensurate ladder (couplings j * g_base).
        for model in (sample_model(n_sites, 80 + n_sites, a=0.6, b=0.8j),
                      commensurate_model(n_sites, 0.5, 80 + n_sites)):
            ref = np.array([model.a, model.b], dtype=complex)
            for alpha, beta in zip(model.alphas, model.betas):
                ref = np.kron(ref, np.array([alpha, beta], dtype=complex))
            assert np.array_equal(build_initial(model).amplitudes, ref)

    @pytest.mark.parametrize("n_sites", [1, 4, 8])
    @pytest.mark.parametrize("t", [0.0, 0.7, -13.0, 4.5e5])
    def test_branch_states_match_two_separate_chains(self, n_sites, t):
        # oracle_overlap grows both branches as one (2, 2^k) chain: the same
        # products as two separate chains, bit for bit.
        model = sample_model(n_sites, 90 + n_sites)
        up, down = _branch_chains(model, t)
        assert oracle_overlap(model, t) == complex(np.vdot(down, up))

    @pytest.mark.parametrize("n_sites", [1, 4, 8, 16])
    @pytest.mark.parametrize("t", [0.0, 0.7, -13.0, 4.5e5])
    def test_branch_states_bit_identical_to_broadcast_chain(self, n_sites, t):
        # The (2, 2^k) chain grown by one broadcast per site, which
        # oracle_overlap's two strided products per site replaced: the same
        # products, bit for bit.
        model = sample_model(n_sites, 110 + n_sites)
        turn = np.exp(0.5j * t * model.couplings)
        back = turn.conj()
        pairs = np.stack([model.alphas * turn, model.betas * back, model.alphas * back,
                          model.betas * turn], axis=1).reshape(-1, 2, 2)
        both = np.ones((2, 1), dtype=complex)
        for pair in pairs:
            both = (both[:, :, None] * pair[:, None, :]).reshape(2, -1)
        up, down = both
        assert oracle_overlap(model, t) == complex(np.vdot(down, up))

    @pytest.mark.parametrize("n_sites", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("t", [0.0, 0.7, -13.0, 4.5e5, 1e12])
    def test_evolve_matches_full_trig_exactly(self, n_sites, t):
        # cos and sin of every configuration's own field t / 2, as one full
        # pass.  Commensurate ladders have configurations with field exactly 0.
        state = _random_state(n_sites, n_sites)
        for model in (sample_model(n_sites, 100 + n_sites), commensurate_model(n_sites, 1.0, 3)):
            phase = _full_field(model) * (0.5 * t)
            rotation = np.cos(phase) + 1j * np.sin(phase)
            ref = np.concatenate([rotation, rotation.conj()]) * state.amplitudes
            got = evolve(state, model, t)
            assert np.array_equal(got.amplitudes, ref)
            assert not np.any(np.signbit(got.amplitudes.view(float)) ^ np.signbit(ref.view(float)))
            assert not got.amplitudes.flags.writeable

    def test_evolve_peak_is_one_state_plus_the_half_field(self):
        model = sample_model(16, 3)
        state = build_initial(model)
        half_field = 2**15 * 8
        tracemalloc.start()
        try:
            evolve(state, model, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4 KiB covers the Python objects around the two arrays.
        assert peak <= state.amplitudes.nbytes + half_field + 4096

    @pytest.mark.parametrize("n_sites", [1, 2, 5, 8, 16])
    def test_reduced_state_matches_block_product(self, n_sites):
        for seed in range(3):
            state = _random_state(n_sites, 200 + seed)
            block = state.amplitudes.reshape(2, -1)
            ref = block @ block.conj().T
            got = oracle_reduced_state(state)
            assert np.all(np.abs(got - ref) <= (n_sites + 1) * EPS)
            assert got[1, 0] == np.conj(got[0, 1])
            assert got[0, 0].imag == 0.0 and got[1, 1].imag == 0.0


class TestOracleExpectation:
    def test_identity_is_one(self):
        model = sample_model(4, 19)
        state = evolve(build_initial(model), model, 3.7)
        assert oracle_expectation(state, eid_observable(1.0, 0.0, 1.0, 4)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_sigma_z_balanced_is_zero(self):
        model = make_model(INV, INV, [(0.3, math.sqrt(0.91), 0.8), (INV, INV, 1.4)])
        obs = eid_observable(1.0, 0.0, -1.0, 2)
        for t in (0.0, 1.0, 12.0):
            state = evolve(build_initial(model), model, t)
            assert oracle_expectation(state, obs) == pytest.approx(0.0, abs=1e-12)

    def test_size_mismatch(self):
        state = build_initial(sample_model(3, 0))
        with pytest.raises(ValueError, match="site"):
            oracle_expectation(state, sample_observable(4, 0))

    def test_non_hermitian_leak_detected(self):
        # Bypass RelevantObservable's checks on purpose: the contraction must
        # notice the imaginary residue, 0.6 * 0.8 times the leak at t = 0,
        # down to a leak of 1e-8 (a residue of 4.8e-9).
        state = build_initial(sample_model(1, 5, a=0.6, b=0.8j))
        for leak in (1.0, 1e-8):
            leaky = object.__new__(RelevantObservable)
            object.__setattr__(leaky, "system_part", np.array([[0.0, leak], [0.0, 0.0]], dtype=complex))
            object.__setattr__(leaky, "site_parts", np.array([IDENTITY_2]))
            with pytest.raises(ValueError, match=f"imaginary residue {0.48 * leak:.3e}; observable is not Hermitian"):
                oracle_expectation(state, leaky)

    @given(seed=seed_strategy, t=st.floats(min_value=0, max_value=100, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_matches_analytic_engine(self, seed, t):
        model = sample_model(4, seed)
        obs = sample_observable(4, seed + 1)
        state = evolve(build_initial(model), model, t)
        assert oracle_expectation(state, obs) == pytest.approx(
            expectation(model, obs, t), abs=1e-10
        )


class TestOracleOverlap:
    def test_unity_at_zero(self):
        assert oracle_overlap(sample_model(5, 2), 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_two_site_zero_crossing(self):
        model = make_model(INV, INV, [(INV, INV, 1.0)] * 2)
        assert abs(oracle_overlap(model, math.pi / 2)) < 1e-10

    def test_site_cap(self):
        with pytest.raises(SiteCapError):
            oracle_overlap(sample_model(5, 0), 1.0, site_cap=4)

    @given(seed=seed_strategy, t=st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_matches_analytic_overlap(self, seed, t):
        model = sample_model(6, seed)
        assert oracle_overlap(model, t) == pytest.approx(overlap_r(model, t), abs=1e-10)


class TestPartialTrace:
    @given(seed=seed_strategy, t=st.floats(min_value=0, max_value=60, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_matches_reduced_state(self, seed, t):
        model = sample_model(5, seed, a=0.6, b=0.8j)
        state = evolve(build_initial(model), model, t)
        reduced = oracle_reduced_state(state)
        assert np.abs(reduced - reduced_system_state(model, t).matrix).max() < 1e-10

    def test_populations_read_off_directly(self):
        model = sample_model(3, 23, a=math.sqrt(0.3), b=math.sqrt(0.7))
        state = evolve(build_initial(model), model, 4.2)
        reduced = oracle_reduced_state(state)
        assert reduced[0, 0].real == pytest.approx(0.3, abs=1e-12)
        assert reduced[1, 1].real == pytest.approx(0.7, abs=1e-12)
        assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_sigma_z_probe_on_site_matches_weights():
    # One more independent reading of the layout: measuring site 2 up/down
    # weight against the model coefficients.
    model = sample_model(3, 29)
    state = build_initial(model)
    sites = np.array([IDENTITY_2, SIGMA_Z, IDENTITY_2])
    obs = RelevantObservable(system_part=np.array(IDENTITY_2), site_parts=sites)
    w_up = abs(model.alphas[1]) ** 2
    w_down = abs(model.betas[1]) ** 2
    assert oracle_expectation(state, obs) == pytest.approx(w_up - w_down, abs=1e-12)
