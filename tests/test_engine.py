"""Closed-form evaluator checks: hand-computable cases, symmetries, stability."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.engine import (
    ReducedState,
    expectation,
    gamma0,
    gamma1,
    overlap_r,
    r_squared_bounds,
    reduced_system_state,
    single_spin_expectation,
)
from spinbath.ensemble import sample_model, sample_observable
from spinbath.model import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    eid_observable,
    make_model,
    make_observable,
    single_site_observable,
)

INV = 1.0 / math.sqrt(2.0)
OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])

times_strategy = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
seed_strategy = st.integers(min_value=0, max_value=2**32 - 1)


def equal_superposition_model(n_sites, g=1.0):
    return make_model(INV, INV, [(INV, INV, g)] * n_sites)


class TestGamma0:
    def test_identity_sites_give_one(self):
        model = sample_model(7, 3)
        obs = eid_observable(1.0, 0.5j, -1.0, 7)
        for t in (0.0, 2.3, -17.0):
            assert gamma0(model, obs, t) == pytest.approx(1.0, abs=1e-12)

    def test_single_offdiagonal_factor_is_cosine(self):
        # One site, alpha = beta = 1/sqrt 2, pure up/down part: the factor is
        # 2 Re((1/2) e^(-i t)) = cos t.
        model = equal_superposition_model(1)
        obs = make_observable(IDENTITY_2, [OFFDIAG])
        assert gamma0(model, obs, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert gamma0(model, obs, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert gamma0(model, obs, 1.3) == pytest.approx(math.cos(1.3), abs=1e-12)

    def test_returns_real_scalar(self):
        model = sample_model(3, 0)
        obs = sample_observable(3, 1)
        assert isinstance(gamma0(model, obs, 1.0), float)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="site"):
            gamma0(sample_model(3, 0), sample_observable(4, 0), 1.0)


class TestGamma1:
    def test_identity_sites_at_zero(self):
        model = sample_model(5, 2)
        obs = eid_observable(1.0, 0.0, 0.0, 5)
        assert gamma1(model, obs, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_single_up_site_is_pure_phase(self):
        model = make_model(INV, INV, [(1.0, 0.0, 2.0)])
        obs = eid_observable(1.0, 0.0, 0.0, 1)
        assert gamma1(model, obs, 0.5) == pytest.approx(np.exp(1.0j), abs=1e-12)

    def test_two_sites_squared_cosine(self):
        model = equal_superposition_model(2)
        obs = eid_observable(1.0, 0.0, 0.0, 2)
        assert gamma1(model, obs, math.pi) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_identity_sites_match_overlap(self):
        model = sample_model(9, 5)
        obs = eid_observable(0.2, 0.7 - 0.1j, -0.4, 9)
        ts = np.linspace(0.0, 30.0, 11)
        assert np.allclose(gamma1(model, obs, ts), overlap_r(model, ts), atol=1e-12)


class TestExpectation:
    def test_up_branch_sigma_z_is_constant_one(self):
        model = make_model(1.0, 0.0, [(INV, INV, 1.0), (0.6, 0.8, 0.7)])
        obs = eid_observable(1.0, 0.0, -1.0, 2)
        for t in (0.0, 3.1, 40.0):
            assert expectation(model, obs, t) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_x_full_coherence_at_zero(self):
        model = equal_superposition_model(1)
        obs = eid_observable(0.0, 1.0, 0.0, 1)
        assert expectation(model, obs, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_identity_observable_is_one_for_all_times(self):
        model = sample_model(12, 4)
        obs = eid_observable(1.0, 0.0, 1.0, 12)
        ts = np.linspace(0.0, 80.0, 17)
        assert np.allclose(expectation(model, obs, ts), 1.0, atol=1e-12)

    def test_eid_factorization(self):
        # For identity site parts the whole time dependence sits in the
        # coherence product, which coincides with the overlap.
        model = sample_model(6, 17, a=0.6, b=0.8j)
        s00, s01, s11 = 0.3, 0.2 + 0.4j, -0.9
        obs = eid_observable(s00, s01, s11, 6)
        for t in (0.0, 1.1, 9.7):
            direct = expectation(model, obs, t)
            factored = (
                abs(model.a) ** 2 * s00
                + abs(model.b) ** 2 * s11
                + 2.0 * np.real(model.a * np.conj(model.b) * np.conj(s01) * gamma1(model, obs, t))
            )
            assert direct == pytest.approx(factored, abs=1e-12)

    @given(seed=seed_strategy, t=times_strategy)
    @settings(max_examples=30, deadline=None)
    def test_expectation_is_real_float(self, seed, t):
        model = sample_model(3, seed)
        obs = sample_observable(3, seed + 1)
        value = expectation(model, obs, t)
        assert isinstance(value, float)

    def test_array_time_support(self):
        model = sample_model(3, 0)
        obs = sample_observable(3, 1)
        ts = np.linspace(0.0, 5.0, 7)
        values = expectation(model, obs, ts)
        assert values.shape == ts.shape
        point = expectation(model, obs, float(ts[3]))
        assert values[3] == pytest.approx(point, abs=1e-14)


class TestOverlap:
    def test_normalized_at_zero(self):
        assert overlap_r(sample_model(10, 1), 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_single_up_spin_never_decoheres(self):
        model = make_model(1.0, 0.0, [(1.0, 0.0, 1.0)])
        ts = np.linspace(0.0, 20.0, 9)
        r = overlap_r(model, ts)
        assert np.allclose(r, np.exp(1j * ts), atol=1e-12)
        assert np.allclose(np.abs(r), 1.0, atol=1e-12)

    def test_two_site_zero_crossing(self):
        model = equal_superposition_model(2)
        assert abs(overlap_r(model, math.pi / 2)) == pytest.approx(0.0, abs=1e-12)

    @given(seed=seed_strategy, t=times_strategy)
    @settings(max_examples=40, deadline=None)
    def test_time_reversal_conjugates(self, seed, t):
        model = sample_model(5, seed)
        assert overlap_r(model, -t) == pytest.approx(
            np.conj(overlap_r(model, t)), abs=1e-12
        )

    @given(seed=seed_strategy, t=times_strategy)
    @settings(max_examples=40, deadline=None)
    def test_squared_modulus_product_form(self, seed, t):
        # |r|^2 must equal the per-site product of
        # |alpha|^4 + |beta|^4 + 2 |alpha|^2 |beta|^2 cos(2 g t).
        model = sample_model(5, seed)
        w_up = np.abs(model.alphas) ** 2
        w_down = np.abs(model.betas) ** 2
        factors = w_up**2 + w_down**2 + 2.0 * w_up * w_down * np.cos(2.0 * model.couplings * t)
        assert abs(overlap_r(model, t)) ** 2 == pytest.approx(
            float(np.prod(factors)), abs=1e-12
        )


class TestBounds:
    def test_balanced_sites_reach_zero(self):
        # 0.5 +/- 0.5i amplitudes keep |alpha|^2 exactly one half in floats.
        model = make_model(INV, INV, [(0.5 + 0.5j, 0.5 - 0.5j, 1.0)] * 3)
        assert r_squared_bounds(model) == (0.0, 1.0)
        assert r_squared_bounds(equal_superposition_model(3))[0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_degenerate_bath_pins_modulus(self):
        model = make_model(INV, INV, [(1.0, 0.0, 1.0)] * 2)
        assert r_squared_bounds(model) == (1.0, 1.0)
        assert abs(overlap_r(model, 7.7)) == pytest.approx(1.0, abs=1e-12)

    def test_three_quarter_weight(self):
        alpha = math.sqrt(0.75)
        beta = math.sqrt(0.25)
        model = make_model(1.0, 0.0, [(alpha, beta, 1.0), (alpha, beta, 2.0)])
        lower, upper = r_squared_bounds(model)
        assert lower == pytest.approx(0.0625, abs=1e-12)
        assert upper == 1.0

    @given(seed=seed_strategy, t=times_strategy)
    @settings(max_examples=40, deadline=None)
    def test_bounds_bracket_samples(self, seed, t):
        model = sample_model(6, seed)
        lower, upper = r_squared_bounds(model)
        r2 = abs(overlap_r(model, t)) ** 2
        assert lower - 1e-12 <= r2 <= upper + 1e-12


class TestSingleSpin:
    def test_sigma_z_is_time_independent(self):
        model = sample_model(4, 21)
        expected = abs(model.alphas[1]) ** 2 - abs(model.betas[1]) ** 2
        for t in (0.0, 5.0, 123.0):
            assert single_spin_expectation(model, 2, SIGMA_Z, t) == pytest.approx(
                expected, abs=1e-12
            )

    def test_sigma_x_up_branch_is_cosine(self):
        model = make_model(1.0, 0.0, [(INV, INV, 0.7)])
        ts = np.linspace(0.0, 30.0, 13)
        assert np.allclose(
            single_spin_expectation(model, 1, SIGMA_X, ts), np.cos(0.7 * ts), atol=1e-12
        )

    def test_periodicity(self):
        model = sample_model(5, 6)
        eps = sample_observable(1, 7).site_parts[0]
        j = 3
        period = 2.0 * math.pi / model.site(j)[2]
        for t in (0.0, 0.4, 2.9):
            assert single_spin_expectation(model, j, eps, t) == pytest.approx(
                single_spin_expectation(model, j, eps, t + period), abs=1e-12
            )

    def test_agrees_with_full_product_evaluation(self):
        model = sample_model(6, 31)
        eps = sample_observable(1, 32).site_parts[0]
        obs = single_site_observable(4, eps, 6)
        for t in (0.0, 1.7, 11.0):
            assert single_spin_expectation(model, 4, eps, t) == pytest.approx(
                expectation(model, obs, t), abs=1e-12
            )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            single_spin_expectation(sample_model(2, 0), 3, SIGMA_Z, 0.0)


class TestReducedState:
    def test_initial_state_is_pure_projector(self):
        model = sample_model(5, 9, a=0.6, b=0.8)
        rho = reduced_system_state(model, 0.0).matrix
        vec = np.array([model.a, model.b])
        assert np.allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)

    def test_up_branch_has_no_coherence(self):
        model = make_model(1.0, 0.0, [(INV, INV, 1.0)])
        for t in (0.0, 2.0):
            state = reduced_system_state(model, t)
            assert state.rho00 == pytest.approx(1.0, abs=1e-12)
            assert state.rho01 == 0.0

    def test_coherence_modulus_tracks_overlap(self):
        model = sample_model(8, 13)
        for t in (0.3, 4.4, 16.0):
            state = reduced_system_state(model, t)
            assert abs(state.rho01) == pytest.approx(
                abs(model.a) * abs(model.b) * abs(overlap_r(model, t)), abs=1e-12
            )

    def test_populations_are_frozen(self):
        model = sample_model(3, 2, a=0.6, b=0.8j)
        for t in (0.0, 9.0):
            state = reduced_system_state(model, t)
            assert state.rho00 == pytest.approx(0.36, abs=1e-12)
            assert state.rho11 == pytest.approx(0.64, abs=1e-12)

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError, match="unit trace"):
            ReducedState(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError, match="Hermitian"):
            ReducedState(np.array([[0.5, 0.1], [0.3, 0.5]]))
        with pytest.raises(ValueError, match="positive"):
            ReducedState(np.array([[0.5, 0.9], [0.9, 0.5]]))
        with pytest.raises(ValueError, match="2x2"):
            ReducedState(np.eye(3) / 3.0)


class TestStableProducts:
    def test_log_path_matches_direct_product(self):
        # Over 2000 time points a tile holds two sites, so these 70 sites are
        # multiplied in 35 renormalized blocks; the same factors multiplied
        # naively are still well inside double range, so both must agree.
        model = sample_model(70, 40)
        times = np.linspace(0.0, 4.0, 2000)
        r = overlap_r(model, times)
        for k in (200, 1649):
            w_up = np.abs(model.alphas) ** 2
            w_down = np.abs(model.betas) ** 2
            rotation = np.exp(1j * model.couplings * times[k])
            naive = np.prod(w_up * rotation + w_down / rotation)
            assert r[k] == pytest.approx(naive, abs=1e-12)

    def test_exact_zero_factor_short_circuits(self):
        # Site 1 points straight up and its observable part has no up-up
        # weight, so that factor is exactly 0 whatever the other sites give.
        sites = [(1.0, 0.0, 1.0)] + [(INV, INV, 1.0 + 0.01 * k) for k in range(69)]
        model = make_model(INV, INV, sites)
        parts = [np.array([[0.0, 0.0], [0.0, 1.0]])] + [IDENTITY_2] * 69
        obs = make_observable(IDENTITY_2, parts)
        assert gamma0(model, obs, 0.3) == 0.0

    def test_underflow_is_gradual(self):
        # 1200 equal balanced sites at t = 1: each overlap factor is cos 1, and
        # cos(1)^1200 = 1.457e-321 is a subnormal double, not zero.
        model = make_model(INV, INV, [(INV, INV, 1.0)] * 1200)
        expected = math.exp(1200 * math.log(math.cos(1.0)))
        assert 0.0 < expected < sys.float_info.min
        assert abs(overlap_r(model, 1.0) - expected) <= 4 * math.ulp(0.0)
        # cos(1)^1300 = e^-800 lies below the smallest subnormal.
        model = make_model(INV, INV, [(INV, INV, 1.0)] * 1300)
        assert overlap_r(model, 1.0) == 0.0

    def test_large_and_small_factors_balance(self):
        # Factors 1e200, 1e200, 1e-200, 1e-200 multiply to 1; no partial
        # product may overflow on the way.
        model = equal_superposition_model(4)
        scales = (1e200, 1e200, 1e-200, 1e-200)
        obs = make_observable(SIGMA_X, [s * IDENTITY_2 for s in scales])
        plain = eid_observable(0.0, 1.0, 0.0, 4)
        assert gamma0(model, obs, 0.7) == pytest.approx(1.0)
        value = expectation(model, obs, 0.7)
        assert math.isfinite(value)
        assert value == pytest.approx(expectation(model, plain, 0.7))


# Natural logs of the smallest normal double and of 2^-1075, below which a
# value rounds to 0.
LOG_TINY = math.log(sys.float_info.min)
LOG_ZERO = -1075 * math.log(2.0)


def _log_overlap_referee(model, t):
    """(log|r|, arg r) as fsums over sites, independent of the engine's product.

    log|r| = 1/2 sum_i log1p(-4 u_i (1 - u_i) sin^2(g_i t)) and
    arg r = sum_i atan2((2 u_i - 1) sin(g_i t), cos(g_i t)), with u_i = |alpha_i|^2.
    """
    u = np.abs(model.alphas) ** 2
    sin, cos = np.sin(model.couplings * t), np.cos(model.couplings * t)
    log_mag = 0.5 * math.fsum(np.log1p(-4.0 * u * (1.0 - u) * sin**2))
    phase = math.fsum(np.arctan2((2.0 * u - 1.0) * sin, cos))
    return log_mag, phase


@pytest.mark.parametrize("n_sites", [65, 1000, 10_000])
def test_overlap_matches_log_space_referee_at_large_n(n_sites):
    model = sample_model(n_sites, 3)
    # Out to t = 1.2 the N = 10^4 bath reaches log|r| of about -2000: the grid
    # crosses e^-700, the subnormal range and the exact-zero range.
    times = np.linspace(0.0, 1.2 * 10_000 / n_sites, 241)
    r = overlap_r(model, times)
    regimes = set()
    for t, value in zip(times.tolist(), r.tolist()):
        ref, phase = _log_overlap_referee(model, t)
        mag = abs(value)
        if ref > LOG_TINY:
            regimes.add("normal" if ref > -700.0 else "below e^-700")
            assert math.log(mag) == pytest.approx(ref, rel=1e-10, abs=1e-10)
            assert abs(math.remainder(math.atan2(value.imag, value.real) - phase, 2 * math.pi)) < 1e-9
        elif ref > LOG_ZERO:
            regimes.add("subnormal")
            assert abs(mag - math.exp(ref)) <= 1e-9 * math.exp(ref) + 4 * math.ulp(0.0)
        else:
            regimes.add("zero")
            assert value == 0.0
    if n_sites == 10_000:
        assert regimes == {"normal", "below e^-700", "subnormal", "zero"}


def test_overlap_memory_stays_bounded():
    # 10^4 sites x 2000 times would be 305 MiB per complex (N, T) matrix.
    model = sample_model(10_000, 0)
    times = np.linspace(0.0, 1.0, 2000)
    tracemalloc.start()
    try:
        overlap_r(model, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_eid_expectation_at_time_zero_closed_form():
    model = sample_model(4, 77, a=math.sqrt(0.3), b=math.sqrt(0.7) * np.exp(0.9j))
    s00, s01, s11 = 0.4, 0.1 - 0.6j, -0.2
    obs = eid_observable(s00, s01, s11, 4)
    closed = (
        abs(model.a) ** 2 * s00
        + abs(model.b) ** 2 * s11
        + 2.0 * np.real(model.a * np.conj(model.b) * np.conj(s01))
    )
    assert expectation(model, obs, 0.0) == pytest.approx(closed, abs=1e-12)
