"""Closed-form evaluator checks: hand-computable cases, symmetries, stability."""

import ast
import cmath
import dataclasses
import importlib.util
import math
import re
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import engine
from spinbath.engine import (
    _TILE_ELEMENTS,
    _TILE_SITES,
    _TILE_TIMES,
    ReducedState,
    _even_step,
    _expectation_products,
    expectation,
    overlap_r,
    reduced_system_state,
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


def gamma0(model, obs, t):
    """Population-sector product at t (real), one value per time."""
    return _expectation_products(model, obs, np.atleast_1d(t))[0]


def gamma1(model, obs, t):
    """Coherence-sector product at t (complex), one value per time."""
    return _expectation_products(model, obs, np.atleast_1d(t))[2]


@pytest.fixture
def fallback_points(monkeypatch):
    """Counts the time points whose block products are recomputed from split factors.

    The product kernel splits factors one by one only on that fallback, so
    every split it makes is counted, once per time point, product and site
    block.
    """
    count = [0]
    split = engine._split

    def counting_split(x):
        count[0] += x.shape[-1]
        return split(x)

    monkeypatch.setattr(engine, "_split", counting_split)
    return count


class TestGamma0:
    def test_identity_sites_give_one(self):
        model = sample_model(7, 3)
        obs = eid_observable(1.0, 0.5j, -1.0, 7)
        for t in (0.0, 2.3, -17.0):
            assert gamma0(model, obs, t)[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_offdiagonal_factor_is_cosine(self):
        # One site, alpha = beta = 1/sqrt 2, pure up/down part: the factor is
        # 2 Re((1/2) e^(-i t)) = cos t.
        model = equal_superposition_model(1)
        obs = make_observable(IDENTITY_2, [OFFDIAG])
        assert gamma0(model, obs, 0.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert gamma0(model, obs, math.pi / 2)[0] == pytest.approx(0.0, abs=1e-12)
        assert gamma0(model, obs, 1.3)[0] == pytest.approx(math.cos(1.3), abs=1e-12)

    def test_returns_real_scalar(self):
        model = sample_model(3, 0)
        obs = sample_observable(3, 1)
        out = gamma0(model, obs, 1.0)
        assert out.shape == (1,)
        assert out.dtype == np.float64

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="site"):
            gamma0(sample_model(3, 0), sample_observable(4, 0), 1.0)


class TestGamma1:
    def test_identity_sites_at_zero(self):
        model = sample_model(5, 2)
        obs = eid_observable(1.0, 0.0, 0.0, 5)
        assert gamma1(model, obs, 0.0)[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_single_up_site_is_pure_phase(self):
        model = make_model(INV, INV, [(1.0, 0.0, 2.0)])
        obs = eid_observable(1.0, 0.0, 0.0, 1)
        assert gamma1(model, obs, 0.5)[0] == pytest.approx(np.exp(1.0j), abs=1e-12)

    def test_two_sites_squared_cosine(self):
        model = equal_superposition_model(2)
        obs = eid_observable(1.0, 0.0, 0.0, 2)
        assert gamma1(model, obs, math.pi)[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

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
                + 2.0 * np.real(model.a * np.conj(model.b) * np.conj(s01) * gamma1(model, obs, t)[0])
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

    def test_rejects_a_time_array_of_two_dimensions(self):
        with pytest.raises(ValueError, match=r"got shape \(2, 3\)"):
            expectation(sample_model(3, 0), sample_observable(3, 1), np.zeros((2, 3)))


def relation_times(model, grid):
    """The grids the metamorphic relations run on: even or uneven up to 100/gbar, or t <= 1."""
    t_max = 100.0 / model.mean_coupling
    return {
        "even": np.linspace(0.0, t_max, 2000),
        "uneven": np.sort(np.random.default_rng(model.n_sites).uniform(0.0, t_max, 500)),
        "t<=1": np.linspace(0.0, 1.0, 2000),
    }[grid]


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

    def test_rejects_a_time_array_of_two_dimensions(self):
        with pytest.raises(ValueError, match=r"got shape \(2, 3\)"):
            overlap_r(sample_model(3, 0), np.zeros((2, 3)))

    @given(seed=seed_strategy, t=times_strategy)
    @settings(max_examples=40, deadline=None)
    def test_time_reversal_conjugates(self, seed, t):
        model = sample_model(5, seed)
        assert overlap_r(model, -t) == pytest.approx(
            np.conj(overlap_r(model, t)), abs=1e-12
        )

    @pytest.mark.parametrize("grid", ["even", "uneven"])
    @pytest.mark.parametrize("n_sites", [7, 100, 3000])
    def test_reversal_and_branch_swap_conjugate_exactly(self, n_sites, grid):
        # r(-t) and the model with alpha and beta swapped both give conj(r(t))
        # bit for bit: each factor's sine term changes sign, and round to
        # nearest is symmetric in sign, so every imaginary part does too.
        times = np.linspace(0.0, 4.0, 2000)
        if grid == "uneven":
            times = np.sort(np.random.default_rng(n_sites).uniform(0.0, 4.0, 500))
        model = sample_model(n_sites, 5)
        swapped = dataclasses.replace(model, alphas=model.betas, betas=model.alphas)
        expected = np.conj(overlap_r(model, times))
        assert np.array_equal(overlap_r(model, -times), expected)
        assert np.array_equal(overlap_r(swapped, times), expected)

    def test_reversal_and_branch_swap_conjugate_exactly_at_large_n(self):
        # At N = 10^4, 375 of the 2000 rows underflow to exactly 0 and must stay 0.
        model = sample_model(10**4, 5)
        swapped = dataclasses.replace(model, alphas=model.betas, betas=model.alphas)
        times = np.linspace(0.0, 1.0, 2000)
        expected = np.conj(overlap_r(model, times))
        assert np.count_nonzero(expected == 0) == 375
        assert np.array_equal(overlap_r(model, -times), expected)
        assert np.array_equal(overlap_r(swapped, times), expected)

    @pytest.mark.parametrize("probe", [(), (0.6, 0.8j), (0.8, -0.6)])
    @pytest.mark.parametrize(
        "n_sites, grid", [(n, g) for n in (7, 100, 3000) for g in ("even", "uneven")] + [(10**4, "t<=1")]
    )
    def test_probe_sigma_x_is_the_real_part_of_w_times_overlap(self, n_sites, grid, probe):
        # sigma_x on the probe with identity on every site: the coherence
        # product gamma1 has the overlap's factors, so the three-product
        # layout of expectation must give 2 Re(a conj(b) r) from the
        # one-product layout of overlap_r, bit for bit on normal rows.
        model = sample_model(n_sites, 5, *probe)
        times = relation_times(model, grid)
        r = overlap_r(model, times)
        w = 2.0 * model.a * np.conj(model.b)
        expected = r.real * w.real - r.imag * w.imag
        got = expectation(model, eid_observable(0.0, 1.0, 0.0, n_sites), times)
        normal = np.abs(expected) >= np.finfo(float).tiny
        assert np.array_equal(got[normal], expected[normal])
        assert np.all(np.abs(got[~normal] - expected[~normal]) <= 5e-324)

    @pytest.mark.parametrize("seed", [3, 5, 11])
    @pytest.mark.parametrize(
        "n_sites, grid", [(7, "even"), (100, "even"), (3000, "even"), (3000, "uneven"), (10**4, "t<=1")]
    )
    def test_halves_and_reversed_order_agree_within_rounding(self, n_sites, grid, seed):
        # r is a product over sites, so the product of the two halves' r and
        # r of the sites in reverse order equal it up to rounding: within
        # 4 N eps |r|, plus 8 units of the least subnormal where r underflows.
        model = sample_model(n_sites, seed)
        times = relation_times(model, grid)

        def sites(rows):
            return dataclasses.replace(
                model, alphas=model.alphas[rows], betas=model.betas[rows], couplings=model.couplings[rows]
            )

        r = overlap_r(model, times)
        half = n_sites // 2
        halves = overlap_r(sites(slice(None, half)), times) * overlap_r(sites(slice(half, None)), times)
        reverse = overlap_r(sites(slice(None, None, -1)), times)
        bound = 4 * n_sites * np.finfo(float).eps * np.abs(r) + 8 * 2.0**-1074
        assert np.all(np.abs(halves - r) <= bound)
        assert np.all(np.abs(reverse - r) <= bound)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_exact_relations_on_drawn_shapes(self, data):
        # Reversal and the branch swap conjugate r bit for bit, and sigma_x on
        # the probe is 2 Re(w r) on normal rows, at sizes, spans and grid
        # lengths the fixed cases do not reach: lone last runs, T just above a
        # multiple of the run, symmetric grids and scalar times.
        n_sites = data.draw(st.integers(1, 3000), label="N")
        model = sample_model(n_sites, data.draw(seed_strategy, label="seed"), *data.draw(
            st.sampled_from([(), (0.6, 0.8j), (0.8, -0.6)]), label="probe"))
        kind = data.draw(st.sampled_from(["even", "uneven", "scalar", "symmetric"]), label="grid")
        points = data.draw(st.integers(2, max(2, min(10_000, 2 * 10**6 // n_sites))), label="T")
        if data.draw(st.booleans(), label="lone last run"):
            run = math.isqrt(min(points, _TILE_TIMES))
            points = points - points % run + 1
        t_max = data.draw(st.floats(1e-3, 300.0), label="span") / model.mean_coupling
        times = {
            "even": lambda: np.linspace(0.0, t_max, points),
            "uneven": lambda: np.sort(np.random.default_rng(points).uniform(0.0, t_max, points)),
            "scalar": lambda: t_max,
            "symmetric": lambda: np.linspace(-t_max, t_max, points),
        }[kind]()
        swapped = dataclasses.replace(model, alphas=model.betas, betas=model.alphas)
        r = overlap_r(model, times)
        assert np.array_equal(overlap_r(model, -times), np.conj(r))
        assert np.array_equal(overlap_r(swapped, times), np.conj(r))
        w = 2.0 * model.a * np.conj(model.b)
        expected = np.atleast_1d(r.real * w.real - r.imag * w.imag)
        got = np.atleast_1d(expectation(model, eid_observable(0.0, 1.0, 0.0, n_sites), times))
        normal = np.abs(expected) >= np.finfo(float).tiny
        assert np.array_equal(got[normal], expected[normal])
        assert np.all(np.abs(got[~normal] - expected[~normal]) <= 5e-324)

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


def envelope_floor(model):
    """prod_i (2|alpha_i|^2 - 1)^2, the least |overlap_r|^2 can reach; 1 is the most.

    Each squared site factor oscillates between (2|alpha_i|^2 - 1)^2 and 1.
    """
    w_up, _ = engine._site_weights(model)
    return engine._product((2.0 * w_up - 1.0) ** 2)


class TestBounds:
    def test_balanced_sites_reach_zero(self, fallback_points):
        # 0.5 +/- 0.5i amplitudes keep |alpha|^2 exactly one half in floats.
        model = make_model(INV, INV, [(0.5 + 0.5j, 0.5 - 0.5j, 1.0)] * 3)
        assert envelope_floor(model) == 0.0
        # The exact zero factors send the product to the split fallback.
        assert fallback_points[0] == 1
        assert envelope_floor(equal_superposition_model(3)) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_bath_pins_modulus(self):
        model = make_model(INV, INV, [(1.0, 0.0, 1.0)] * 2)
        assert envelope_floor(model) == 1.0
        assert abs(overlap_r(model, 7.7)) == pytest.approx(1.0, abs=1e-12)

    def test_three_quarter_weight(self):
        alpha = math.sqrt(0.75)
        beta = math.sqrt(0.25)
        model = make_model(1.0, 0.0, [(alpha, beta, 1.0), (alpha, beta, 2.0)])
        assert envelope_floor(model) == pytest.approx(0.0625, abs=1e-12)

    @given(seed=seed_strategy, t=times_strategy)
    @settings(max_examples=40, deadline=None)
    def test_bounds_bracket_samples(self, seed, t):
        model = sample_model(6, seed)
        r2 = abs(overlap_r(model, t)) ** 2
        assert envelope_floor(model) - 1e-12 <= r2 <= 1.0 + 1e-12


def single_spin_reference(model, j, eps, t):
    """Closed form of a probe on environment spin ``j`` alone, one term per branch.

        |a|^2 f_j(+t) + |b|^2 f_j(-t),
        f_j(t) = |alpha_j|^2 eps_uu + |beta_j|^2 eps_dd
                   + 2 Re(conj(alpha_j) beta_j eps_ud e^(-i g_j t)).
    """
    alpha, beta, g = model.alphas[j - 1], model.betas[j - 1], model.couplings[j - 1]
    t = np.asarray(t, dtype=float)
    static = abs(alpha) ** 2 * eps[0, 0].real + abs(beta) ** 2 * eps[1, 1].real
    cross = np.conj(alpha) * beta * eps[0, 1]
    f_plus = static + 2.0 * np.real(cross * np.exp(-1j * g * t))
    f_minus = static + 2.0 * np.real(cross * np.exp(1j * g * t))
    return abs(model.a) ** 2 * f_plus + abs(model.b) ** 2 * f_minus


def single_spin(model, j, eps, t):
    return expectation(model, single_site_observable(j, eps, model.n_sites), t)


class TestSingleSpin:
    def test_sigma_z_is_time_independent(self):
        model = sample_model(4, 21)
        expected = abs(model.alphas[1]) ** 2 - abs(model.betas[1]) ** 2
        for t in (0.0, 5.0, 123.0):
            assert single_spin(model, 2, SIGMA_Z, t) == pytest.approx(expected, abs=1e-12)

    def test_sigma_x_up_branch_is_cosine(self):
        model = make_model(1.0, 0.0, [(INV, INV, 0.7)])
        ts = np.linspace(0.0, 30.0, 13)
        assert np.allclose(single_spin(model, 1, SIGMA_X, ts), np.cos(0.7 * ts), atol=1e-12)

    def test_periodicity(self):
        model = sample_model(5, 6)
        eps = sample_observable(1, 7).site_parts[0]
        j = 3
        period = 2.0 * math.pi / model.couplings[j - 1]
        for t in (0.0, 0.4, 2.9):
            assert single_spin(model, j, eps, t) == pytest.approx(
                single_spin(model, j, eps, t + period), abs=1e-12
            )

    def test_agrees_with_full_product_evaluation(self):
        # The product over all sites reduces to the two-branch closed form.
        model = sample_model(6, 31)
        eps = sample_observable(1, 32).site_parts[0]
        for t in (0.0, 1.7, 11.0):
            assert single_spin(model, 4, eps, t) == pytest.approx(
                single_spin_reference(model, 4, eps, t), abs=1e-12
            )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            single_spin(sample_model(2, 0), 3, SIGMA_Z, 0.0)


class TestReducedState:
    def test_initial_state_is_pure_projector(self):
        model = sample_model(5, 9, a=0.6, b=0.8)
        rho = reduced_system_state(model, 0.0).matrix
        vec = np.array([model.a, model.b])
        assert np.allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)

    def test_up_branch_has_no_coherence(self):
        model = make_model(1.0, 0.0, [(INV, INV, 1.0)])
        for t in (0.0, 2.0):
            rho = reduced_system_state(model, t).matrix
            assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)
            assert rho[0, 1] == 0.0

    def test_coherence_modulus_tracks_overlap(self):
        model = sample_model(8, 13)
        for t in (0.3, 4.4, 16.0):
            rho = reduced_system_state(model, t).matrix
            assert abs(rho[0, 1]) == pytest.approx(
                abs(model.a) * abs(model.b) * abs(overlap_r(model, t)), abs=1e-12
            )

    @pytest.mark.parametrize("shape", [(2,), (1, 1)])
    def test_rejects_an_array_of_times(self, shape):
        with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
            reduced_system_state(sample_model(3, 0), np.zeros(shape))

    def test_populations_are_frozen(self):
        model = sample_model(3, 2, a=0.6, b=0.8j)
        for t in (0.0, 9.0):
            rho = reduced_system_state(model, t).matrix
            assert rho[0, 0].real == pytest.approx(0.36, abs=1e-12)
            assert rho[1, 1].real == pytest.approx(0.64, abs=1e-12)

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError, match="unit trace"):
            ReducedState(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError, match="unit trace"):
            ReducedState(np.diag([0.5 + 1e-9, 0.5]))  # beyond the 1e-12 tolerance
        with pytest.raises(ValueError, match="reduced state off-diagonal entries must be conjugates"):
            ReducedState(np.array([[0.5, 0.1], [0.3, 0.5]]))
        with pytest.raises(ValueError, match="reduced state diagonal must be real"):
            ReducedState(np.array([[0.5 + 0.1j, 0.0], [0.0, 0.5 - 0.1j]]))
        with pytest.raises(ValueError, match="positive"):
            ReducedState(np.array([[0.5, 0.9], [0.9, 0.5]]))
        with pytest.raises(ValueError, match="2x2"):
            ReducedState(np.eye(3) / 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ReducedState(np.full((2, 2), bad))
        with pytest.raises(ValueError, match="finite"):
            ReducedState(np.array([[0.5, bad], [0.0, 0.5]]))


class TestStableProducts:
    def test_blocked_product_matches_naive_product(self):
        # Over 2000 time points a tile holds 1024 times and 32 sites, so these
        # 70 sites are multiplied in 3 renormalized blocks; the same factors
        # multiplied naively are still well inside double range, so both must
        # agree.
        model = sample_model(70, 40)
        times = np.linspace(0.0, 4.0, 2000)
        r = overlap_r(model, times)
        for k in (200, 1649):
            w_up = np.abs(model.alphas) ** 2
            w_down = np.abs(model.betas) ** 2
            rotation = np.exp(1j * model.couplings * times[k])
            naive = np.prod(w_up * rotation + w_down / rotation)
            assert r[k] == pytest.approx(naive, abs=1e-12)

    def test_exact_zero_factor_short_circuits(self, fallback_points):
        # Site 1 points straight up and its observable part has no up-up
        # weight, so that factor is exactly 0 whatever the other sites give.
        sites = [(1.0, 0.0, 1.0)] + [(INV, INV, 1.0 + 0.01 * k) for k in range(69)]
        model = make_model(INV, INV, sites)
        parts = [np.array([[0.0, 0.0], [0.0, 1.0]])] + [IDENTITY_2] * 69
        obs = make_observable(IDENTITY_2, parts)
        assert gamma0(model, obs, 0.3)[0] == 0.0
        # A zero block product is not trusted as is: it takes the fallback,
        # once for each of the three products.
        assert fallback_points[0] == 3
        # Over 2000 times the 70 sites span 5 blocks; only the first one, where
        # the products reach exact 0, is recomputed.
        times = np.linspace(0.0, 1.0, 2000)
        assert all(not p.any() for p in _expectation_products(model, obs, times))
        assert fallback_points[0] == 3 + 3 * times.size

    def test_underflow_is_gradual(self, fallback_points):
        # 1200 equal balanced sites at t = 1: each overlap factor is cos 1, and
        # cos(1)^1200 = 1.457e-321 is a subnormal double, not zero.
        model = make_model(INV, INV, [(INV, INV, 1.0)] * 1200)
        expected = math.exp(1200 * math.log(math.cos(1.0)))
        assert 0.0 < expected < sys.float_info.min
        assert abs(overlap_r(model, 1.0) - expected) <= 4 * math.ulp(0.0)
        # cos(1)^1300 = e^-800 lies below the smallest subnormal.
        model = make_model(INV, INV, [(INV, INV, 1.0)] * 1300)
        assert overlap_r(model, 1.0) == 0.0
        # A scalar time takes blocks of _TILE_SITES sites, and cos(1)^1000 is
        # about 2^-888, above the floor.  Factors of cos(pi/3) = 1/2 take the
        # first block to 2^-1000, through the fallback, and 1070 of them
        # multiply to 2^-1070, again a subnormal.
        assert fallback_points[0] == 0
        model = make_model(INV, INV, [(INV, INV, math.pi / 3)] * 1070)
        value = overlap_r(model, 1.0)
        expected = math.exp(1070 * math.log(math.cos(math.pi / 3) * (2 * INV * INV)))
        assert 0.0 < expected < sys.float_info.min
        assert abs(value - expected) <= 4 * math.ulp(0.0)
        assert fallback_points[0] == 1

    def test_large_and_small_factors_balance(self):
        # Factors 1e200, 1e200, 1e-200, 1e-200 multiply to 1; no partial
        # product may overflow on the way.
        model = equal_superposition_model(4)
        scales = (1e200, 1e200, 1e-200, 1e-200)
        obs = make_observable(SIGMA_X, [s * IDENTITY_2 for s in scales])
        plain = eid_observable(0.0, 1.0, 0.0, 4)
        assert gamma0(model, obs, 0.7)[0] == pytest.approx(1.0)
        value = expectation(model, obs, 0.7)
        assert math.isfinite(value)
        assert value == pytest.approx(expectation(model, plain, 0.7))


class TestSplitFallback:
    """Block products that leave the normal range are recomputed from split factors."""

    @staticmethod
    def _products(model, obs, times):
        return [overlap_r(model, times), envelope_floor(model)] + _expectation_products(
            model, obs, times
        )

    @pytest.mark.parametrize(
        "model, obs, times",
        [
            (sample_model(70, 40), sample_observable(70, 41), np.linspace(0.0, 4.0, 2000)),
            # Factors of 1e200 and 1e-200, scaled by their bounds.
            (
                equal_superposition_model(4),
                make_observable(SIGMA_X, [s * IDENTITY_2 for s in (1e200, 1e200, 1e-200, 1e-200)]),
                np.linspace(0.0, 1.4, 3),
            ),
        ],
    )
    def test_forced_fallback_is_bit_identical(self, monkeypatch, fallback_points, model, obs, times):
        fast = self._products(model, obs, times)
        assert fallback_points[0] == 0
        # With an infinite floor every finite block product takes the fallback.
        monkeypatch.setattr(engine, "_FLOOR", math.inf)
        split = self._products(model, obs, times)
        rows = min(_TILE_SITES, _TILE_ELEMENTS // min(times.size, _TILE_TIMES))
        blocks = -(-model.n_sites // rows)
        # Four products over every time point and every block, one envelope point.
        assert fallback_points[0] == 4 * times.size * blocks + 1
        for a, b in zip(fast, split):
            assert np.array_equal(a, b)

    @staticmethod
    def _block(rows, width, dtype, seed):
        """Random C-contiguous factors, modulus in [1/2, 1]: products stay in the normal range."""
        rng = np.random.default_rng(seed)
        size = (rows, width)
        if dtype is float:
            return rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size)
        return rng.uniform(0.5, 1.0, size) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size))

    @staticmethod
    def _folded(block):
        """(mantissa, exponent) of _fold over ``block``, starting from a product of 1."""
        mantissa = np.ones(block.shape[1], block.dtype)
        exponent = np.zeros(block.shape[1], np.int64)
        engine._fold(mantissa, exponent, block)
        return mantissa, exponent

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 1024])
    def test_fold_multiplies_rows_in_order_at_any_width(self, fallback_points, dtype, width):
        for seed in range(20):
            block = self._block(16, width, dtype, seed)
            mantissa, exponent = self._folded(block)
            ref = block[0].copy()
            for row in block[1:]:
                ref = ref * row
            _, carry = np.frexp(np.maximum(np.abs(ref.real), np.abs(ref.imag)))
            assert np.array_equal(mantissa, engine._ldexp(ref, -carry))
            assert np.array_equal(exponent, carry)
        assert fallback_points[0] == 0

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_lone_fallback_column_matches_the_fast_path(self, monkeypatch, dtype):
        # A point that falls back alone rounds as it does among others and on
        # the fast path.
        for seed in range(20):
            block = self._block(16, 5, dtype, seed)
            fast = self._folded(block)
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_FLOOR", math.inf)
                forced = self._folded(block)
                lone = [self._folded(block[:, [j]]) for j in range(block.shape[1])]
            for j, (mantissa, exponent) in enumerate(lone):
                for got in (forced, fast):
                    assert mantissa[0] == got[0][j] and exponent[0] == got[1][j]

    @pytest.mark.parametrize("near_balanced", [1000, 2000])
    def test_envelope_blocks_below_the_floor(self, monkeypatch, fallback_points, near_balanced):
        # (2u - 1)^2 = 1.02 * 2^-20 per near-balanced site: scaled by 2^-19 it
        # is 0.51, and 0.51^1000 = 2^-971 in a block of _TILE_SITES sites, so
        # each block of them that is multiplied takes the fallback.  The other
        # sites have u = 1 and factor 1.  After the first block the running
        # envelope is 2^-19971 or 2^-38971 (the scale of every site counts from
        # the start), certainly 0, so the second block is not multiplied.
        assert _TILE_SITES == 1000
        folds = [0]
        fold = engine._fold

        def counting_fold(*args):
            folds[0] += 1
            fold(*args)

        monkeypatch.setattr(engine, "_fold", counting_fold)
        u = 0.5 * (1.0 + 2.0**-10 * math.sqrt(1.02))
        sites = [(math.sqrt(u), math.sqrt(1.0 - u), 1.0)] * near_balanced
        sites += [(1.0, 0.0, 1.0)] * (2000 - near_balanced)
        model = make_model(INV, INV, sites)
        lower = envelope_floor(model)
        assert folds[0] == 1  # of two blocks: the point was dropped after the first
        assert fallback_points[0] == folds[0]
        w_up = model.alphas.real**2 + model.alphas.imag**2
        log2_lower = math.fsum(np.log2((2.0 * w_up - 1.0) ** 2))
        assert log2_lower < -1074
        assert lower == 0.0

    def test_envelope_of_a_normal_value_through_the_fallback(self, fallback_points):
        # 1000 sites of (2u - 1)^2 = 0.51 multiply to 2^-971.5, a normal double
        # reached only through a block product below the floor.
        u = 0.5 * (1.0 + math.sqrt(0.51))
        model = make_model(INV, INV, [(math.sqrt(u), math.sqrt(1.0 - u), 1.0)] * 1000)
        lower = envelope_floor(model)
        assert fallback_points[0] == 1
        w_up = model.alphas.real**2 + model.alphas.imag**2
        log_lower = math.fsum(np.log((2.0 * w_up - 1.0) ** 2))
        assert sys.float_info.min < lower
        assert math.log(lower) == pytest.approx(log_lower, rel=1e-13)


def _near_balanced_model(n_sites=1000):
    """Sites of (2u - 1)^2 = 1.02 * 2^-20 and coupling 1, as in TestSplitFallback.

    Each overlap factor is cos t + i (2u - 1) sin t, so at t in [1.0, 1.2]
    a block of _TILE_SITES of them multiplies to between 2^-889 and 2^-1465:
    above the floor, below it but normal, subnormal, and 0.
    """
    u = 0.5 * (1.0 + 2.0**-10 * math.sqrt(1.02))
    return make_model(INV, INV, [(math.sqrt(u), math.sqrt(1.0 - u), 1.0)] * n_sites)


class TestScaleIndependence:
    """The kernel's results do not depend on which power-of-two bound scales each site."""

    @staticmethod
    def _products(model, obs, t):
        times = np.atleast_1d(t)
        return [np.asarray(overlap_r(model, t))] + _expectation_products(model, obs, times)

    @pytest.mark.parametrize(
        "model, obs, t",
        [
            (sample_model(70, 40), sample_observable(70, 41), np.linspace(0.0, 4.0, 2000)),
            (
                sample_model(70, 40),
                sample_observable(70, 41),
                np.sort(np.random.default_rng(3).uniform(-5.0, 40.0, 300)),
            ),
            (sample_model(70, 40), sample_observable(70, 41), 0.7),
            # At most 16 times take blocks of _TILE_SITES sites.
            (_near_balanced_model(), sample_observable(1000, 7), np.linspace(1.0, 1.2, 9)),
            (_near_balanced_model(), sample_observable(1000, 7), np.array([1.0, 1.03, 1.1, 1.2])),
            (_near_balanced_model(), sample_observable(1000, 7), 1.1),
        ],
        ids=[
            "even", "uneven", "scalar",
            "near-balanced-even", "near-balanced-uneven", "near-balanced-scalar",
        ],
    )
    def test_bounds_times_a_power_of_two_give_the_same_bits(
        self, monkeypatch, fallback_points, model, obs, t
    ):
        base = self._products(model, obs, t)
        if model.n_sites == 1000:
            assert fallback_points[0] > 0
        kernel = engine._site_products
        for k in (1, 17, 60):

            def scaled(couplings, times, bound, coefficients, **rows):
                return kernel(couplings, times, np.ldexp(bound, k), coefficients, **rows)

            before = fallback_points[0]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_site_products", scaled)
                got = self._products(model, obs, t)
            for a, b in zip(base, got):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            if k == 60:
                # Sixteen factors of modulus at most 2^-60 multiply below the floor.
                assert fallback_points[0] > before


class TestNearTheDoubleRange:
    """Site parts whose moduli sum beyond the double range are still scaled by their bound."""

    @staticmethod
    def _observable(n_sites, last):
        parts = [0.5 * IDENTITY_2] * (n_sites - 1) + [last * np.ones((2, 2))]
        return make_observable(np.diag([1.0, 0.0]), parts)

    def test_a_near_range_part_scales_the_expectation_linearly(self):
        # The four moduli of the last part sum to inf, though each is finite;
        # unscaled, its factors broke the fold's premise and every value came
        # out exactly 0.  The value is linear in that part.
        model, times = sample_model(2001, 0), np.linspace(0.0, 5.0, 5)
        big = expectation(model, self._observable(2001, 1.7e308), times)
        small = expectation(model, self._observable(2001, 1e307), times)
        assert np.all(np.abs(small) > np.finfo(float).tiny)
        np.testing.assert_allclose(big, 17.0 * small, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_folded_factor_has_modulus_at_most_one(self, monkeypatch, seed):
        # The drop rule and _fold's floor both rest on it.
        fold = engine._fold
        largest = [0.0]

        def checking_fold(mantissa, exponent, block):
            largest[0] = max(largest[0], float(np.abs(block).max(initial=0.0)))
            fold(mantissa, exponent, block)

        monkeypatch.setattr(engine, "_fold", checking_fold)
        rng = np.random.default_rng(seed)
        n_sites = int(rng.integers(1, 200))
        model, obs = sample_model(n_sites, seed), sample_observable(n_sites, seed + 1)
        huge = obs.site_parts.copy()
        rows = rng.choice(n_sites, max(1, n_sites // 10), replace=False)
        huge[rows] /= np.abs(huge[rows]).max(axis=(1, 2))[:, None, None]
        huge[rows] *= 1.7e308  # largest entry modulus
        near_range = make_observable(obs.system_part, huge)
        even = np.linspace(0.0, 100.0 / model.mean_coupling, 700)
        for t in (even, np.sort(rng.uniform(-5.0, 5.0, 50)), 0.3):
            overlap_r(model, t)
            with np.errstate(over="ignore", invalid="ignore"):  # products beyond the double range
                for o in (obs, near_range):
                    expectation(model, o, t)
        assert 0.0 < largest[0] <= 1.0 + 8 * EPS


class TestProduct:
    """engine._product: the kernel with one value per site."""

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    @pytest.mark.parametrize("log2_target", [-300, -1060])
    def test_equals_the_exact_product_rounded_once(self, n, log2_target):
        # Powers of two and at most 16 factors 5/4, 3/2 or 7/4 multiply to an
        # odd integer below 7^16 < 2^45 times a power of two, so every partial
        # product the kernel forms is exact and only its final ldexp rounds:
        # not at all at 2^-300, to 14 bits at 2^-1060.  The powers of two come
        # in pairs 2^e, 2^-e, shuffled, and three values carry the target.
        rng = np.random.default_rng(n)
        half = rng.integers(-60, 61, n // 2)
        powers = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2, int)]))
        values = np.ldexp(rng.choice([-1.0, 1.0], n), powers)
        odd = rng.choice(n, min(n, 16), replace=False)
        values[odd] *= rng.choice([1.25, 1.5, 1.75], odd.size)
        with mpmath.workprec(64):
            log2 = mpmath.log(abs(mpmath.fprod(values.tolist())), 2)
            shift = log2_target - int(mpmath.floor(log2))
            steps = np.diff(np.linspace(0, shift, 4).round()).astype(int)
            values[:3] = np.ldexp(values[:3], steps)
            exact = mpmath.fprod(values.tolist())
            expected = float(exact)  # mpmath rounds an mpf of <= 53 bits once
            assert math.frexp(expected)[1] - 1 == log2_target
            assert (mpmath.mpf(expected) != exact) == (log2_target < -1022)
        assert engine._product(values) == expected

    def test_rounds_once_where_a_running_product_rounds_twice(self):
        # 2^-1070 (35/32)^2 = 19.14 * 2^-1074 rounds once to 19 * 2^-1074.  A
        # running product is already subnormal at 2^-1070 and rounds 17.5 up
        # to 18, then 19.69 up to 20.
        values = np.array([2.0**-1000, 2.0**-70, 1.09375, 1.09375])
        assert engine._product(values) == 19 * 2.0**-1074
        assert np.prod(values) == 20 * 2.0**-1074

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_np_prod_up_to_one_block(self, seed):
        # Up to _TILE_SITES values the kernel multiplies in order from 1, as
        # np.prod does: the fluctuation prediction of fluctuation_n20.json
        # and the reduced state's site norms.
        w_up, w_down = engine._site_weights(sample_model(20, seed))
        assert engine._product(w_up**2 + w_down**2) == np.prod(w_up**2 + w_down**2)
        for n_sites in (20, _TILE_SITES):
            w_up, w_down = engine._site_weights(sample_model(n_sites, seed))
            assert engine._product(w_up + w_down) == np.prod(w_up + w_down)


def _recording(monkeypatch):
    """Counts the site-points of every block that ``_fold`` multiplies, per product."""
    count = [0]
    fold = engine._fold

    def recording_fold(mantissa, exponent, block):
        count[0] += block.size
        fold(mantissa, exponent, block)

    monkeypatch.setattr(engine, "_fold", recording_fold)
    return count


class TestDrop:
    """Points certainly below 2^-1075 after a block are not multiplied further."""

    @staticmethod
    def _products(values_re, values_im=None):
        """The kernel's product of one value per site at one time, and the site-points it multiplied."""
        values = values_re if values_im is None else values_re + 1j * values_im
        with pytest.MonkeyPatch.context() as patch:
            count = _recording(patch)
            out = engine._site_products(np.zeros(len(values)), np.zeros(1), np.abs(values), ((values, 0, 0),))
        return out[0][0], count[0]

    @pytest.mark.parametrize("halves", [1074, 1075, 1076, 1077, 1078])
    def test_halves_then_ones(self, halves):
        # Each 1/2 is scaled to 1 and its 2^-1 goes to the exponent up front,
        # so the first block leaves m = 1/2 at e = 1 - halves: -1076 at 1077
        # halves is kept, -1077 at 1078 is dropped.  2^-1074 is the least
        # subnormal, and 2^-1075 rounds to 0 (a tie, to even).
        assert _TILE_SITES == 1000
        values = np.concatenate([np.full(halves, 0.5), np.ones(5000)])
        product, site_points = self._products(values)
        assert product == (2.0**-1074 if halves == 1074 else 0.0)
        assert not math.copysign(1.0, product) < 0
        assert site_points == (1000 if halves == 1078 else values.size)
        assert engine._product(values) == product

    def test_complex_product_that_grows_after_the_drop(self, monkeypatch):
        # The first block multiplies to (0.98 + 0.98i) 2^-1077 after 2^-500
        # and 2^-576 go to the exponent, and is dropped.  The second block's
        # 0.7 - 0.7i would turn it into 1.372 2^-1077: its larger component
        # grows by 1.4, about sqrt(2), and still rounds to +0.0.
        re, im = np.ones(2000), np.zeros(2000)
        re[:4] = 2.0**-500, 2.0**-576, 0.7, 0.7
        im[2] = 0.7
        re[1000], im[1000] = 0.7, -0.7
        dropped, site_points = self._products(re, im)
        assert site_points == 1000
        monkeypatch.setattr(engine, "_DROP", -math.inf)
        full, site_points = self._products(re, im)
        assert site_points == 2000
        for value in (dropped, full):
            assert value == 0
            assert not np.signbit(value.real) and not np.signbit(value.imag)

    def test_most_of_a_large_bath_is_not_multiplied(self, monkeypatch):
        model = sample_model(10_000, 5)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, 400)
        plain = overlap_r(model, times)
        count = _recording(monkeypatch)
        recorded = overlap_r(model, times)
        assert 0 < count[0] < model.n_sites * times.size
        assert np.array_equal(recorded, plain)
        assert np.count_nonzero(plain == 0) > 0

    def test_a_small_bath_is_multiplied_in_full(self, monkeypatch):
        model = sample_model(48, 0)
        obs = sample_observable(48, 10**6)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, 200_000)
        plain = _expectation_products(model, obs, times)
        count = _recording(monkeypatch)
        recorded = _expectation_products(model, obs, times)
        # Three products, each folded over every site-point.
        assert count[0] == 3 * model.n_sites * times.size
        for a, b in zip(recorded, plain):
            assert np.array_equal(a, b)

    def test_an_empty_grid_gives_empty_products(self):
        model, obs = sample_model(5, 1), sample_observable(5, 2)
        assert overlap_r(model, np.array([])).shape == (0,)
        assert all(p.shape == (0,) for p in _expectation_products(model, obs, np.array([])))

    @pytest.mark.parametrize("even", [True, False])
    @pytest.mark.parametrize("n_sites, points", [(10_000, 400), (3000, 400), (300, 5000)])
    def test_dropping_keeps_every_bit(self, monkeypatch, even, n_sites, points):
        # With _DROP at -inf every site is multiplied at every point.  The
        # uneven grid at N = 10^4 narrows a window to one live point.
        model = sample_model(n_sites, 5)
        t_max = 100.0 / model.mean_coupling
        if even:
            times = np.linspace(0.0, t_max, points)
        else:
            times = np.sort(np.random.default_rng(n_sites + points).uniform(0.0, t_max, points))
        dropped = overlap_r(model, times)
        monkeypatch.setattr(engine, "_DROP", -math.inf)
        assert np.array_equal(overlap_r(model, times), dropped)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_dropping_to_one_run_keeps_every_bit(self, monkeypatch, seed):
        # A grid centred near t = 0 whose few live points fit in one run of 32
        # once the rest have died: the narrowed window spans a lone run, and
        # its factors round as they do among the chunk's other runs.
        model = sample_model(3000, seed)
        u = model.alphas.real**2 + model.alphas.imag**2
        t_zero = math.sqrt(2 * 745 / np.sum(4 * u * (1 - u) * model.couplings**2))
        times = np.linspace(-200.0, 200.0, 2000) * t_zero
        dropped = overlap_r(model, times)
        assert 0 < np.count_nonzero(dropped) <= 32
        monkeypatch.setattr(engine, "_DROP", -math.inf)
        assert np.array_equal(overlap_r(model, times), dropped)


@pytest.mark.parametrize("seed", [5, 6])
def test_a_scalar_time_equals_the_same_time_in_a_grid(seed):
    # A lone time point is folded and its coarse stack built as it is among
    # others: no 1-element in-place multiply, no one-row matrix product.
    model = sample_model(10_000, seed)
    small, obs = sample_model(48, seed), sample_observable(48, seed + 1)
    for t in np.linspace(0.01, 0.3, 50).tolist():
        assert overlap_r(model, t) == overlap_r(model, np.array([t, t]))[0]
        assert expectation(small, obs, t) == expectation(small, obs, np.array([t, t, t]))[1]


class TestTileConstruction:
    """Each factor the matrix products build is a + b cos(g t) + c sin(g t) to a few ulp."""

    @staticmethod
    def _tiles(monkeypatch, couplings, times, bound, coefficients):
        """Every factor the kernel builds, one (sites, times) array per product.

        The factors here stay near 1, so no point is dropped.  Each block that
        ``_fold`` sees is placed by what it multiplies, not by when: its
        columns are the times of the running mantissa, which lives in a result
        array, and each time point meets its site blocks in site order.
        """
        folds = []
        fold = engine._fold

        def recording_fold(mantissa, exponent, block):
            folds.append((mantissa.__array_interface__["data"][0], block.copy()))
            fold(mantissa, exponent, block)

        monkeypatch.setattr(engine, "_fold", recording_fold)
        results = engine._site_products(couplings, times, bound, coefficients)
        tiles = [np.full((couplings.size, times.size), np.nan, r.dtype) for r in results]
        filled = [np.zeros(times.size, int) for _ in results]
        for address, block in folds:
            (k,) = [k for k, r in enumerate(results) if 0 <= address - r.ctypes.data < r.nbytes]
            first = (address - results[k].ctypes.data) // results[k].itemsize
            columns = np.arange(first, first + block.shape[1])
            tiles[k][filled[k][columns] + np.arange(block.shape[0])[:, None], columns] = block
            filled[k][columns] += block.shape[0]
        assert all(np.all(f == couplings.size) for f in filled)
        return tiles

    @staticmethod
    def _phase(couplings, times):
        """(cos, sin) of the phase each factor uses, alpha + beta, summed without rounding.

        On an evenly spaced grid a point takes the coarse angle g t at its
        run's first time plus the fine angle g (p h); elsewhere g t alone.
        The rounding error e of alpha + beta = s + e (TwoSum) goes in to
        first order: cos(s + e) = cos s - e sin s.
        """
        step = _even_step(times)
        cols = max(1, min(times.size, _TILE_TIMES))
        run = 1 if step is None else math.isqrt(cols)
        k = np.arange(times.size)
        offset = k % cols % run
        alpha = np.outer(couplings, times[k - offset])
        beta = np.outer(couplings, offset * (step or 0.0))
        s = alpha + beta
        b = s - alpha
        e = (alpha - (s - b)) + (beta - b)
        return np.cos(s) - e * np.sin(s), np.sin(s) + e * np.cos(s)

    @pytest.mark.parametrize(
        "times",
        [
            np.linspace(0.0, 3.0, 2000),
            np.linspace(-40.0, 40.0, 2000),
            np.linspace(-3.0, 7.0, 400),
            np.sort(np.random.default_rng(1).uniform(-5.0, 5.0, 300)),
            np.array([0.7]),
        ],
        ids=["even", "even-wide", "even-400", "uneven", "scalar"],
    )
    def test_factors_within_4_ulp(self, monkeypatch, times):
        rng = np.random.default_rng(0)
        n = 70
        couplings = rng.uniform(0.1, 2.0, n)
        a, b, c = rng.standard_normal((3, n))
        za, zc = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        coefficients = ((a, b, c), (za, b, zc), (0, a, 1j * b))
        bound = sum(np.abs(x) for x in (a, b, c, za, zc))
        cos, sin = self._phase(couplings, times)
        # The kernel divides each site's coefficients by the least power of
        # two at or above its bound: exact here, so it is done the same way.
        fraction, powers = np.frexp(bound)
        scale = np.ldexp(1.0, np.where(fraction == 0.5, 1, 0) - powers)[:, None]
        tiles = self._tiles(monkeypatch, couplings, times, bound, coefficients)
        assert [tile.dtype for tile in tiles] == [float, complex, complex]
        for triple, tile in zip(coefficients, tiles):
            a, b, c = (np.broadcast_to(x, (n,))[:, None] * scale for x in triple)
            expected = a + b * cos + c * sin
            ulp = np.spacing(np.abs(a) + np.abs(b) + np.abs(c))
            assert np.all(np.abs(tile.real - expected.real) <= 4 * ulp)
            assert np.all(np.abs(tile.imag - expected.imag) <= 4 * ulp)


def test_only_the_kernel_calls_prod():
    # Every per-site product goes through _site_products: no module of the
    # package calls np.prod, ndarray.prod, math.prod or the like anywhere
    # but in engine._row_product.
    found = []
    for path in sorted(Path(engine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "_row_product":
                kernel = (path.name, range(node.lineno, node.end_lineno + 1))
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                func = node.func
                names = [func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")]
            else:
                continue
            if any(name.endswith("prod") for name in names):
                found.append((path.name, node.lineno))
    assert len(found) == 1
    assert found[0][0] == kernel[0] and found[0][1] in kernel[1]


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


def _refereed_rows(model, times):
    """(t, overlap_r, referee) for each time, the overlaps from one engine call."""
    values = overlap_r(model, np.array(times)).tolist()
    return [(t, value, _log_overlap_referee(model, t)) for t, value in zip(times, values)]


def _rows_around_crossings(model, rows, levels):
    """Rows at 1 -/+ 1e-4 times the first time where log|r| falls through each level.

    Between two grid rows log|r| is close to -c t^2, so the crossing is
    interpolated linearly in t^2; at N = 10^5 that lands within 0.005 of each
    level, and the rows lie about 0.15 either side.
    """
    times = []
    for level in levels:
        k = next(k for k, (_, _, (ref, _)) in enumerate(rows) if ref < level)
        (t0, _, (ref0, _)), (t1, _, (ref1, _)) = rows[k - 1], rows[k]
        crossing = math.sqrt(t0**2 + (level - ref0) * (t1**2 - t0**2) / (ref1 - ref0))
        times += [crossing * (1 - 1e-4), crossing * (1 + 1e-4)]
    return _refereed_rows(model, times)


@pytest.mark.parametrize("n_sites", [65, 1000, 10_000, 100_000])
def test_overlap_matches_log_space_referee_at_large_n(n_sites):
    model = sample_model(n_sites, 3)
    if n_sites < 100_000:
        # Out to t = 1.2 the N = 10^4 bath reaches log|r| of about -2000: the
        # grid crosses e^-700, the subnormal range and the exact-zero range.
        rows = _refereed_rows(model, np.linspace(0.0, 1.2 * 10_000 / n_sites, 241).tolist())
    else:
        # The referee takes about 20 ms a row here, so 33 rows go out to
        # t = 0.4, where log|r| is about -1800.  The step from t = 0.25 to
        # 0.2625 takes log|r| from -698 to -769, over both the e^-700 mark
        # and the subnormal range, so six uneven rows (the engine's direct
        # path) straddle the three crossings.
        rows = _refereed_rows(model, np.linspace(0.0, 0.4, 33).tolist())
        rows += _rows_around_crossings(model, rows, (-700.0, LOG_TINY, LOG_ZERO))
    regimes = set()
    for t, value, (ref, phase) in rows:
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
    if n_sites >= 10_000:
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


@pytest.mark.parametrize(
    "times, limit",
    [(np.sort(np.random.default_rng(1).uniform(0.0, 1.0, 2000)), 3 * 2**20), (0.3, 2**20)],
    ids=["uneven", "scalar"],
)
def test_direct_path_buffers_are_sized_for_it(times, limit):
    # Uneven grids and scalar times take the direct path: one coarse column
    # per part and no fine stage.  Angle-addition sizing would trace about
    # 3.3 MiB on the uneven grid and 1.2 MiB at the scalar time.
    model = sample_model(10_000, 0)
    assert _even_step(np.atleast_1d(times)) is None
    tracemalloc.start()
    try:
        overlap_r(model, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_expectation_memory_stays_bounded():
    # 48 sites x 2e5 times would be 146 MiB per complex (N, T) matrix; the
    # rotation buffers must stay tile-sized next to the O(T) results.
    model = sample_model(48, 0)
    obs = sample_observable(48, 10**6)
    times = np.linspace(0.0, 100.0 / model.mean_coupling, 200_000)
    tracemalloc.start()
    try:
        expectation(model, obs, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_products_write_time_chunks_in_place():
    # 196 chunks of 1024 points: the results (6.1 MiB for gamma0 at +-t and
    # gamma1) are allocated once and each chunk is written into them, with no
    # second copy from joining per-chunk pieces.
    model = sample_model(48, 0)
    obs = sample_observable(48, 10**6)
    times = np.linspace(0.0, 100.0 / model.mean_coupling, 200_000)
    tracemalloc.start()
    try:
        results = _expectation_products(model, obs, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sum(r.nbytes for r in results) + 2 * 2**20


def test_expectation_combines_products_in_place():
    # The three products are combined inside their own arrays, so the
    # expectation peaks no higher than the products it is built from.
    model = sample_model(48, 0)
    obs = sample_observable(48, 10**6)
    times = np.linspace(0.0, 100.0 / model.mean_coupling, 200_000)
    peaks = []
    for f in (_expectation_products, expectation):
        tracemalloc.start()
        try:
            f(model, obs, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 2**20


def test_chunks_match_separate_calls():
    # An uneven grid takes cos and sin of every g t, so each _TILE_TIMES-point
    # chunk is exactly what a call over that chunk alone returns.
    model = sample_model(3, 4)
    obs = sample_observable(3, 5)
    times = np.sort(np.random.default_rng(6).uniform(0.0, 50.0, 2 * _TILE_TIMES + 100))
    assert _even_step(times) is None
    chunks = [times[c : c + _TILE_TIMES] for c in range(0, times.size, _TILE_TIMES)]
    assert np.array_equal(overlap_r(model, times), np.concatenate([overlap_r(model, c) for c in chunks]))
    whole = _expectation_products(model, obs, times)
    parts = [_expectation_products(model, obs, c) for c in chunks]
    for k, result in enumerate(whole):
        assert np.array_equal(result, np.concatenate([p[k] for p in parts]))


class TestPieceAndChunkSizes:
    """Piece and chunk sizes set memory and speed only: no byte moves with them.

    Each is patched to its smallest legal value (a piece or chunk of one run),
    its default and a value above the number of times.  A point's factors
    depend only on the run geometry and the fold partition, which neither
    changes.
    """

    SIZES = [1, None, 10**6]

    @staticmethod
    def _outputs(model, obs, t):
        w_up, w_down = engine._site_weights(model)
        outputs = [overlap_r(model, t), expectation(model, obs, t), engine._product(w_up + w_down)]
        if np.ndim(t) == 0:
            outputs.append(reduced_system_state(model, t).matrix)
        return outputs

    @pytest.mark.parametrize("piece", SIZES)
    @pytest.mark.parametrize("chunk", SIZES)
    @pytest.mark.parametrize(
        "t",
        [
            np.linspace(0.0, 3.0, 2000),
            np.sort(np.random.default_rng(2).uniform(-3.0, 3.0, 300)),
            0.7,
        ],
        ids=["even", "uneven", "scalar"],
    )
    def test_sizes_move_no_byte(self, monkeypatch, piece, chunk, t):
        model, obs = sample_model(300, 8), sample_observable(300, 9)
        expected = self._outputs(model, obs, t)
        for name, size in (("_PIECE_ELEMENTS", piece), ("_CHUNK_TIMES", chunk)):
            if size is not None:
                monkeypatch.setattr(engine, name, size)
        for got, want in zip(self._outputs(model, obs, t), expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed, zeros", [(5, 375), (0, 394)])
    @pytest.mark.parametrize("piece, chunk", [(1, None), (None, 1), (10**6, 10**6)])
    def test_sizes_move_no_byte_where_points_drop(self, monkeypatch, seed, zeros, piece, chunk):
        # Out to t = 1 the rows of a 10^4-site bath fall to exactly 0 one by
        # one: windows narrow from the end of the grid.
        model = sample_model(10_000, seed)
        times = np.linspace(0.0, 1.0, 2000)
        expected = overlap_r(model, times)
        assert np.count_nonzero(expected == 0) == zeros
        for name, size in (("_PIECE_ELEMENTS", piece), ("_CHUNK_TIMES", chunk)):
            if size is not None:
                monkeypatch.setattr(engine, name, size)
        assert np.array_equal(overlap_r(model, times), expected)


class TestRowSelection:
    """``overlap_r(model, t, rows=s)`` has the bytes of ``overlap_r(model, t)[s]`` and multiplies no other row."""

    @staticmethod
    def _assert_rows_match(model, times, bounds):
        full = overlap_r(model, times)
        for start, stop in bounds:
            got = overlap_r(model, times, rows=slice(start, stop))
            want = full[start:stop]
            assert got.dtype == want.dtype and got.shape == want.shape, (start, stop)
            assert got.tobytes() == want.tobytes(), (start, stop)

    @pytest.mark.parametrize("size", [1023, 1024, 4096, 4097])
    def test_even_grids_at_run_piece_and_chunk_edges(self, size):
        # Runs of 31 (T = 1023) or 32 times, pieces of 1023 or 1024 and
        # chunks of 4092 or 4096 times: ranges start, end and cross there.
        model = sample_model(100, 7)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, size)
        edges = (0, 1, 2, 30, 31, 32, 33, 63, 64, 1000, 1022, 1023, 1024, 1025, 4091, 4092, 4095, 4096)
        bounds = [(a, b) for a in edges for b in (a + 1, a + 2, a + 40, a + 1100, size) if b <= size]
        self._assert_rows_match(model, times, bounds + [(size - 1, size), (0, size), (size - 3, size + 10)])

    @pytest.mark.parametrize(
        "grid",
        [
            lambda t_max: np.sort(np.random.default_rng(3).uniform(0.0, t_max, 700)),
            lambda t_max: np.linspace(-t_max, t_max, 999),
        ],
        ids=["uneven", "symmetric"],
    )
    def test_uneven_and_symmetric_grids(self, grid):
        model = sample_model(300, 4)
        times = grid(100.0 / model.mean_coupling)
        self._assert_rows_match(model, times, [(0, 1), (0, 82), (5, 6), (31, 97), (480, 520), (998, 999), (0, 999)])

    @pytest.mark.parametrize("n_sites, zeros", [(3000, 397), (10_000, 398)])
    def test_rows_that_fall_to_zero_and_windows_in_one_run(self, n_sites, zeros):
        # At T = 400 (runs of 20) the live window narrows to the first run's
        # first rows, whose fine stage then spans only the offsets it uses.
        model = sample_model(n_sites, 0)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, 400)
        assert np.count_nonzero(overlap_r(model, times) == 0) == zeros
        bounds = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 20), (19, 21), (0, 82), (3, 400), (300, 400)]
        self._assert_rows_match(model, times, bounds)

    def test_empty_and_one_row_slices(self):
        model = sample_model(33, 5)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, 2000)
        self._assert_rows_match(model, times, [(0, 0), (5, 5), (2000, 2000), (7, 3), (0, 1), (1024, 1025), (1999, 2000)])
        assert overlap_r(model, np.array([]), rows=slice(0, 5)).shape == (0,)
        assert overlap_r(model, np.array([0.25]), rows=slice(0, 1))[0] == overlap_r(model, 0.25)

    def test_only_the_selected_rows_are_multiplied(self, monkeypatch):
        model = sample_model(300, 4)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, 2000)
        count = _recording(monkeypatch)
        for start, stop in [(0, 82), (1000, 1100), (1999, 2000)]:
            count[0] = 0
            overlap_r(model, times, rows=slice(start, stop))
            assert count[0] == model.n_sites * (stop - start)

    def test_a_step_or_a_scalar_time_is_refused(self):
        model = sample_model(5, 1)
        times = np.linspace(0.0, 1.0, 10)
        for rows in (slice(0, 10, 2), slice(None, None, -1)):
            with pytest.raises(ValueError, match="step"):
                overlap_r(model, times, rows=rows)
        with pytest.raises(ValueError, match="scalar"):
            overlap_r(model, 0.5, rows=slice(0, 1))


EPS = sys.float_info.epsilon


def _phase_error(model, times):
    """Largest error per site in the phase g t behind any rotation.

    |g| 4 ulp(t_max) is the documented error of the even-grid factorization;
    each of the three rounded products g t_qb, g p h and a reference's own
    g t adds at most |g| ulp(t_max); the cos/sin of each rotation and the
    complex multiply add at most 4 eps.
    """
    t_ulp = math.ulp(float(np.max(np.abs(times))))
    return (4 + 3) * np.abs(model.couplings) * t_ulp + 4 * EPS


def _log_error_bound(model, t, phase_error):
    """Bound on |d log r| when each site's phase moves by phase_error.

    A site factor f = u e^(i g t) + w e^(-i g t) moves by |f'| per radian, so
    log r moves by at most sum_i phase_error_i |f_i'| / |f_i|, plus the
    rounding of an N-site product.
    """
    u = model.alphas.real**2 + model.alphas.imag**2
    w = model.betas.real**2 + model.betas.imag**2
    cos2 = np.cos(2.0 * model.couplings * t)
    ratio = np.sqrt((u * u + w * w - 2 * u * w * cos2) / (u * u + w * w + 2 * u * w * cos2))
    return math.fsum(phase_error * ratio) + 16 * model.n_sites * EPS


def _assert_log_close(value, log_mag, phase, tol):
    assert abs(math.log(abs(value)) - log_mag) <= tol
    assert abs(math.remainder(math.atan2(value.imag, value.real) - phase, 2 * math.pi)) <= tol


def _outer_product_reference(model, times):
    """overlap_r from cos/sin of the full outer product g t, multiplied directly."""
    phase = np.outer(model.couplings, times)
    w_up = model.alphas.real**2 + model.alphas.imag**2
    w_down = model.betas.real**2 + model.betas.imag**2
    f = np.empty(phase.shape, complex)
    f.real = (w_up + w_down)[:, None] * np.cos(phase)
    f.imag = (w_up - w_down)[:, None] * np.sin(phase)
    return f.prod(axis=0)


class TestEvenGridRotation:
    def test_overlap_matches_referee_at_large_phase(self):
        # g t reaches about 10^4 rad; 5000 points span two time tiles.
        model = sample_model(50, 8)
        times = np.linspace(0.0, 1e4, 5000)
        assert _even_step(times) is not None
        assert np.max(model.couplings) * times[-1] > 0.9e4
        phase_error = _phase_error(model, times)
        r = overlap_r(model, times)
        for t, value in zip(times.tolist(), r.tolist()):
            assert abs(value) > sys.float_info.min
            ref, phase = _log_overlap_referee(model, t)
            _assert_log_close(value, ref, phase, _log_error_bound(model, t, phase_error))

    def test_expectation_matches_scalar_calls_at_large_phase(self):
        # Scalar times take one direct rotation per site.  With every site part
        # scaled to spectral norm 1, each site factor and its derivative in the
        # phase are at most 1 in modulus, so a product moves by at most the sum
        # of the phase errors.
        model = sample_model(8, 8, a=0.6, b=0.8j)
        raw = sample_observable(8, 9)
        obs = make_observable(raw.system_part, [p / np.linalg.norm(p, 2) for p in raw.site_parts])
        times = np.linspace(0.0, 1e4, 5000)
        values = expectation(model, obs, times)
        scalar = np.array([expectation(model, obs, t) for t in times.tolist()])
        s, a, b = obs.system_part, abs(model.a), abs(model.b)
        weight = a * a * abs(s[0, 0]) + b * b * abs(s[1, 1]) + 2 * a * b * abs(s[1, 0])
        bound = weight * (np.sum(_phase_error(model, times)) + 16 * model.n_sites * EPS)
        assert np.max(np.abs(values - scalar)) <= bound
        assert np.max(np.abs(values)) > 1e3 * bound

    def test_uneven_grid_falls_back_to_direct_rotation(self):
        model = sample_model(16, 5)
        times = np.linspace(0.0, 1e4, 256)
        uneven = times.copy()
        uneven[100] += 1e-6
        assert _even_step(times) is not None
        assert _even_step(uneven) is None
        # 3 ulp(max |t|) off the grid is beyond the 2-ulp slack; a wider slack
        # would rotate such a point by the fine angle of a point it is not at.
        for points in (400, 1001, 2000):
            for ulps in (3, -3, 50, -50):
                moved = np.linspace(0.0, 1e4, points)
                moved[points // 3] += ulps * np.spacing(1e4)
                assert _even_step(moved) is None, (points, ulps)
        # One tile, so the engine multiplies sites in the reference's order.
        assert times.size <= _TILE_TIMES and model.n_sites * times.size <= _TILE_ELEMENTS
        r = overlap_r(model, uneven)
        assert np.array_equal(r, _outer_product_reference(model, uneven))
        even = overlap_r(model, times)
        phase_error = _phase_error(model, times)
        for k in range(times.size):
            if k != 100:
                tol = _log_error_bound(model, times[k], phase_error)
                _assert_log_close(even[k], math.log(abs(r[k])), cmath.phase(r[k]), tol)

    def test_grid_spanning_beyond_double_range(self):
        # t_last - t_0 overflows, so the grid counts as uneven and raises no
        # overflow warning; at |t| = 1e308 no phase g t is resolved, so the
        # kernel refuses the grid.
        model = sample_model(4, 2)
        times = np.array([-1e308, 0.0, 1e308])
        assert _even_step(times) is None
        with pytest.raises(ValueError, match="unresolved"):
            overlap_r(model, times)

    def test_even_step_checks_in_one_temporary(self):
        # The check grid (1.6 MB here) and one boolean array; a grid, its
        # difference and its modulus held at once would trace 4.8 MB.
        times = np.linspace(0.0, 1.0, 200_000)
        tracemalloc.start()
        try:
            step = _even_step(times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert step == 1.0 / 199_999
        assert peak < 2.5e6


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


def test_the_engine_digest_repeats_its_smallest_cases(monkeypatch):
    # tests/engine_digest.py compares the kernel's bytes across checkouts, so
    # each line must depend on the case alone.
    path = Path(__file__).with_name("engine_digest.py")
    spec = importlib.util.spec_from_file_location("engine_digest", path)
    digest = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, digest)  # its dataclass looks itself up there
    spec.loader.exec_module(digest)
    cases = digest.cases()
    assert len({case.name for case in cases}) == len(cases)
    smallest = sorted(cases, key=lambda case: case.cost)[:3]
    lines = [digest.digest(case) for case in smallest]
    assert [digest.digest(case) for case in smallest] == lines
    assert all(len(line.split()) == 4 for line in lines)
