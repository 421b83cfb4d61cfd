"""Verdict logic, long-time statistics, recurrences and timescale arithmetic."""

import dataclasses
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import analysis
from spinbath.analysis import (
    HBAR_EV_S,
    NEVER,
    DecoherenceVerdict,
    SweepRow,
    TimescaleReport,
    _median,
    decoherence_time,
    fluctuation_stats,
    n_scaling_sweep,
    predicted_rel_variance,
    r_trajectory,
    recurrence_check,
    timescale_estimate,
)
from spinbath.engine import _even_step, _site_weights, expectation, overlap_r
from spinbath.ensemble import commensurate_model, sample_model
from spinbath.model import SpinBathModel, Trajectory, eid_observable, make_model

INV = 1.0 / math.sqrt(2.0)


class TestVerdictInvariants:
    def test_decohered_requires_small_sup(self):
        with pytest.raises(ValueError, match="sup_late"):
            DecoherenceVerdict(t_d=1.0, threshold=0.1, window=5.0, sup_late=0.5, decohered=True)

    def test_not_decohered_requires_never_marker(self):
        with pytest.raises(ValueError, match="NEVER"):
            DecoherenceVerdict(t_d=1.0, threshold=0.1, window=5.0, sup_late=0.5, decohered=False)

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="threshold"):
            DecoherenceVerdict(t_d=NEVER, threshold=1.5, window=5.0, sup_late=0.5, decohered=False)

    @pytest.mark.parametrize("window", [0.0, math.nan])
    def test_window_must_be_positive(self, window):
        with pytest.raises(ValueError, match="window"):
            DecoherenceVerdict(t_d=NEVER, threshold=0.1, window=window, sup_late=0.5, decohered=False)

    def test_valid_verdicts_construct(self):
        DecoherenceVerdict(t_d=2.0, threshold=0.1, window=5.0, sup_late=0.05, decohered=True)
        DecoherenceVerdict(t_d=NEVER, threshold=0.1, window=5.0, sup_late=0.9, decohered=False)


class TestDecoherenceTime:
    def test_constant_unit_modulus_never_decoheres(self):
        model = make_model(INV, INV, [(1.0, 0.0, 1.0)])
        verdict = decoherence_time(r_trajectory(model, 100.0, 500), 0.1, 20.0)
        assert not verdict.decohered
        assert math.isinf(verdict.t_d)
        assert verdict.sup_late == pytest.approx(1.0, abs=1e-12)

    def test_large_bath_decoheres_quickly(self):
        model = sample_model(100, 0)
        gbar = model.mean_coupling
        verdict = decoherence_time(
            r_trajectory(model, 100.0 / gbar, 2000), 0.1, 20.0 / gbar
        )
        assert verdict.decohered
        assert verdict.t_d < 5.0 / gbar
        assert verdict.sup_late <= 0.1

    def test_oscillation_above_threshold_never_qualifies(self):
        times = np.linspace(0.0, 200.0, 4001)
        traj = Trajectory(times=times, values=np.cos(0.7 * times))
        verdict = decoherence_time(traj, 0.5, 20.0)
        assert not verdict.decohered

    def test_first_qualifying_grid_point_is_reported(self):
        times = np.arange(0.0, 11.0)
        values = np.array([1.0, 1.0, 1.0, 0.05, 0.04, 0.03, 0.02, 0.05, 0.06, 0.04, 0.05])
        verdict = decoherence_time(Trajectory(times=times, values=values), 0.1, 2.0)
        assert verdict.t_d == 3.0
        assert verdict.sup_late == 0.05

    def test_hold_is_required_not_first_crossing(self):
        # Dips below threshold but climbs back inside every window.
        times = np.arange(0.0, 21.0)
        values = np.where(times % 3 == 0, 0.01, 0.9)
        verdict = decoherence_time(Trajectory(times=times, values=values), 0.1, 4.0)
        assert not verdict.decohered

    def test_window_must_fit_twice(self):
        model = sample_model(20, 0)
        traj = r_trajectory(model, 10.0, 100)
        with pytest.raises(ValueError, match="span"):
            decoherence_time(traj, 0.1, 6.0)

    def test_window_must_reach_the_next_sample(self):
        # On 5 points the step is 25 / gbar: a 20 / gbar window holds one
        # sample, and that sample at t = 25 / gbar is below 0.1 while |r|
        # climbs to 0.15 between the samples.
        model = sample_model(20, 0)
        gbar = model.mean_coupling
        with pytest.raises(ValueError, match="shorter than the grid step"):
            decoherence_time(r_trajectory(model, 100.0 / gbar, 5), 0.1, 20.0 / gbar)
        fine = r_trajectory(model, 100.0 / gbar, 200001)
        inside = (fine.times >= 25.0 / gbar) & (fine.times <= 45.0 / gbar)
        assert np.abs(fine.values[inside]).max() > 0.15
        # A window of exactly one step reaches the next sample, whatever the unit.
        for unit in (1e-9, 1.0, 1e9):
            traj = Trajectory(times=np.arange(10.0) * unit, values=np.full(10, 0.05))
            assert decoherence_time(traj, 0.1, unit).decohered
        # On an uneven grid the largest step counts.
        traj = Trajectory(times=np.array([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 8.0]), values=np.full(7, 0.05))
        with pytest.raises(ValueError, match="grid step 3.0"):
            decoherence_time(traj, 0.1, 2.0)

    def test_threshold_validation(self):
        traj = r_trajectory(sample_model(5, 0), 100.0, 200)
        with pytest.raises(ValueError, match="threshold"):
            decoherence_time(traj, 0.0, 10.0)
        for window in (-1.0, math.nan):
            with pytest.raises(ValueError, match="window"):
                decoherence_time(traj, 0.5, window)

    @pytest.mark.parametrize("first_below", [805, 300])
    def test_verdict_is_invariant_under_rescaling(self, first_below):
        # Samples drop below threshold from index first_below on.  A window of
        # 200 steps fits only from starts <= 799, so 805 never qualifies, in
        # any unit of time; 300 qualifies at the same index in every unit.
        steps = np.arange(1000)
        values = np.where(steps < first_below, 0.5, 0.05)
        for k in range(-15, 6):
            unit = 10.0**k
            traj = Trajectory(times=steps * unit, values=values)
            verdict = decoherence_time(traj, 0.1, 200 * unit)
            if first_below == 805:
                assert not verdict.decohered, f"unit 1e{k}"
            else:
                assert verdict.decohered, f"unit 1e{k}"
                assert verdict.t_d == traj.times[first_below]
                assert verdict.sup_late == 0.05

    def test_undecohered_sup_late_covers_the_whole_final_window(self):
        # No window holds.  The final window [7, 10] starts on a sample, 0.8
        # at t = 7, and sup_late must include it.
        times = np.linspace(0.0, 10.0, 11)
        values = np.array([1, 0.5, 0.05, 0.5, 0.05, 0.5, 0.05, 0.8, 0.05, 0.5, 0.05])
        verdict = decoherence_time(Trajectory(times=times, values=values), 0.1, 3.0)
        assert not verdict.decohered
        assert verdict.sup_late == 0.8

    def test_complex_values_use_modulus(self):
        times = np.linspace(0.0, 10.0, 101)
        values = 0.05j * np.ones_like(times)
        verdict = decoherence_time(Trajectory(times=times, values=values), 0.1, 2.0)
        assert verdict.decohered
        assert verdict.t_d == 0.0


class TestRTrajectory:
    def test_metadata_and_grid(self):
        traj = r_trajectory(sample_model(10, 4), 50.0, 101)
        assert traj.times[0] == 0.0 and traj.times[-1] == 50.0
        assert traj.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_validation(self):
        model = sample_model(2, 0)
        with pytest.raises(ValueError, match="grid"):
            r_trajectory(model, 10.0, 1)
        with pytest.raises(ValueError, match="t_max"):
            r_trajectory(model, -5.0, 100)


def exact_window_mean(model, t0, t1):
    """Mean of |r|^2 over [t0, t1] from its 3^N-term expansion, in 40 digits.

    Site factor |f_i|^2 = a_i + (b_i / 2) (e^(2i g_i t) + e^(-2i g_i t)), so
    every term is a coefficient times e^(i w t), whose window mean is
    (sin w t1 - sin w t0) / (w (t1 - t0)) in its real part; the imaginary
    parts cancel in pairs.
    """
    with mpmath.workdps(40):
        t0, t1 = mpmath.mpf(t0), mpmath.mpf(t1)
        sites = [
            (mpmath.mpf(u) ** 2 + mpmath.mpf(d) ** 2, mpmath.mpf(u) * mpmath.mpf(d), mpmath.mpf(g))
            for u, d, g in zip(*_site_weights(model), model.couplings)
        ]
        total = mpmath.mpf(0)
        for choice in itertools.product((0, 1, -1), repeat=len(sites)):
            coef, omega = mpmath.mpf(1), mpmath.mpf(0)
            for c, (a, half_b, g) in zip(choice, sites):
                coef *= half_b if c else a
                omega += 2 * c * g
            if omega:
                coef *= (mpmath.sin(omega * t1) - mpmath.sin(omega * t0)) / (omega * (t1 - t0))
            total += coef
        return float(total)


class TestFluctuationStats:
    def test_degenerate_bath_is_exactly_one(self):
        model = make_model(INV, INV, [(1.0, 0.0, 1.0)])
        mean_r2, predicted, _ = fluctuation_stats(model, (10.0, 20.0))
        assert mean_r2 == pytest.approx(1.0, abs=1e-12)
        assert predicted == pytest.approx(1.0, abs=1e-12)

    def test_balanced_single_site_averages_to_half(self):
        model = make_model(INV, INV, [(0.5 + 0.5j, 0.5 - 0.5j, 1.0)])
        window = (0.0, 2.0 * math.pi * 40)
        mean_r2, predicted, _ = fluctuation_stats(model, window)
        assert predicted == pytest.approx(0.5, abs=1e-12)
        assert mean_r2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n_sites", range(1, 9))
    @pytest.mark.parametrize("window", [(50.0, 550.0), (3.7, 11.3)], ids=["default", "short"])
    def test_window_mean_matches_the_exact_expansion(self, n_sites, window):
        # The window in units of 1/gbar: the default one, and one a few
        # periods long that is no whole number of them.  The coarser rule is
        # 1.1e-12 off at N = 1 on the default window; the finer one is
        # within 5e-15 everywhere here.
        model = sample_model(n_sites, 0)
        t0, t1 = (w / model.mean_coupling for w in window)
        mean_r2, _, _ = fluctuation_stats(model, (t0, t1))
        assert mean_r2 == pytest.approx(exact_window_mean(model, t0, t1), rel=1e-13)

    def test_each_rule_is_sixteen_even_node_grids(self, monkeypatch):
        # Node j of every panel lies on one evenly spaced grid, so each call
        # takes the kernel's two-stage path.
        model = sample_model(20, 0)
        window = (1.0, 2000.0)  # 1330 and 2660 panels
        sizes = []

        def spy(model, times):
            assert _even_step(times) is not None
            sizes.append(times.size)
            return overlap_r(model, times)

        monkeypatch.setattr(analysis, "overlap_r", spy)
        _, _, nodes = fluctuation_stats(model, window)
        assert sizes == [1330] * 16 + [2660] * 16
        assert nodes == 16 * 2660

    @pytest.mark.parametrize("n_sites", [1, 5, 20, 50])
    @pytest.mark.parametrize("window", [(50.0, 550.0), (3.7, 11.3)], ids=["default", "short"])
    def test_even_node_grids_match_one_call_over_every_node(self, n_sites, window):
        # The reference evaluates the finer rule's nodes panel by panel in
        # one overlap_r call, on the kernel's direct path.
        model = sample_model(n_sites, 0)
        t0, t1 = (w / model.mean_coupling for w in window)
        mean_r2, _, nodes = fluctuation_stats(model, (t0, t1))
        count = nodes // 16
        x, w = np.polynomial.legendre.leggauss(16)
        half = 0.5 * (t1 - t0) / count
        centres = t0 + half * np.arange(1, 2 * count, 2)
        times = (centres[:, None] + half * x).ravel()
        assert _even_step(times) is None
        r = overlap_r(model, times)
        sums = np.abs(r).reshape(count, -1) ** 2 @ w
        assert mean_r2 == pytest.approx(float(sums.mean()) / 2, rel=1e-12, abs=0)

    def test_seeded_bath_within_factor_two(self):
        model = sample_model(20, 0)
        gbar = model.mean_coupling
        mean_r2, predicted, _ = fluctuation_stats(model, (50.0 / gbar, 550.0 / gbar))
        assert 0.5 <= mean_r2 / predicted <= 2.0

    def test_degenerate_window_rejected(self):
        model = sample_model(3, 0)
        with pytest.raises(ValueError, match="degenerate"):
            fluctuation_stats(model, (5.0, 5.0))

    def test_prediction_below_normal_range_is_rejected(self):
        with pytest.raises(ValueError, match="smallest normal"):
            fluctuation_stats(sample_model(2000, 0), (50.0, 550.0))

    @pytest.mark.parametrize(
        "n_sites, window, needed",
        [(1000, None, "1.27e+06 quadrature nodes, 1.27e+09 site-nodes"), (5, (1e300, 1.5e300), "3.09e+300")],
        ids=["n1000", "t1e300"],
    )
    def test_window_beyond_the_budget_is_refused_before_any_overlap(
        self, monkeypatch, n_sites, window, needed
    ):
        model = sample_model(n_sites, 0)
        gbar = model.mean_coupling
        monkeypatch.setattr(analysis, "overlap_r", None)  # any call raises TypeError
        with pytest.raises(ValueError, match=f"needs {re.escape(needed)}.*budget"):
            fluctuation_stats(model, window or (50.0 / gbar, 550.0 / gbar))

    def test_rules_that_disagree_are_refused(self, monkeypatch):
        # At one node per period neither rule resolves |r|^2; the two differ
        # by far more than the tolerance but less than the mean itself.
        monkeypatch.setattr(analysis, "_PANELS_PER_PERIOD", 1 / 16)
        with pytest.raises(ValueError, match="unresolved beyond 1e-09 relative"):
            fluctuation_stats(sample_model(5, 0), (10.0, 110.0))

    @pytest.mark.parametrize("n_sites, samples, rel", [(5, 100_000, 0.03), (20, 400_000, 0.2)])
    def test_predicted_variance_matches_monte_carlo(self, n_sites, samples, rel):
        # V is the relative variance of |r|^2 at a random time; the window is
        # long enough for the incommensurate cosines to decorrelate (seed 0:
        # V = 1.585 at N = 5, 19.6 at N = 20).
        model = sample_model(n_sites, 0)
        r2 = np.abs(overlap_r(model, np.random.default_rng(1).uniform(0.0, 1e7, samples))) ** 2
        predicted = np.prod(np.abs(model.alphas) ** 4 + np.abs(model.betas) ** 4)
        assert r2.var() / predicted**2 == pytest.approx(predicted_rel_variance(model), rel=rel)

    @pytest.mark.parametrize(
        "n_sites, expected", [(5, 1.585), (20, 19.60), (50, 9685.0), (100, 1.209e8), (1000, 7.270e76)]
    )
    def test_predicted_rel_variance_values(self, n_sites, expected):
        assert predicted_rel_variance(sample_model(n_sites, 0)) == pytest.approx(expected, rel=1e-3)

    def test_subnormal_prediction_is_refused_first(self):
        # 72000 sites with b_i = 0.01 predict |r|^2 = 0.99^72000 ~ e^-724, a
        # subnormal double, at a moderate V; the budget would refuse them too.
        w_up = (1.0 - math.sqrt(1.0 - 0.02)) / 2.0
        n = 72_000
        alphas, betas = np.full(n, math.sqrt(w_up)), np.full(n, math.sqrt(1.0 - w_up))
        model = SpinBathModel(INV, INV, alphas, betas, np.ones(n))
        assert predicted_rel_variance(model) == pytest.approx(38.4, rel=1e-2)
        with pytest.raises(ValueError, match="smallest normal"):
            fluctuation_stats(model, (50.0, 550.0))

    def test_variance_overflows_to_inf(self):
        balanced = make_model(INV, INV, [(INV, INV, 1.0 + k / 7) for k in range(2000)])
        assert predicted_rel_variance(balanced) == math.inf


class TestRecurrence:
    def test_five_site_arithmetic_ladder(self):
        model = commensurate_model(5, 1.0, 42)
        assert recurrence_check(model, 2.0 * math.pi) == pytest.approx(1.0, abs=1e-10)

    def test_quarter_period_is_not_revived(self):
        model = commensurate_model(5, 1.0, 42)
        assert abs(overlap_r(model, math.pi / 2.0)) < 1.0 - 1e-6

    def test_single_site_any_multiple(self):
        model = commensurate_model(1, 3.0, 7)
        assert recurrence_check(model, 2.0 * math.pi / 3.0) == pytest.approx(1.0, abs=1e-10)

    def test_incommensurate_couplings_rejected(self):
        model = sample_model(5, 3)
        with pytest.raises(ValueError, match="commensurate"):
            recurrence_check(model, 2.0 * math.pi)
        # One coupling off its rung by 1e-6 relative: beyond COMMENSURATE_RTOL.
        ladder = commensurate_model(5, 1.0, 42)
        couplings = ladder.couplings.copy()
        couplings[2] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="commensurate"):
            recurrence_check(dataclasses.replace(ladder, couplings=couplings), 2.0 * math.pi)

    def test_bad_period(self):
        model = commensurate_model(2, 1.0, 0)
        with pytest.raises(ValueError, match="positive"):
            recurrence_check(model, 0.0)


def weak_limit_residual(model, obs, t):
    """|expectation - (|a|^2 s00 + |b|^2 s11)| for an identity-on-every-site observable."""
    limit = (
        abs(model.a) ** 2 * obs.system_part[0, 0].real
        + abs(model.b) ** 2 * obs.system_part[1, 1].real
    )
    return abs(expectation(model, obs, t) - limit)


class TestWeakLimitResidual:
    def test_pure_up_branch_has_zero_residual(self):
        model = sample_model(6, 1, a=1.0, b=0.0)
        obs = eid_observable(0.3, 0.9 - 0.2j, -0.5, 6)
        for t in (0.0, 3.0, 17.0):
            assert weak_limit_residual(model, obs, t) == pytest.approx(0.0, abs=1e-12)

    def test_pure_coherence_at_time_zero(self):
        model = sample_model(4, 2)
        obs = eid_observable(0.0, 1.0, 0.0, 4)
        assert weak_limit_residual(model, obs, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_large_bath_late_time_residual_is_tiny(self):
        model = sample_model(100, 0)
        obs = eid_observable(0.4, 0.8, -0.4, 100)
        late = 50.0 / model.mean_coupling
        assert weak_limit_residual(model, obs, late) <= 1e-3

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t=st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_residual_bounded_by_overlap(self, seed, t):
        model = sample_model(8, seed)
        s01 = 0.6 - 0.3j
        obs = eid_observable(0.2, s01, -0.7, 8)
        bound = 2.0 * abs(model.a) * abs(model.b) * abs(s01) * abs(overlap_r(model, t))
        assert weak_limit_residual(model, obs, t) <= bound + 1e-12


class TestTimescales:
    def test_one_ev(self):
        assert 6.5e-16 <= timescale_estimate(1.0) <= 6.7e-16

    def test_strong_coupling_band(self):
        assert 6.5e-39 <= timescale_estimate(1e23) <= 6.7e-39

    def test_monotone_in_strength(self):
        assert timescale_estimate(10.0) < timescale_estimate(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            timescale_estimate(0.0)
        with pytest.raises(ValueError, match="positive"):
            timescale_estimate(-3.0)

    def test_rejects_a_time_below_the_smallest_normal_double(self):
        # hbar / 1e308 eV is 6.58e-324 s, which rounds to the subnormal 5e-324.
        with pytest.raises(ValueError, match="below the smallest normal double"):
            timescale_estimate(1e308)
        with pytest.raises(ValueError, match="below the smallest normal double"):
            TimescaleReport(1e308, 1.0)

    def test_report_hierarchy(self):
        report = TimescaleReport(1e23, 1.0)
        assert report.hierarchy_ok
        assert report.t_ds_s == HBAR_EV_S / 1e23
        assert report.t_du_s == HBAR_EV_S / 1.0
        assert report.t_ds_s < report.t_du_s

    def test_report_equal_strengths(self):
        assert TimescaleReport(2.0, 2.0).hierarchy_ok

    def test_report_fields_are_its_schema(self):
        # The derived times and the verdict are fields, so asdict carries them.
        assert dataclasses.asdict(TimescaleReport(3.5, 0.25)) == {
            "v1_ev": 3.5,
            "v2_ev": 0.25,
            "t_ds_s": HBAR_EV_S / 3.5,
            "t_du_s": HBAR_EV_S / 0.25,
            "hierarchy_ok": True,
        }
        with pytest.raises(TypeError):
            TimescaleReport(1.0, 2.0, t_ds_s=1.0)

    def test_report_rejects_nonpositive_strengths(self):
        with pytest.raises(ValueError, match="positive"):
            TimescaleReport(v1_ev=0.0, v2_ev=1.0)
        with pytest.raises(ValueError, match="positive"):
            TimescaleReport(1.0, math.inf)


class TestScalingSweep:
    def test_single_spin_never_decoheres(self):
        (row,) = n_scaling_sweep([1], seed=0)
        assert not row.decohered
        assert math.isinf(row.t_d)

    def test_sup_late_decreases_with_bath_size(self):
        rows = n_scaling_sweep([1, 20, 100], seed=0)
        sups = [row.sup_late for row in rows]
        assert sups[0] > sups[1] > sups[2]

    def test_large_baths_decohere(self):
        rows = n_scaling_sweep([20, 100], seed=0)
        assert all(row.decohered for row in rows)
        assert all(math.isfinite(row.t_d) for row in rows)

    def test_row_decoheres_only_if_every_seed_does(self):
        # Seeds 2 and 3 decohere and seed 4 does not, so the medians read a
        # finite t_d and a sup_late below the threshold; the row still fails.
        singles = [n_scaling_sweep([15], seed, n_seeds=1, points=400)[0] for seed in (2, 3, 4)]
        assert [row.decohered for row in singles] == [True, True, False]
        (row,) = n_scaling_sweep([15], 2, n_seeds=3, points=400)
        assert math.isfinite(row.t_d) and row.sup_late <= 0.1
        assert not row.decohered

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            n_scaling_sweep([], seed=0)

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValueError, match="^need at least one seed$"):
            n_scaling_sweep([5], 0, n_seeds=0)

    def test_explicit_window_and_span(self):
        rows = n_scaling_sweep([20], seed=0, window=40.0, t_max=200.0, points=1000, n_seeds=2)
        assert rows[0].n_sites == 20

    @staticmethod
    def _full_grid_rows(n_list, seed, n_seeds, points):
        """The sweep's rows from ``decoherence_time`` on every overlap of each grid."""
        rows = []
        for n_sites in n_list:
            verdicts = []
            for k in range(n_seeds):
                model = sample_model(n_sites, seed + k)
                gbar = model.mean_coupling
                verdicts.append(decoherence_time(r_trajectory(model, 100.0 / gbar, points), 0.1, 20.0 / gbar))
            rows.append(
                SweepRow(
                    n_sites,
                    float(np.median([v.t_d for v in verdicts])),
                    float(np.median([v.sup_late for v in verdicts])),
                    all(v.decohered for v in verdicts),
                )
            )
        return rows

    @pytest.mark.parametrize("prefix", [2, 3, 17, 82, 400, None])
    @pytest.mark.parametrize(
        "n_list, seed", [([1, 5, 30, 300, 3000], 0), ([15], 2)], ids=["sizes", "one-seed-never"]
    )
    def test_the_first_pass_moves_no_verdict(self, monkeypatch, prefix, n_list, seed):
        # However many rows the first pass takes (None: as many as the sweep
        # picks), the rows equal the full grid's: a window inside the prefix
        # is the first, and a grid with none is evaluated in full and judged
        # again.  Seed 4 at N = 15 never decoheres.
        expected = self._full_grid_rows(n_list, seed, 3, 400)
        if prefix is not None:
            monkeypatch.setattr(analysis, "_prefix_rows", lambda model, times, threshold, window: prefix)
        assert n_scaling_sweep(n_list, seed, n_seeds=3, points=400) == expected

    def test_a_seed_that_never_decoheres_evaluates_the_rest(self, monkeypatch):
        # At N = 15 seed 4 never decoheres, so its grid, judged on a first
        # pass of fewer than all 400 rows, takes a second pass for the rest.
        expected = self._full_grid_rows([15], 2, 3, 400)
        calls = []
        evaluate = analysis.overlap_r

        def recording(model, times, rows):
            calls.append((rows.start, rows.stop))
            return evaluate(model, times, rows=rows)

        monkeypatch.setattr(analysis, "overlap_r", recording)
        (row,) = n_scaling_sweep([15], 2, n_seeds=3, points=400)
        assert [row] == expected and not row.decohered
        prefix = calls[-2][1]
        assert 2 <= prefix < 400 and calls[-2:] == [(None, prefix), (prefix, None)]

    def test_one_draw_one_evaluation_one_verdict_per_model(self, monkeypatch):
        # The bench's sweep-seeds argv at its test seed: the counts that its
        # pinned site and verdict totals rest on.
        calls = {"sample_model": [], "overlap_r": [], "decoherence_time": []}
        for name, seen in calls.items():
            original = getattr(analysis, name)

            def recording(*args, _original=original, _seen=seen, **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(analysis, name, recording)
        n_list = [30, 300, 3000, 10_000]
        n_scaling_sweep(n_list, 3, threshold=0.1, n_seeds=4, points=400)
        assert [args[0] for args in calls["sample_model"]] == [n for n in n_list for _ in range(4)]
        assert [args[0].n_sites for args in calls["overlap_r"]] == [n for n in n_list for _ in range(4)]
        assert all(args[1].shape == (400,) for args in calls["overlap_r"])
        assert len(calls["decoherence_time"]) == 16

    def test_grid_refusals_are_r_trajectory_s(self):
        for kwargs, match in [({"points": 1}, "^need at least two grid points$")] + [
            ({"t_max": t}, "^t_max must be positive and finite$") for t in (0.0, -5.0, math.inf, math.nan)
        ]:
            with pytest.raises(ValueError, match=match):
                n_scaling_sweep([5], 0, n_seeds=1, **kwargs)
            with pytest.raises(ValueError, match=match):
                r_trajectory(sample_model(5, 0), kwargs.get("t_max", 10.0), kwargs.get("points", 100))

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_the_verdict_still_refuses_a_threshold(self, threshold):
        with pytest.raises(ValueError, match="^threshold must lie strictly between 0 and 1$"):
            n_scaling_sweep([5], 0, threshold=threshold, n_seeds=1, points=100)

    @pytest.mark.parametrize(
        "values",
        [
            [0.3],
            [NEVER],
            [2.5, 0.1],
            [0.1 + 0.2, 0.3, 1e300],
            [NEVER, 0.25],
            [3.0, NEVER, 1.0],
            [NEVER, NEVER, 2.0, 0.5],
            [0.7, 0.2, 0.9, 0.2, 0.4],
            [5.0, 1.0, 4.0, 2.0, 3.0, 0.1],
        ],
    )
    def test_median_is_numpy_median(self, values):
        # Bit for bit, the mean of the middle two included.
        assert _median(values) == float(np.median(values))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.just(NEVER), st.floats(0.0, 1e300)), min_size=1, max_size=12))
    def test_median_agrees_on_sweep_values(self, values):
        # Times and suprema: non-negative, finite or NEVER.
        assert _median(values) == float(np.median(values))
