"""Release gate: one check per shipped guarantee, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -s` to see the report lines inline;
under default capture they still appear because they target the real stdout.
"""

import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from spinbath.analysis import (
    TimescaleReport,
    decoherence_time,
    fluctuation_stats,
    r_trajectory,
    recurrence_check,
)
from spinbath.cli import EXIT_OK, run
from spinbath.config import config_from_file
from spinbath.engine import (
    _product,
    _site_weights,
    expectation,
    overlap_r,
    reduced_system_state,
)
from spinbath.ensemble import commensurate_model, sample_model, sample_observable
from spinbath.model import single_site_observable
from spinbath.oracle import (
    build_initial,
    evolve,
    oracle_expectation,
    oracle_overlap,
    oracle_reduced_state,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}  {name}{suffix}", file=sys.__stdout__, flush=True)


def test_oracle_equivalence_up_to_ten_sites():
    started = time.monotonic()
    worst = 0.0
    for n in range(1, 11):
        for k in range(20):
            model = sample_model(
                n,
                1000 * n + k,
                a=math.cos(0.2 + 0.05 * k),
                b=math.sin(0.2 + 0.05 * k) * np.exp(1j * (0.4 + 0.1 * k)),
            )
            obs = sample_observable(n, 2000 * n + k)
            state0 = build_initial(model)
            for t in np.linspace(0.0, 50.0 / model.mean_coupling, 10):
                t = float(t)
                state = evolve(state0, model, t)
                worst = max(
                    worst,
                    abs(oracle_expectation(state, obs) - expectation(model, obs, t)),
                    abs(oracle_overlap(model, t) - overlap_r(model, t)),
                    float(
                        np.abs(
                            oracle_reduced_state(state)
                            - reduced_system_state(model, t).matrix
                        ).max()
                    ),
                )
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and elapsed < 60.0
    report(
        "dense-oracle agreement, N=1..10, 200 model/observable pairs",
        ok,
        f"max diff {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_overlap_decay_for_large_baths():
    started = time.monotonic()
    sups = {20: [], 100: []}
    finite = True
    for n in sups:
        for seed in range(5):
            model = sample_model(n, seed)
            gbar = model.mean_coupling
            traj = r_trajectory(model, 100.0 / gbar, 2000)
            verdict = decoherence_time(traj, 0.1, 20.0 / gbar)
            finite = finite and verdict.decohered and math.isfinite(verdict.t_d)
            late = traj.times >= 10.0 / gbar
            sups[n].append(float(np.abs(traj.values[late]).max()))
    med20 = float(np.median(sups[20]))
    med100 = float(np.median(sups[100]))
    elapsed = time.monotonic() - started
    ok = finite and med20 <= 0.2 and med100 <= 1e-3 and elapsed < 10.0
    report(
        "environment-induced overlap decay at N=20 and N=100",
        ok,
        f"median sup {med20:.3f} / {med100:.1e}, {elapsed:.1f}s",
    )
    assert finite
    assert med20 <= 0.2
    assert med100 <= 1e-3
    assert elapsed < 10.0


def test_bath_spins_keep_oscillating():
    worst = 0.0
    for k in range(5):
        model = sample_model(8, 300 + k)
        j = (k % 8) + 1
        eps = sample_observable(8, 400 + k).site_parts[j - 1]
        obs = single_site_observable(j, eps, 8)
        period = 2.0 * math.pi / model.couplings[j - 1]
        tau = np.linspace(0.0, period, 2001)
        early = np.abs(expectation(model, obs, tau)).max()
        late = np.abs(expectation(model, obs, 1e4 * period + tau)).max()
        worst = max(worst, abs(early - late))
    ok = worst <= 1e-10
    report(
        "single bath spin amplitude identical after 10^4 periods",
        ok,
        f"max drift {worst:.2e}",
    )
    assert worst <= 1e-10


def test_commensurate_recurrence():
    model = commensurate_model(5, 1.0, 42)
    t_rec = 2.0 * math.pi
    revival = recurrence_check(model, t_rec)
    obs = sample_observable(5, 43)
    ts = np.linspace(0.0, 3.0, 7)
    drift = float(
        np.abs(expectation(model, obs, ts + t_rec) - expectation(model, obs, ts)).max()
    )
    ok = abs(revival - 1.0) <= 1e-10 and drift <= 1e-10
    report(
        "arithmetic coupling ladder revives exactly",
        ok,
        f"|r|-1 = {revival - 1.0:.2e}, observable drift {drift:.2e}",
    )
    assert abs(revival - 1.0) <= 1e-10
    assert drift <= 1e-10


def test_timescale_hierarchy():
    rep = TimescaleReport(1e23, 1.0)
    ok = (
        6.5e-39 <= rep.t_ds_s <= 6.7e-39
        and 6.5e-16 <= rep.t_du_s <= 6.7e-16
        and rep.hierarchy_ok
    )
    report(
        "hbar/V timescales land in expected bands",
        ok,
        f"{rep.t_ds_s:.3e}s vs {rep.t_du_s:.3e}s",
    )
    assert ok


def test_overlap_bounds_hold_everywhere():
    violations = 0
    checked = 0
    for m in range(100):
        model = sample_model(1 + (m % 25), 500 + m)
        # Each squared site factor oscillates between (2|alpha_i|^2 - 1)^2 and 1.
        w_up, _ = _site_weights(model)
        lower, upper = _product((2.0 * w_up - 1.0) ** 2), 1.0
        ts = np.random.default_rng(600 + m).uniform(0.0, 200.0, 100)
        r2 = np.abs(overlap_r(model, ts)) ** 2
        violations += int(np.sum((r2 < lower - 1e-12) | (r2 > upper + 1e-12)))
        checked += ts.size
    ok = violations == 0
    report(
        "squared overlap stays inside analytic envelope",
        ok,
        f"{checked} samples, {violations} violations",
    )
    assert checked == 10_000
    assert violations == 0


def test_long_time_average_matches_prediction():
    ratios = []
    for seed in range(5):
        model = sample_model(20, seed)
        gbar = model.mean_coupling
        mean_r2, predicted, _ = fluctuation_stats(model, (50.0 / gbar, 550.0 / gbar))
        ratios.append(mean_r2 / predicted)
    ok = all(0.5 <= ratio <= 2.0 for ratio in ratios)
    report(
        "time-averaged |r|^2 within factor two of product closed form",
        ok,
        "ratios " + ", ".join(f"{ratio:.3f}" for ratio in ratios),
    )
    assert ok


def test_shipped_configs_replay_byte_identically(tmp_path):
    mismatched = []
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = config_from_file(cfg_path)
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / cfg_path.stem / tag
            out.mkdir(parents=True)
            code = run(dataclasses.replace(cfg, out=str(out)))
            assert code == EXIT_OK, f"{cfg_path.name} exited {code}"
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        if outputs[0] != outputs[1] or not outputs[0]:
            mismatched.append(cfg_path.name)
    ok = not mismatched
    report(
        "shipped configs replay byte-for-byte",
        ok,
        f"{len(list(CONFIG_DIR.glob('*.json')))} configs"
        + (f", mismatched: {mismatched}" if mismatched else ""),
    )
    assert ok
