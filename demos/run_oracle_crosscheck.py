"""Product-form engine versus brute-force dense evolution.

The analytic engine evaluates everything through per-site factors in O(N)
time. The oracle builds the full 2^(N+1) state vector and applies the exact
phase evolution, so it is unarguable but explodes exponentially. On baths
small enough for both, the two agree to machine precision at every time,
which is the whole case for trusting the engine at N = 100 and beyond.
"""

import numpy as np

from spinbath.engine import expectation, overlap_r, reduced_system_state
from spinbath.ensemble import sample_model, sample_observable
from spinbath.oracle import (
    build_initial,
    evolve,
    oracle_expectation,
    oracle_overlap,
    oracle_reduced_state,
)

N_SITES = 8


def main() -> None:
    model = sample_model(N_SITES, seed=7, a=0.6, b=0.8j)
    obs = sample_observable(N_SITES, seed=8)
    state0 = build_initial(model)
    print(f"N = {N_SITES}: dense state has {state0.amplitudes.size} amplitudes,"
          f" the engine tracks {N_SITES} factors\n")

    print(f"  {'t':>6}  {'d <O>':>9}  {'d r':>9}  {'d rho':>9}")
    for t in np.linspace(0.0, 40.0, 9):
        t = float(t)
        state = evolve(state0, model, t)
        d_obs = abs(oracle_expectation(state, obs) - expectation(model, obs, t))
        d_r = abs(oracle_overlap(model, t) - overlap_r(model, t))
        d_rho = np.abs(
            oracle_reduced_state(state) - reduced_system_state(model, t).matrix
        ).max()
        print(f"  {t:>6.1f}  {d_obs:>9.2e}  {d_r:>9.2e}  {d_rho:>9.2e}")

    print("\nEvery column sits at the float64 noise floor. The same engine")
    print("costs O(N) per time, so a 100-site bath is as cheap as this one.")


if __name__ == "__main__":
    main()
