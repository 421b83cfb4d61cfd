"""A single bath spin never equilibrates.

While the central spin's coherence decays, each individual bath spin just
precesses: its reduced dynamics is an exact two-frequency oscillation with a
period set by its own coupling. Sampling one period early and the same
period ten thousand periods later gives the same amplitude envelope, up to
the rounding of the late times (about 1e-13).
"""

import numpy as np

from spinbath.engine import expectation
from spinbath.ensemble import sample_model
from spinbath.model import SIGMA_X, single_site_observable

SITE = 3


def main() -> None:
    model = sample_model(8, seed=300)
    g = model.couplings[SITE - 1]
    period = 2.0 * np.pi / g

    obs = single_site_observable(SITE, SIGMA_X, model.n_sites)
    tau = np.linspace(0.0, period, 9)
    early = expectation(model, obs, tau)
    late = expectation(model, obs, 1e4 * period + tau)

    print(f"site {SITE}, coupling g = {g:.4f}, period T = {period:.4f}")
    print(f"  {'tau/T':>6}  {'<sx>(tau)':>12}  {'<sx>(1e4 T + tau)':>18}")
    for frac, a, b in zip(tau / period, early, late):
        print(f"  {frac:>6.3f}  {a:>12.6f}  {b:>18.6f}")
    print(f"\nmax |early - late| = {np.abs(early - late).max():.2e}")
    print("The bath is not a sink: every site keeps its full oscillation")
    print("amplitude forever. Only the central spin's off-diagonal term,")
    print("a product over all sites, ever becomes small.")


if __name__ == "__main__":
    main()
