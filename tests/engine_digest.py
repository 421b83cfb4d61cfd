"""SHA-256 digests of the product kernel's outputs, one line per case.

Two checkouts give the same bytes exactly when this prints the same lines in
both, under the same numpy build, SIMD level and BLAS kernels:

    PYTHONPATH=src python tests/engine_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/engine_digest.py > old.txt
    diff old.txt new.txt

Each line is ``name dtype shape sha256``.  The cases cover both tile paths
(evenly spaced grids, and uneven grids or scalar times), every public
evaluator and ``_product``, piece and chunk edges (T = 1023 to 4097), rows
selected from a grid (a prefix, and ranges across a piece or chunk edge), lone
last runs, a grid symmetric about 0, rows that fall to exactly 0, the
split-factor fallback and site parts near the double range.  The whole run
takes a few seconds.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from spinbath import engine
from spinbath.ensemble import sample_model, sample_observable
from spinbath.model import IDENTITY_2, make_model, make_observable


@dataclass(frozen=True)
class Case:
    name: str
    cost: int  # site-times, to order the cases by size
    compute: Callable[[], object]


def _grids(model) -> dict[str, object]:
    t_max = 100.0 / model.mean_coupling
    rng = np.random.default_rng(model.n_sites)
    return {
        "even2000": np.linspace(0.0, t_max, 2000),
        "t<=1": np.linspace(0.0, 1.0, 2000),
        "even400": np.linspace(0.0, t_max, 400),
        "uneven700": np.sort(rng.uniform(0.0, t_max, 700)),
        "scalar": 0.7,
        "two": np.array([0.3, 0.9]),
        "symmetric999": np.linspace(-t_max, t_max, 999),
    }


def _near_balanced_model(n_sites=1000):
    """Overlap factors cos t + i (2u - 1) sin t with (2u - 1)^2 = 1.02 * 2^-20.

    At t in [1.0, 1.2] their site blocks multiply to above the fold floor,
    below it, into the subnormal range and to 0, so the split fallback runs.
    """
    u = 0.5 * (1.0 + 2.0**-10 * math.sqrt(1.02))
    inv = 1.0 / math.sqrt(2.0)
    return make_model(inv, inv, [(math.sqrt(u), math.sqrt(1.0 - u), 1.0)] * n_sites)


def _near_range_observable(n_sites, last):
    """Halves of the identity on every site part but the last, which is ``last``."""
    parts = [0.5 * IDENTITY_2] * (n_sites - 1) + [last]
    return make_observable(np.diag([1.0, 0.0]), parts)


def _reduced_states(model, times):
    return np.array([engine.reduced_system_state(model, t).matrix for t in times])


def _expectation_product(model, obs, times, k):
    return engine._expectation_products(model, obs, np.atleast_1d(times))[k]


def cases() -> list[Case]:
    """Every case, each computing from the arguments bound to it."""
    out = []

    def add(name, cost, f, *args, **kwargs):
        out.append(Case(name, cost, partial(f, *args, **kwargs)))

    for n in (1, 2, 7, 33, 100, 1000, 3000, 10**4):
        model = sample_model(n, 5)
        obs = sample_observable(n, 6) if n <= 3000 else None
        grids = _grids(model)
        for grid, t in grids.items():
            add(f"overlap_r/N={n}/{grid}", n * np.size(t), engine.overlap_r, model, t)
            if obs is not None:
                add(f"expectation/N={n}/{grid}", n * np.size(t), engine.expectation, model, obs, t)
        # Selected rows: the prefix a sweep verdict reads, and a range across
        # the run and piece edge at time 1024.
        for grid, start, stop in (("even400", 0, 82), ("even2000", 1000, 1100)):
            add(f"overlap_r/N={n}/{grid}/rows{start}:{stop}", n * (stop - start),
                engine.overlap_r, model, grids[grid], rows=slice(start, stop))
        add(f"reduced_state/N={n}", 3 * n, _reduced_states, model, (0.0, 0.7, 2.5))
        w_up, _ = engine._site_weights(model)
        add(f"_product/N={n}", n, engine._product, (2.0 * w_up - 1.0) ** 2)
    for n in (7, 100, 3000):
        model, obs = sample_model(n, 11), sample_observable(n, 12)
        t = np.linspace(0.0, 100.0 / model.mean_coupling, 2000)
        for k in range(3):
            name = f"_expectation_products[{k}]/N={n}/even2000"
            add(name, n * 2000, _expectation_product, model, obs, t, k)
    # Chunk and piece edges, lone last runs and long grids.
    model, obs = sample_model(100, 7), sample_observable(100, 8)
    for size in (1023, 1024, 1025, 4096, 4097, 5000, 8193):
        t = np.linspace(0.0, 100.0 / model.mean_coupling, size)
        add(f"overlap_r/N=100/even{size}", 100 * size, engine.overlap_r, model, t)
        add(f"expectation/N=100/even{size}", 100 * size, engine.expectation, model, obs, t)
    t = np.linspace(0.0, 100.0 / model.mean_coupling, 4097)
    add("overlap_r/N=100/even4097/rows4000:4097", 100 * 97, engine.overlap_r, model, t, rows=slice(4000, 4097))
    add("overlap_r/N=10000/seed0/t<=1/8193", 10**4 * 8193,
        engine.overlap_r, sample_model(10**4, 0), np.linspace(0.0, 1.0, 8193))
    # The split fallback: near-balanced factors.
    model, obs = _near_balanced_model(), sample_observable(1000, 7)
    for grid, t in {
        "even9": np.linspace(1.0, 1.2, 9),
        "uneven4": np.array([1.0, 1.03, 1.1, 1.2]),
        "scalar": 1.1,
    }.items():
        add(f"near_balanced/overlap_r/{grid}", 1000 * np.size(t), engine.overlap_r, model, t)
        for k in range(3):
            add(f"near_balanced/_expectation_products[{k}]/{grid}", 1000 * np.size(t),
                _expectation_product, model, obs, t, k)
    # The trace-long shape.
    model, obs = sample_model(48, 7919), sample_observable(48, 7919 + 10**6)
    t = np.linspace(0.0, 100.0 / model.mean_coupling, 200_000)
    add("expectation/N=48/trace-long", 48 * t.size, engine.expectation, model, obs, t)
    # Site parts near the double range: 2000 halves of the identity and one large part.
    model = sample_model(2001, 0)
    for scale in (1e307, 1.7e308):
        obs = _near_range_observable(2001, scale * np.ones((2, 2)))
        t = np.linspace(0.0, 5.0, 5)
        add(f"near_range/expectation/{scale:g}", 2001 * 5, engine.expectation, model, obs, t)
    return out


def digest(case: Case) -> str:
    value = np.ascontiguousarray(case.compute())
    sha = hashlib.sha256(value.tobytes()).hexdigest()
    shape = str(value.shape).replace(" ", "")
    return f"{case.name} {value.dtype} {shape} {sha}"


def main() -> int:
    for case in cases():
        print(digest(case))
    return 0


if __name__ == "__main__":
    sys.exit(main())
