"""Determinism, distribution support and the common-seed family structure."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath.ensemble
from spinbath.ensemble import (
    _contract_draws,
    commensurate_model,
    sample_model,
    sample_observable,
)
from spinbath.model import _SITE_CHUNK, make_model
from spinbath.oracle import build_initial, oracle_expectation

README = Path(__file__).resolve().parents[1] / "README.md"


def reference_site_draws(n_sites, seed):
    """(u, phi, g) per site, one numpy Generator per spawned child."""
    draws = []
    for child in np.random.SeedSequence(seed).spawn(n_sites):
        gen = np.random.default_rng(child)
        u = gen.uniform(0.0, 1.0)
        phi = gen.uniform(0.0, 2.0 * np.pi)
        draws.append((u, phi, 1.0 - gen.uniform(0.0, 1.0)))
    return draws


def reference_model_arrays(n_sites, seed):
    alphas, betas, couplings = [], [], []
    for u, phi, g in reference_site_draws(n_sites, seed):
        alphas.append(complex(np.sqrt(u)))
        betas.append(complex(np.sqrt(1.0 - u) * np.exp(1j * phi)))
        couplings.append(g)
    return np.array(alphas), np.array(betas), np.array(couplings)


def reference_observable_parts(n_sites, seed):
    """System part first, then one part per site, from spawn(n_sites + 1)."""
    parts = []
    for child in np.random.SeedSequence(seed).spawn(n_sites + 1):
        gen = np.random.default_rng(child)
        d0, d1 = gen.uniform(-1.0, 1.0, 2)
        off = gen.uniform(0.0, 1.0) * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi))
        parts.append(np.array([[d0, off], [np.conj(off), d1]]))
    return np.stack(parts)


def readme_vectors():
    """(seed, site, u, phi, g) rows of the README's test-vector table."""
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| (\d+) \| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", text, re.M)
    return [(int(seed), int(site), float(u), float(phi), float(g)) for seed, site, u, phi, g in rows]


def assert_matches_numpy(n_sites, seed):
    alphas, betas, couplings = reference_model_arrays(n_sites, seed)
    model = sample_model(n_sites, seed)
    assert np.array_equal(model.alphas, alphas)
    assert np.array_equal(model.betas, betas)
    assert np.array_equal(model.couplings, couplings)
    ladder = commensurate_model(n_sites, 0.25, seed)
    assert np.array_equal(ladder.alphas, alphas)
    assert np.array_equal(ladder.betas, betas)
    parts = reference_observable_parts(n_sites, seed)
    obs = sample_observable(n_sites, seed)
    assert np.array_equal(obs.system_part, parts[0])
    assert np.array_equal(obs.site_parts, parts[1:])


class TestBitExactAgainstNumpy:
    """The array sampler reproduces numpy's per-child Generator draws bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("n_sites", [1, 2, 48, 1000])
    def test_fixed_seeds(self, seed, n_sites):
        assert_matches_numpy(n_sites, seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n_sites=st.integers(1, 300))
    def test_any_seed(self, seed, n_sites):
        assert_matches_numpy(n_sites, seed)

    @pytest.mark.parametrize("seed", [0, 2**96 + 3, 2**130 + 11])
    def test_raw_outputs_match_pcg64(self, seed):
        # Seeds of four or more 32-bit words take SeedSequence's second mixing loop.
        children = np.random.SeedSequence(seed).spawn(5)
        expected = np.stack([np.random.PCG64(c).random_raw(6) for c in children])
        assert np.array_equal(_contract_draws(5, seed, 6), expected)

    def test_readme_test_vectors(self):
        rows = readme_vectors()
        assert len(rows) == 7
        for seed, site, u, phi, g in rows:
            model, j = sample_model(site, seed), site - 1
            alpha, beta, coupling = model.alphas[j], model.betas[j], model.couplings[j]
            assert alpha == np.sqrt(u)
            assert beta == np.sqrt(1.0 - u) * np.exp(1j * phi)
            assert coupling == g
            assert reference_site_draws(site, seed)[-1] == (u, phi, g)


class TestSeedValidation:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda: sample_model(3, -1),
            lambda: commensurate_model(3, 1.0, -1),
            lambda: sample_observable(3, -1),
            lambda: _contract_draws(3, -1, 2),
        ],
    )
    def test_negative_seed_is_named(self, draw):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            draw()

    def test_non_integer_seed(self):
        with pytest.raises(TypeError):
            sample_model(3, 1.5)

    def test_spawn_key_must_fit_one_word(self):
        # Checked before anything is allocated.
        with pytest.raises(ValueError, match="two-word spawn key"):
            _contract_draws(2**32, 0, 3)
        with pytest.raises(ValueError, match="two-word spawn key"):
            sample_observable(2**32 - 1, 0)
        assert _contract_draws(1, 0, 3).shape == (1, 3)

    @pytest.mark.parametrize("first, n", [(2**32 - 1, 2), (2**32 - 1, 1), (2**32 - 2, 2), (2**31, 2**31)])
    def test_spawn_key_guard_counts_the_offset(self, first, n):
        # The last key, first + n - 1, must stay below 2**32 - 1, as it does
        # for a chunk starting at 0; the check comes before any allocation.
        with pytest.raises(ValueError, match=f"{first + n} streams need a two-word spawn key"):
            _contract_draws(n, 0, 3, first)

    @pytest.mark.parametrize("seed", [0, 2**64 + 5])
    def test_last_one_word_spawn_key_matches_numpy(self, seed):
        key = 2**32 - 2
        expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))).random_raw(3)
        assert np.array_equal(_contract_draws(1, seed, 3, key), expected[None])


class TestChunks:
    """Sites are drawn, tabulated and validated _SITE_CHUNK at a time."""

    @pytest.mark.parametrize("n_sites", [_SITE_CHUNK - 1, _SITE_CHUNK, _SITE_CHUNK + 1, 2 * _SITE_CHUNK + 1])
    def test_chunk_boundaries_match_numpy(self, n_sites):
        assert_matches_numpy(n_sites, 2**40 + 9)

    def test_readme_test_vectors_in_a_model_of_several_chunks(self):
        rows = readme_vectors()
        models = {seed: sample_model(2 * _SITE_CHUNK + 1, seed) for seed, *_ in rows}
        for seed, site, u, phi, g in rows:
            model, j = models[seed], site - 1
            alpha, beta, coupling = model.alphas[j], model.betas[j], model.couplings[j]
            assert (alpha, beta, coupling) == (np.sqrt(u), np.sqrt(1.0 - u) * np.exp(1j * phi), g)

    @pytest.mark.parametrize("first", [1, 5, _SITE_CHUNK - 1, _SITE_CHUNK, 3 * _SITE_CHUNK + 7])
    def test_offset_rows_are_the_same_bits(self, first):
        whole = _contract_draws(first + 9, 77, 4)
        assert np.array_equal(_contract_draws(9, 77, 4, first), whole[first:])

    @pytest.mark.parametrize("draw", [sample_model, sample_observable, lambda n, s: commensurate_model(n, 1.0, s)])
    @pytest.mark.parametrize("n_sites", [0, -1])
    def test_no_sites_is_rejected(self, draw, n_sites):
        with pytest.raises(ValueError, match="need at least one site"):
            draw(n_sites, 0)

    @pytest.mark.parametrize("site", [_SITE_CHUNK + 6, 2 * _SITE_CHUNK + 1])
    def test_bad_row_in_a_later_chunk_names_its_site(self, site):
        good = (1.0, 0.0, 1.0)
        sites = [good] * (2 * _SITE_CHUNK + 1)
        sites[site - 1] = (1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=re.escape(
            f"site {site} amplitudes not normalized: |alpha|^2 + |beta|^2 = 2.0"
        )):
            make_model(1.0, 0.0, sites)
        sites[site - 1] = (1.0, 0.0, 1.0j)
        with pytest.raises(ValueError, match=re.escape(f"site {site} coupling must be real, got 1j")):
            make_model(1.0, 0.0, np.array(sites))

    def test_sampler_names_the_global_site_of_a_bad_draw(self, monkeypatch):
        # Make the phase of the third site in the second chunk NaN.
        uniform, calls = spinbath.ensemble._uniform, []

        def bad_phase(raw, low, high):
            values = uniform(raw, low, high)
            if high == 2.0 * np.pi:
                calls.append(None)
                if len(calls) == 2:
                    values[2] = np.nan
            return values

        monkeypatch.setattr(spinbath.ensemble, "_uniform", bad_phase)
        with pytest.raises(ValueError, match=f"^site {_SITE_CHUNK + 3} amplitudes must be finite$"):
            sample_model(2 * _SITE_CHUNK, 3)

    def test_peak_memory_is_bounded_by_the_model(self):
        # At N = 10^5 the model's own arrays take 3.8 MiB.  Drawing every
        # site at once peaked at 25.9 MiB traced (6.8x); 2^12-site chunks
        # measured 5.1 MiB (1.34x) on x86-64 with numpy 2.4.  Bound: 1.5x.
        sample_model(10, 1)
        tracemalloc.start()
        try:
            model = sample_model(10**5, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = model.alphas.nbytes + model.betas.nbytes + model.couplings.nbytes
        assert peak <= 1.5 * size


class TestSampleModel:
    def test_same_seed_is_bit_identical(self):
        first = sample_model(12, 123)
        second = sample_model(12, 123)
        assert np.array_equal(first.alphas, second.alphas)
        assert np.array_equal(first.betas, second.betas)
        assert np.array_equal(first.couplings, second.couplings)
        assert first.a == second.a and first.b == second.b

    def test_different_seed_differs(self):
        assert not np.array_equal(
            sample_model(12, 123).couplings, sample_model(12, 124).couplings
        )

    def test_moduli_squared_mean_is_one_half(self):
        model = sample_model(10_000, 5)
        mean = float(np.mean(np.abs(model.alphas) ** 2))
        assert 0.49 <= mean <= 0.51

    def test_coupling_support_is_half_open_unit_interval(self):
        model = sample_model(10_000, 6)
        assert np.all(model.couplings > 0.0)
        assert np.all(model.couplings <= 1.0)

    def test_every_site_normalized(self):
        model = sample_model(200, 7)
        norms = np.abs(model.alphas) ** 2 + np.abs(model.betas) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_alpha_real_nonnegative_phase_on_beta(self):
        model = sample_model(50, 8)
        assert np.all(model.alphas.imag == 0.0)
        assert np.all(model.alphas.real >= 0.0)

    def test_prefix_property_of_seeded_family(self):
        # Per-site streams are keyed by site index, so a larger bath extends
        # a smaller one at the same seed instead of reshuffling it.
        small = sample_model(20, 3)
        large = sample_model(100, 3)
        assert np.array_equal(large.alphas[:20], small.alphas)
        assert np.array_equal(large.betas[:20], small.betas)
        assert np.array_equal(large.couplings[:20], small.couplings)

    def test_needs_a_site(self):
        with pytest.raises(ValueError, match="at least one site"):
            sample_model(0, 0)

    def test_amplitudes_pass_through(self):
        model = sample_model(2, 0, a=0.6, b=0.8j)
        assert model.a == 0.6 + 0.0j
        assert model.b == 0.8j


class TestCommensurateModel:
    def test_couplings_are_exact_multiples(self):
        model = commensurate_model(6, 0.25, 9)
        assert np.array_equal(model.couplings, 0.25 * np.arange(1, 7))

    def test_coefficients_match_random_coupling_family(self):
        # u and phase are drawn before the coupling, so the coefficients
        # coincide with sample_model at the same seed.
        random_g = sample_model(6, 9)
        fixed_g = commensurate_model(6, 0.25, 9)
        assert np.array_equal(fixed_g.alphas, random_g.alphas)
        assert np.array_equal(fixed_g.betas, random_g.betas)

    def test_bad_base(self):
        with pytest.raises(ValueError, match="positive"):
            commensurate_model(3, 0.0, 0)
        with pytest.raises(ValueError, match="positive"):
            commensurate_model(3, -1.0, 0)


class TestSampleObservable:
    def test_deterministic(self):
        first = sample_observable(5, 11)
        second = sample_observable(5, 11)
        assert np.array_equal(first.system_part, second.system_part)
        assert np.array_equal(first.site_parts, second.site_parts)

    def test_entries_bounded_by_one(self):
        obs = sample_observable(40, 13)
        assert np.abs(obs.system_part).max() <= 1.0
        assert np.abs(obs.site_parts).max() <= 1.0

    def test_hermitian(self):
        obs = sample_observable(8, 17)
        assert np.allclose(obs.system_part, obs.system_part.conj().T, atol=1e-15)
        for part in obs.site_parts:
            assert np.allclose(part, part.conj().T, atol=1e-15)

    def test_expectation_is_real_numerically(self):
        # The dense contraction keeps the raw imaginary part and would raise
        # above 1e-10; this checks Hermiticity end to end.
        model = sample_model(5, 19, a=0.6, b=0.8j)
        obs = sample_observable(5, 23)
        value = oracle_expectation(build_initial(model), obs)
        assert isinstance(value, float)

    def test_needs_a_site(self):
        with pytest.raises(ValueError, match="at least one site"):
            sample_observable(0, 0)
