"""Construction and validation rules for models, observables and trajectories."""

import dataclasses
import math
import re

import numpy as np
import pytest

from spinbath.model import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    RelevantObservable,
    SpinBathModel,
    Trajectory,
    eid_observable,
    make_model,
    make_observable,
    single_site_observable,
)

INV = 1.0 / math.sqrt(2.0)


class TestMakeModel:
    def test_basis_state_single_site(self):
        model = make_model(1.0, 0.0, [(1.0, 0.0, 1.0)])
        assert model.n_sites == 1
        assert model.a == 1.0 + 0.0j
        assert model.b == 0.0 + 0.0j

    def test_equal_superposition(self):
        model = make_model(INV, INV, [(INV, INV, 1.0)])
        assert abs(abs(model.a) ** 2 + abs(model.b) ** 2 - 1.0) < 1e-12
        assert (model.alphas[0], model.betas[0], model.couplings[0]) == (INV, INV, 1.0)

    def test_unnormalized_system_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            make_model(1.0, 1.0, [(1.0, 0.0, 1.0)])

    def test_unnormalized_site_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            make_model(1.0, 0.0, [(1.0, 1.0, 1.0)])

    def test_zero_norm_system_pair(self):
        with pytest.raises(ValueError, match="zero norm"):
            make_model(0.0, 0.0, [(1.0, 0.0, 1.0)])

    def test_zero_norm_site_pair(self):
        with pytest.raises(ValueError, match="zero norm"):
            make_model(1.0, 0.0, [(0.0, 0.0, 1.0)])

    def test_nonpositive_coupling(self):
        with pytest.raises(ValueError, match="coupling must be positive"):
            make_model(1.0, 0.0, [(1.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="coupling must be positive"):
            make_model(1.0, 0.0, [(1.0, 0.0, -2.0)])

    def test_nonfinite_amplitude(self):
        with pytest.raises(ValueError, match="finite"):
            make_model(math.nan, 0.0, [(1.0, 0.0, 1.0)])

    def test_empty_sites(self):
        with pytest.raises(ValueError, match="at least one"):
            make_model(1.0, 0.0, [])

    def test_message_names_first_bad_site_and_its_first_fault(self):
        good = (INV, INV, 1.0)
        cases = [
            ([good, (1.0, 1.0, -1.0), (0.0, 0.0, 1.0)], "site 2 amplitudes not normalized"),
            ([good, good, (0.0, 0.0, -1.0), (math.nan, 0.0, 1.0)], "site 3 amplitude pair has zero norm"),
            ([good, (math.inf, 0.0, 0.0)], "site 2 amplitudes must be finite"),
            ([good, (1.0, 0.0, math.nan), (1.0, 1.0, 1.0)], "site 2 coupling must be positive, got nan"),
            ([good, (1e200, 0.0, 1.0)], "site 2 amplitudes not normalized: |alpha|^2 + |beta|^2 = inf"),
            ([good, (1.0, 0.0, 1.0 + 1.0j)], "site 2 coupling must be real, got (1+1j)"),
        ]
        for sites, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                make_model(1.0, 0.0, sites)

    def test_site_must_be_a_triple(self):
        for sites in ([(1.0, 0.0, 1.0), (1.0, 0.0)], [(1.0, 0.0, 1.0, 2.0)], [1.0]):
            with pytest.raises(ValueError, match="triple"):
                make_model(1.0, 0.0, sites)

    def test_sites_keep_their_order(self):
        model = make_model(1.0, 0.0, [(1.0, 0.0, 0.5), (0.0, 1.0, 1.5)])
        assert model.alphas.tolist() == [1.0, 0.0] and model.betas.tolist() == [0.0, 1.0]
        assert model.couplings.tolist() == [0.5, 1.5]

    def test_mean_coupling(self):
        model = make_model(1.0, 0.0, [(1.0, 0.0, 0.5), (1.0, 0.0, 1.5)])
        assert model.mean_coupling == 1.0

    def test_model_is_immutable(self):
        model = make_model(1.0, 0.0, [(1.0, 0.0, 1.0)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.a = 0.0
        with pytest.raises(ValueError):
            model.alphas[0] = 0.0


class TestObservables:
    def test_eid_sigma_z_shape(self):
        obs = eid_observable(1.0, 0.0, -1.0, 3)
        assert obs.n_sites == 3
        assert np.array_equal(obs.system_part, SIGMA_Z)
        assert np.array_equal(obs.site_parts, [IDENTITY_2] * 3)

    def test_eid_sigma_x(self):
        obs = eid_observable(0.0, 1.0, 0.0, 1)
        assert np.array_equal(obs.system_part, SIGMA_X)

    def test_eid_complex_coherence_is_conjugated(self):
        obs = eid_observable(0.5, 0.25 + 0.1j, 0.5, 2)
        assert obs.system_part[1, 0] == np.conj(obs.system_part[0, 1])

    def test_single_site_structure(self):
        obs = single_site_observable(1, SIGMA_Z, 2)
        assert np.array_equal(obs.system_part, IDENTITY_2)
        assert np.array_equal(obs.site_parts[0], SIGMA_Z)
        assert np.array_equal(obs.site_parts[1], IDENTITY_2)
        assert not np.array_equal(obs.site_parts, [IDENTITY_2] * 2)

    def test_single_site_index_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            single_site_observable(3, SIGMA_Z, 2)
        with pytest.raises(ValueError, match="out of range"):
            single_site_observable(0, SIGMA_Z, 2)

    def test_single_site_identity_is_identity_observable(self):
        obs = single_site_observable(1, IDENTITY_2, 1)
        assert np.array_equal(obs.site_parts, [IDENTITY_2])

    def test_make_observable_rejects_non_hermitian_system(self):
        bad = np.array([[1.0, 1.0j], [1.0j, 0.0]])
        with pytest.raises(ValueError, match="conjugates"):
            make_observable(bad, [IDENTITY_2])

    def test_make_observable_rejects_complex_diagonal(self):
        bad = np.array([[1.0j, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal must be real"):
            make_observable(bad, [IDENTITY_2])

    def test_make_observable_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="2x2"):
            make_observable(np.eye(3), [IDENTITY_2])

    def test_message_names_first_bad_site_part(self):
        bad_off = np.array([[1.0, 1.0j], [1.0j, 0.0]])
        bad_diag = np.array([[1.0j, 0.0], [0.0, 0.0]])
        not_finite = np.array([[np.nan, 0.0], [0.0, 0.0]])
        cases = [
            ([IDENTITY_2, bad_off, bad_diag], "site part 2 off-diagonal entries must be conjugates"),
            ([IDENTITY_2, IDENTITY_2, bad_diag, bad_off], "site part 3 diagonal must be real"),
            ([IDENTITY_2, not_finite, bad_off], "site part 2 entries must be finite"),
            ([IDENTITY_2, np.eye(3), bad_off], "site part 2 must be a 2x2 matrix"),
            ([IDENTITY_2, bad_off, np.eye(3)], "site part 2 off-diagonal entries must be conjugates"),
            ([np.eye(3), np.eye(3)], "site part 1 must be a 2x2 matrix"),
        ]
        for parts, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                make_observable(IDENTITY_2, parts)
        with pytest.raises(ValueError, match="^system part diagonal must be real$"):
            make_observable(bad_diag, [bad_off])

    def test_make_observable_needs_sites(self):
        with pytest.raises(ValueError, match="at least one"):
            make_observable(IDENTITY_2, [])
        with pytest.raises(ValueError, match="at least one"):
            make_observable(IDENTITY_2, np.empty((0, 2, 2)))

    def test_stored_matrices_are_hermitian_and_frozen(self):
        obs = make_observable(
            np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -1.0]]),
            [np.array([[0.0, 1.0], [1.0, 0.0]])],
        )
        assert np.allclose(obs.system_part, obs.system_part.conj().T, atol=1e-12)
        with pytest.raises(ValueError):
            obs.system_part[0, 0] = 5.0

    def test_direct_construction_bypasses_checks(self):
        # The dataclass itself is a dumb container; validation lives in the
        # constructors that downstream code uses.
        raw = RelevantObservable(
            system_part=np.eye(2, dtype=complex),
            site_parts=np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)),
        )
        assert raw.n_sites == 2


class TestTrajectory:
    def test_span(self):
        traj = Trajectory(times=[0.0, 1.0, 3.0], values=[1.0, 0.5, 0.25])
        assert traj.span == 3.0

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(times=[0.0, 1.0, 1.0], values=[1.0, 1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(times=[0.0, 1.0], values=[1.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="at least two"):
            Trajectory(times=[0.0], values=[1.0])

    def test_complex_values_and_immutability(self):
        traj = Trajectory(times=[0.0, 1.0], values=[1.0 + 0.0j, 0.0 + 1.0j])
        assert traj.values.dtype == complex
        with pytest.raises(ValueError):
            traj.values[0] = 0.0


def test_spinbathmodel_direct_fields_are_what_constructors_fill():
    model = make_model(INV, INV * 1.0j, [(INV, INV, 1.0), (0.6, 0.8, 2.0)])
    assert isinstance(model, SpinBathModel)
    assert model.alphas.dtype == complex
    assert model.couplings.dtype == float
    assert model.n_sites == 2
