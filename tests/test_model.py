"""Construction and validation rules for models, observables and trajectories."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from spinbath.analysis import DecoherenceVerdict, TimescaleReport, r_trajectory
from spinbath.config import ExperimentConfig
from spinbath.engine import ReducedState, reduced_system_state
from spinbath.ensemble import commensurate_model, sample_model, sample_observable
from spinbath.model import (
    _SITE_CHUNK,
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
from spinbath.oracle import DenseState, build_initial, evolve

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

    def test_direct_construction_checks_its_parts(self):
        raw = RelevantObservable(
            system_part=np.eye(2, dtype=complex),
            site_parts=np.array(np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2))),
        )
        assert raw.n_sites == 2
        bad_off = np.array([[1.0, 1.0j], [1.0j, 0.0]])
        with pytest.raises(ValueError, match="^site part 2 off-diagonal entries must be conjugates$"):
            RelevantObservable(IDENTITY_2, np.array([IDENTITY_2, bad_off]))
        with pytest.raises(ValueError, match="^system part off-diagonal entries must be conjugates$"):
            RelevantObservable(bad_off, np.array([IDENTITY_2]))

    def test_direct_construction_checks_shapes(self):
        with pytest.raises(ValueError, match="system part must be a 2x2 matrix"):
            RelevantObservable(np.eye(3), np.array([IDENTITY_2]))
        with pytest.raises(ValueError, match=re.escape("(n, 2, 2) stack, got shape (2, 2)")):
            RelevantObservable(IDENTITY_2, IDENTITY_2)
        with pytest.raises(ValueError, match="at least one site part"):
            RelevantObservable(IDENTITY_2, np.empty((0, 2, 2)))

    def test_site_parts_are_checked_past_the_first_chunk(self):
        parts = np.array(np.broadcast_to(IDENTITY_2, (_SITE_CHUNK + 3, 2, 2)))
        parts[_SITE_CHUNK + 1, 0, 0] = 1.0j
        with pytest.raises(ValueError, match=f"^site part {_SITE_CHUNK + 2} diagonal must be real$"):
            RelevantObservable(IDENTITY_2, parts)


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

    def test_rejects_two_dimensional_arrays(self):
        grid = np.arange(6.0).reshape(2, 3)
        with pytest.raises(ValueError, match="^trajectory times and values must be 1-D$"):
            Trajectory(times=grid, values=grid)

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


class TestDirectModelConstruction:
    """SpinBathModel checks what it is given, however it is built."""

    def test_replace_rechecks_normalization(self):
        model = sample_model(5, 0)
        with pytest.raises(ValueError, match="site 1 amplitudes not normalized"):
            dataclasses.replace(model, alphas=3 * model.alphas)
        with pytest.raises(ValueError, match="system amplitudes not normalized"):
            dataclasses.replace(model, a=1.0)

    def test_nan_coupling_is_named(self):
        with pytest.raises(ValueError, match=re.escape("site 2 coupling must be positive, got nan")):
            SpinBathModel(1.0, 0.0, np.ones(3), np.zeros(3), np.array([1.0, math.nan, 1.0]))

    def test_columns_of_unequal_length_are_named(self):
        with pytest.raises(ValueError, match=re.escape("one length, got shapes ((3,), (3,), (2,))")):
            SpinBathModel(1.0, 0.0, np.ones(3), np.zeros(3), np.ones(2))
        with pytest.raises(ValueError, match=re.escape("1-D of one length, got shapes ((1, 3),")):
            SpinBathModel(1.0, 0.0, np.ones((1, 3)), np.zeros((1, 3)), np.ones((1, 3)))

    def test_needs_a_site(self):
        with pytest.raises(ValueError, match="at least one environment site"):
            SpinBathModel(1.0, 0.0, np.ones(0), np.zeros(0), np.ones(0))

    def test_sites_are_checked_past_the_first_chunk(self):
        n = _SITE_CHUNK + 3
        couplings = np.ones(n)
        couplings[_SITE_CHUNK + 1] = -1.0
        with pytest.raises(ValueError, match=f"^site {_SITE_CHUNK + 2} coupling must be positive"):
            SpinBathModel(1.0, 0.0, np.ones(n), np.zeros(n), couplings)

    def test_complex_couplings_with_zero_imaginary_part_become_real(self):
        couplings = np.array([1.0 + 0.0j, 2.0 + 0.0j])
        model = SpinBathModel(1.0, 0.0, np.ones(2), np.zeros(2), couplings)
        assert model.couplings.dtype == float and model.couplings.flags.c_contiguous
        assert model.couplings.tolist() == [1.0, 2.0]
        assert couplings.flags.writeable  # converted, so the caller's array is untouched
        with pytest.raises(ValueError, match=re.escape("site 2 coupling must be real, got (2+1j)")):
            SpinBathModel(1.0, 0.0, np.ones(2), np.zeros(2), np.array([1.0, 2.0 + 1.0j]))

    def test_complex_columns_are_shared_and_frozen(self):
        alphas = np.ones(2, dtype=complex)
        model = SpinBathModel(1.0, 0.0, alphas, [0.0, 0.0], [1.0, 2.0])
        assert model.alphas is alphas and not alphas.flags.writeable
        assert model.a == 1.0 + 0.0j and isinstance(model.a, complex)


def _model():
    return sample_model(4, 2)


_PARTS = np.broadcast_to(IDENTITY_2, (3, 2, 2))

BUILT_EVERY_WAY = {
    "make_model": lambda: make_model(INV, INV, [(INV, INV, 1.0), (0.6, 0.8j, 2.0)]),
    "sample_model": _model,
    "commensurate_model": lambda: commensurate_model(4, 0.5, 2),
    "dataclasses.replace": lambda: dataclasses.replace(_model(), couplings=np.arange(1.0, 5.0)),
    "SpinBathModel": lambda: SpinBathModel(1.0, 0.0, np.ones(2, complex), np.zeros(2, complex), np.ones(2)),
    "make_observable": lambda: make_observable(SIGMA_Z, [IDENTITY_2, SIGMA_X]),
    "eid_observable": lambda: eid_observable(0.0, 1.0, 0.0, 3),
    "single_site_observable": lambda: single_site_observable(2, SIGMA_Z, 3),
    "sample_observable": lambda: sample_observable(3, 1),
    "RelevantObservable": lambda: RelevantObservable(np.array(SIGMA_X), np.array(_PARTS)),
    "build_initial": lambda: build_initial(_model()),
    "evolve": lambda: evolve(build_initial(_model()), _model(), 1.5),
    "DenseState": lambda: DenseState(np.full(8, 1.0 / math.sqrt(8), complex), 2),
    "r_trajectory": lambda: r_trajectory(_model(), 5.0, 11),
    "reduced_system_state": lambda: reduced_system_state(_model(), 1.5),
}


@pytest.mark.parametrize("constructor", list(BUILT_EVERY_WAY))
def test_every_array_field_and_its_base_is_read_only(constructor):
    built = BUILT_EVERY_WAY[constructor]()
    arrays = [v for v in vars(built).values() if isinstance(v, np.ndarray)]
    assert arrays
    for arr in arrays:
        assert not arr.flags.writeable
        if isinstance(arr.base, np.ndarray):
            assert not arr.base.flags.writeable


def test_a_checked_reduced_state_cannot_change_through_the_array_it_views():
    big = np.zeros((3, 3), complex)
    big[0, 0] = 1
    state = ReducedState(big[:2, :2])
    with pytest.raises(ValueError, match="read-only"):
        big[1, 1] = 5
    assert np.trace(state.matrix) == 1


# One instance of every type that checks itself in __post_init__.
CHECKED = {
    "SpinBathModel": _model,
    "RelevantObservable": lambda: sample_observable(3, 1),
    "Trajectory": lambda: r_trajectory(_model(), 5.0, 11),
    "DenseState": lambda: build_initial(_model()),
    "ReducedState": lambda: reduced_system_state(_model(), 1.5),
    "DecoherenceVerdict": lambda: DecoherenceVerdict(math.inf, 0.1, 2.0, 0.5, decohered=False),
    "TimescaleReport": lambda: TimescaleReport(3.5, 0.25),
    "ExperimentConfig": lambda: ExperimentConfig("sweep-n", n_list=(3, 30), window=2.0),
}

COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("copier", list(COPIERS))
@pytest.mark.parametrize("name", list(CHECKED))
def test_copies_are_rebuilt_through_the_constructor(name, copier, monkeypatch):
    original = CHECKED[name]()
    cls = type(original)
    assert cls.__name__ == name
    checks = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: checks.append(post_init(self)))
    duplicate = COPIERS[copier](original)
    assert type(duplicate) is cls and len(checks) == 1
    for f in dataclasses.fields(original):
        value, copied = getattr(original, f.name), getattr(duplicate, f.name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(copied, value) and copied.dtype == value.dtype
            assert not copied.flags.writeable
            if isinstance(copied.base, np.ndarray):
                assert not copied.base.flags.writeable
        else:
            assert copied == value


class TestFactoriesLeaveTheirChecksToTheTypes:
    def test_eid_observable_without_sites(self):
        with pytest.raises(ValueError, match="observable needs at least one site part"):
            eid_observable(1, 0, -1, 0)
        with pytest.raises(ValueError):
            eid_observable(1, 0, -1, -1)

    def test_single_site_observable_without_sites(self):
        with pytest.raises(ValueError, match="out of range"):
            single_site_observable(1, SIGMA_Z, 0)

    @pytest.mark.parametrize("g_base", [0.0, -1.0, math.nan, math.inf])
    def test_commensurate_model_names_the_first_bad_rung(self, g_base):
        with pytest.raises(ValueError, match="^site 1 coupling must be positive"):
            commensurate_model(5, g_base, 0)

    def test_commensurate_model_names_an_overflowing_rung(self):
        with pytest.raises(ValueError, match=re.escape("site 2 coupling must be positive, got inf")):
            commensurate_model(5, 1e308, 0)
