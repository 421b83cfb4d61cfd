"""Exact dynamics and decoherence analysis for a central spin in a spin bath.

A single qubit coupled to N uncoupled environment spins through a diagonal
dephasing interaction can be simulated two ways: a closed-form product over
sites, linear in N, and a brute-force dense state vector, exponential in N.
This package provides both, keeps them in agreement to 1e-10, and layers
decoherence diagnostics, seeded ensembles and a reproducible experiment
runner on top.  A runner config may set only the fields that can change its
subcommand's output (``config.COMMANDS``), so equal outputs carry equal
config digests.
"""

from .analysis import (
    HBAR_EV_S,
    NEVER,
    DecoherenceVerdict,
    SweepRow,
    TimescaleReport,
    decoherence_time,
    fluctuation_stats,
    n_scaling_sweep,
    r_trajectory,
    recurrence_check,
    timescale_estimate,
)
from .config import ExperimentConfig, config_from_dict, config_from_file, parse_observable_spec
from .engine import (
    ReducedState,
    expectation,
    overlap_r,
    reduced_system_state,
)
from .ensemble import commensurate_model, sample_model, sample_observable
from .model import (
    RelevantObservable,
    SpinBathModel,
    Trajectory,
    eid_observable,
    make_model,
    make_observable,
    single_site_observable,
)
from .oracle import (
    DenseState,
    SiteCapError,
    build_initial,
    evolve,
    oracle_expectation,
    oracle_overlap,
    oracle_reduced_state,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_EV_S",
    "NEVER",
    "DecoherenceVerdict",
    "DenseState",
    "ExperimentConfig",
    "ReducedState",
    "RelevantObservable",
    "SiteCapError",
    "SpinBathModel",
    "SweepRow",
    "TimescaleReport",
    "Trajectory",
    "build_initial",
    "commensurate_model",
    "config_from_dict",
    "config_from_file",
    "decoherence_time",
    "eid_observable",
    "evolve",
    "expectation",
    "fluctuation_stats",
    "make_model",
    "make_observable",
    "n_scaling_sweep",
    "oracle_expectation",
    "oracle_overlap",
    "oracle_reduced_state",
    "overlap_r",
    "parse_observable_spec",
    "r_trajectory",
    "recurrence_check",
    "reduced_system_state",
    "sample_model",
    "sample_observable",
    "single_site_observable",
    "timescale_estimate",
]
