"""Experiment configuration: flat JSON documents with a stable digest.

A config is one flat key-value document; command-line flags override file
fields, which override the defaults below.  ``COMMANDS`` names, for each
subcommand, the fields that can change its output; every other field must
stay at its default.  The digest is the SHA-256 of the canonical
serialization (sorted keys, compact separators) of every field except the
output path and the dense-state site cap, which say where a run lands and
what memory it may take, so two runs with equal outputs carry equal digests.
Every output file embeds that digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Any

import numpy as np

from .ensemble import DEFAULT_AMPLITUDE, sample_observable
from .model import PAULI_BY_NAME, RelevantObservable, _Checked, eid_observable, single_site_observable
from .oracle import DEFAULT_SITE_CAP

_MODEL_FIELDS = ("n", "seed", "a_re", "a_im", "b_re", "b_im")

# The fields each subcommand's handler reads, in the order its flags are
# listed.  simulate-r, recurrence and fluctuation write only the bath overlap,
# which does not depend on the probe amplitudes, so they do not read them.
COMMANDS = {
    "simulate-r": ("n", "seed", "t_max", "points"),
    "simulate-obs": _MODEL_FIELDS + ("t_max", "points", "obs"),
    "sweep-n": ("n_list", "seed", "n_seeds", "theta", "window", "t_max", "points"),
    "oracle-check": _MODEL_FIELDS + ("trials", "tol", "site_cap"),
    "recurrence": ("n", "seed", "g_base"),
    "timescale": ("v1_ev", "v2_ev"),
    "fluctuation": ("n", "seed", "t0", "t1"),
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Field annotation -> (test a value must pass, its stored form).
_FIELD_TYPES = {
    "int": (_is_int, int),
    "float": (lambda v: _is_int(v) or isinstance(v, float), float),
    "str": (lambda v: isinstance(v, str), str),
    "tuple[int, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
        lambda v: tuple(map(int, v)),
    ),
}


@dataclass(frozen=True)
class ExperimentConfig(_Checked):
    """All knobs of one reproducible run, in one flat namespace.

    Every value must have its field's type (an int field takes no bool, a
    float field takes an int); a field that ``COMMANDS`` does not list for
    ``command`` must keep its default, so a config cannot set a knob its run
    ignores.  Fields that default to None are derived from the model's mean
    coupling gbar at run time: t_max becomes 100/gbar, window 20/gbar, and the
    window (t0, t1) that fluctuation integrates |r|^2 over becomes
    (50/gbar, 550/gbar).
    """

    command: str
    n: int = 20
    n_list: tuple[int, ...] = (20,)
    seed: int = 0
    a_re: float = DEFAULT_AMPLITUDE
    a_im: float = 0.0
    b_re: float = DEFAULT_AMPLITUDE
    b_im: float = 0.0
    t_max: float | None = None
    points: int = 2000
    theta: float = 0.1
    window: float | None = None
    obs: str = "eid:1,0,0,-1"
    g_base: float = 1.0
    v1_ev: float = 1e23
    v2_ev: float = 1.0
    trials: int = 20
    tol: float = 1e-10
    n_seeds: int = 5
    t0: float | None = None
    t1: float | None = None
    site_cap: int = DEFAULT_SITE_CAP
    out: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            check, coerce = _FIELD_TYPES[kind]
            if not check(value):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
            self._store(**{f.name: coerce(value)})
        if self.command not in COMMANDS:
            raise ValueError(
                f"unknown command {self.command!r}; known: {', '.join(COMMANDS)}"
            )
        unread = [
            f.name
            for f in fields(self)
            if f.name not in (*COMMANDS[self.command], "command", "out")
            and getattr(self, f.name) != f.default
        ]
        if unread:
            raise ValueError(f"{self.command} does not read {', '.join(unread)}")
        if not self.n_list or any(x < 1 for x in self.n_list):
            raise ValueError("n_list must be a non-empty list of positive counts")
        if self.n < 1:
            raise ValueError("site count must be at least 1")
        if self.points < 2:
            raise ValueError("need at least two grid points")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")
        for name in ("t_max", "window", "t0", "t1", "g_base", "v1_ev", "v2_ev", "tol"):
            value = getattr(self, name)  # only the first four may be None
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.trials < 1 or self.n_seeds < 1 or self.site_cap < 1:
            raise ValueError("trials, n_seeds and site_cap must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "n_list": list(self.n_list)}

    def canonical_json(self) -> str:
        """Serialization that defines identity; the output path and site cap are excluded."""
        d = {k: v for k, v in self.to_dict().items() if k not in ("out", "site_cap")}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build a config from a flat JSON document; unknown keys are an error."""
    if not isinstance(data, dict):
        raise ValueError("config document must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if "command" not in data:
        raise ValueError("config needs a command")
    return ExperimentConfig(**data)


def config_from_file(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(data)


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what} has a non-numeric entry in {text!r}") from None


def _parse_site_part(text: str) -> np.ndarray:
    """A named 2x2 Hermitian matrix or four numbers e00,e01re,e01im,e11."""
    if text in PAULI_BY_NAME:
        return PAULI_BY_NAME[text]
    e00, e01re, e01im, e11 = _parse_floats(text, 4, "site part")
    off = complex(e01re, e01im)
    return np.array([[e00, off], [np.conj(off), e11]])


def parse_observable_spec(spec: str, n_sites: int) -> RelevantObservable:
    """Resolve an observable spec string against a model size.

    Grammar:  ``eid:s00,s01re,s01im,s11`` for an identity-on-every-site
    observable, ``single-site:<j>`` or ``single-site:<j>:<part>`` for a probe
    on bath site j alone (part is a Pauli name or four numbers, sz when
    omitted), and ``random:<seed>`` for a seeded random Hermitian product.
    """
    kind, _, rest = spec.partition(":")
    if kind == "eid":
        s00, s01re, s01im, s11 = _parse_floats(rest, 4, "eid spec")
        return eid_observable(s00, complex(s01re, s01im), s11, n_sites)
    if kind == "single-site":
        site_text, _, part_text = rest.partition(":")
        try:
            j = int(site_text)
        except ValueError:
            raise ValueError(f"single-site index must be an integer, got {site_text!r}") from None
        return single_site_observable(j, _parse_site_part(part_text or "sz"), n_sites)
    if kind == "random":
        try:
            obs_seed = int(rest)
        except ValueError:
            raise ValueError(f"random observable needs an integer seed, got {rest!r}") from None
        return sample_observable(n_sites, obs_seed)
    raise ValueError(
        f"unknown observable kind {kind!r}; use eid:..., single-site:... or random:..."
    )
