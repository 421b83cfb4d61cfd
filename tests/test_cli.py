"""End-to-end command-line behaviour: files, formats, exit codes, replay."""

import argparse
import ast
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath.cli as cli
from spinbath import __version__, analysis
from spinbath.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    _CSV_BLOCK_ROWS,
    _format_floats,
    _write_csv,
    build_parser,
    main,
)
from spinbath.config import COMMANDS, ExperimentConfig, config_from_dict, parse_observable_spec
from spinbath.engine import _even_step, expectation
from spinbath.ensemble import sample_model, sample_observable
from spinbath.model import SpinBathModel


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# Subprocesses import the package from this checkout, whatever PYTHONPATH holds.
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(args, out_dir):
    return main([*args, "--out", str(out_dir)])


def subcommand_parsers() -> dict:
    action = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def readme_command_lines() -> list[list[str]]:
    """Argv of every ``spinbath ...`` line inside the README's fenced blocks."""
    lines, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("spinbath "):
            lines.append(shlex.split(line)[1:])
    return lines


def _fmt_reference(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv_reference(path, digest, columns, rows):
    """The per-value generator writer, kept as the byte-level reference."""
    lines = [f"# spinbath {__version__}", f"# config {digest}", ",".join(columns)]
    lines.extend(",".join(_fmt_reference(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="")


class TestCsvFormat:
    def test_simulate_r_layout(self, tmp_path):
        assert run_cli(["simulate-r", "--n", "5", "--points", "50"], tmp_path) == EXIT_OK
        text = (tmp_path / "simulate_r.csv").read_text(encoding="ascii")
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == f"# spinbath {__version__}"
        assert lines[1].startswith("# config ")
        assert lines[2] == "t,re_r,im_r,abs_r"
        assert len(lines) == 3 + 50
        first = lines[3].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[3]) == pytest.approx(1.0, abs=1e-9)

    def test_floats_use_full_precision(self, tmp_path):
        run_cli(["simulate-r", "--n", "8", "--points", "40"], tmp_path)
        lines = (tmp_path / "simulate_r.csv").read_text().splitlines()
        # Every cell is its own value printed with 17 significant digits.
        for line in lines[3:]:
            for cell in line.split(","):
                assert format(float(cell), ".17g") == cell

    def test_sigma_z_probe_column_is_constant(self, tmp_path):
        run_cli(
            [
                "simulate-obs",
                "--n",
                "6",
                "--points",
                "80",
                "--obs",
                "single-site:3:sz",
            ],
            tmp_path,
        )
        lines = (tmp_path / "simulate_obs.csv").read_text().splitlines()
        assert lines[2] == "t,value"
        values = {line.split(",")[1] for line in lines[3:]}
        assert len(values) == 1

    def test_random_spec_draws_the_observable_of_its_seed(self):
        parsed, drawn = parse_observable_spec("random:3", 5), sample_observable(5, 3)
        assert np.array_equal(parsed.system_part, drawn.system_part)
        assert np.array_equal(parsed.site_parts, drawn.site_parts)

    def test_simulate_obs_writes_the_random_observable_it_names(self, tmp_path):
        args = ["simulate-obs", "--n", "5", "--points", "20", "--obs", "random:3"]
        assert run_cli(args, tmp_path) == EXIT_OK
        lines = (tmp_path / "simulate_obs.csv").read_text().splitlines()
        t, value = np.array([line.split(",") for line in lines[3:]], dtype=float).T
        model = sample_model(5, 0)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, 20)
        # %.17g round-trips every double, so the file holds these very values.
        assert np.array_equal(t, times)
        assert np.array_equal(value, expectation(model, sample_observable(5, 3), times))

    def test_sweep_row_for_single_spin_prints_inf(self, tmp_path):
        run_cli(
            ["sweep-n", "--n-list", "1", "--seeds", "2", "--points", "400"],
            tmp_path,
        )
        lines = (tmp_path / "sweep_n.csv").read_text().splitlines()
        assert lines[2] == "n,t_d,sup_late,decohered"
        n, t_d, sup, flag = lines[3].split(",")
        assert n == "1"
        assert t_d == "inf"
        assert flag == "0"
        assert float(sup) > 0.9


    # The last count spans two full row blocks and a remainder.
    @pytest.mark.parametrize("rows", [0, 1, 7, 2 * _CSV_BLOCK_ROWS + 3])
    def test_writer_matches_per_value_reference(self, tmp_path, rows):
        special = [-0.0, 5e-324, 1e308, math.inf, -math.inf, 0.1, -2.5e-300]
        floats = np.array(special + [math.pi * k for k in range(rows)])[:rows]
        columns = (
            [10 ** (k % 17) for k in range(rows)],  # exact doubles below 10^17
            floats,
            floats[::-1] / 3.0,
            [bool(k % 2) for k in range(rows)],
            np.array([k % 3 == 0 for k in range(rows)], dtype=bool),
        )
        header = ("n", "t_d", "sup_late", "decohered", "flag")
        _write_csv(tmp_path / "new.csv", "abc", header, columns)
        _write_csv_reference(tmp_path / "old.csv", "abc", header, zip(*columns))
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\n") == 3 + rows

    def test_writer_renders_every_special_float(self, tmp_path):
        values = np.array([-0.0, 5e-324, 1e308, math.inf, 0.1])
        _write_csv(tmp_path / "f.csv", "abc", ("v",), (values,))
        cells = (tmp_path / "f.csv").read_text(encoding="ascii").splitlines()[3:]
        assert cells == ["-0", "4.9406564584124654e-324", "1e+308", "inf", "0.10000000000000001"]


def assert_writer_matches_reference(directory, *columns):
    header = tuple(f"c{j}" for j in range(len(columns)))
    _write_csv(directory / "new.csv", "abc", header, columns)
    _write_csv_reference(directory / "old.csv", "abc", header, zip(*columns))
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


def exact_ties(seed=0) -> np.ndarray:
    """Doubles whose exact decimal value has 18 significant digits, the last a 5."""
    rng = np.random.default_rng(seed)
    ties = []
    for e in range(64):
        for v in np.ldexp(rng.integers(2**52, 2**53, 200).astype(float), -e).tolist():
            digits = Decimal(v).normalize().as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(v)
    return np.array(ties)


def around(values, ulps=8) -> np.ndarray:
    """Each value and its neighbours up to ``ulps`` doubles away on either side."""
    out = [np.asarray(values, dtype=float)]
    for direction in (-np.inf, np.inf):
        step = out[0]
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


class TestFloatWriter:
    """The numpy float formatter against the per-value % reference, byte for byte."""

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_random_bit_patterns(self, bits):
        floats = np.array(bits, dtype=np.uint64).view(np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            assert_writer_matches_reference(Path(tmp), floats, -floats[::-1])

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        powers = np.array([10.0**k for k in range(-323, 309)])
        values = around(powers, ulps=1)
        assert_writer_matches_reference(tmp_path, values, -values)

    def test_fixed_to_exponent_switch_points(self, tmp_path):
        # %g goes to exponent form below 1e-4 and at 1e17; values a few ulp
        # below a power of ten round up across the switch.
        values = around([1e-5, 1e-4, 1e-3, 1e16, 1e17, 1e18], ulps=40)
        assert_writer_matches_reference(tmp_path, values, -values)

    def test_subnormals_zeros_and_non_finite(self, tmp_path):
        rng = np.random.default_rng(3)
        subnormal = rng.integers(1, 2**52, 5000, dtype=np.uint64).view(np.float64)
        special = np.array(
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308]
        )
        values = np.concatenate([special, subnormal, -subnormal])
        assert_writer_matches_reference(tmp_path, values, values[::-1])

    def test_exact_ties_take_the_percent_path(self, tmp_path):
        ties = exact_ties()
        assert ties.size >= 100
        slots = b"".join((b"%.17g" % v).ljust(32, b"\0") for v in ties.tolist())
        assert _format_floats(ties).tobytes() == slots
        # Rows with a tie format their integer and bool columns as every row does.
        ints = np.arange(ties.size) * 7919 - 10**6
        assert_writer_matches_reference(tmp_path, ties, ints, ints % 3 == 0, -ties)

    def test_integer_and_bool_dtypes(self, tmp_path):
        # Integers print as %.17g of their double, exact within +-2^53.
        rng = np.random.default_rng(5)
        columns = (
            rng.integers(-128, 128, 500).astype(np.int8),
            rng.integers(-(2**31), 2**31, 500).astype(np.int32),
            rng.integers(0, 2**53, 500, dtype=np.uint64, endpoint=True),
            np.r_[-(2**53), 2**53, rng.integers(-(2**53), 2**53, 498)],
            rng.random(500) < 0.5,
            [bool(k % 2) for k in range(500)],
            rng.standard_normal(500),
        )
        assert_writer_matches_reference(tmp_path, *columns)

    def test_percent_path_is_rare_on_a_trace_long_column(self, monkeypatch):
        # The trace-long workload: simulate-obs --n 48 --points 200000 with a random observable.
        model = sample_model(48, 5)
        times = np.linspace(0.0, 100.0 / model.mean_coupling, 200_000)
        values = expectation(model, sample_observable(48, 5 + 10**6), times)
        # _format_floats hands % the values np.flatnonzero picks from its undecided mask.
        undecided = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda mask: undecided.append(mask) or flatnonzero(mask))
        for column in (times, values):
            undecided.clear()
            for s in range(0, column.size, 2**13):
                _format_floats(column[s : s + 2**13])
            assert np.concatenate(undecided).size == column.size
            assert np.concatenate(undecided).mean() <= 0.01

    def test_peak_memory_of_a_long_write(self, tmp_path):
        times = np.linspace(0.0, 37.0, 200_000)
        values = np.random.default_rng(7).standard_normal(200_000)
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "long.csv", "abc", ("t", "value"), (times, values))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_power_tables_match_the_direct_construction(self):
        # The reference takes one big power, and for x > 16 one big division,
        # per decimal exponent x.
        pow10 = []
        for x in range(-324, 309):
            s = 116 - math.floor((16 - x) * math.log2(10))
            q = (10 ** max(16 - x, 0) << max(s, 0)) // (10 ** max(x - 16, 0) << max(-s, 0))
            pow10.append((float(q), float(q - int(float(q))), -s))
        hi, lo, scale = np.array(pow10).T
        hh = 134217729.0 * hi
        hh -= hh - hi
        reference = {"hh": hh, "hl": hi - hh, "lo": lo, "scale": scale.astype(np.int32)}
        tables = cli._csv_tables()
        for name, table in reference.items():
            assert tables[name].dtype == table.dtype
            assert np.array_equal(tables[name], table)

    def test_tables_are_built_on_first_write_not_at_import(self):
        code = "import spinbath.cli as c; assert c._csv_tables.cache_info().currsize == 0"
        subprocess.run([sys.executable, "-c", code], env=SRC_ENV, check=True)


class TestJsonOutputs:
    def test_recurrence_payload(self, tmp_path):
        code = run_cli(
            ["recurrence", "--n", "5", "--g-base", "1.0", "--seed", "42"], tmp_path
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "recurrence.json").read_text())
        assert payload["version"] == __version__
        assert payload["abs_r"] == pytest.approx(1.0, abs=1e-10)
        assert payload["deviation"] <= 1e-10
        assert payload["t_rec"] == pytest.approx(2.0 * math.pi)

    def test_timescale_payload(self, tmp_path):
        run_cli(["timescale", "--v1", "1e23", "--v2", "1"], tmp_path)
        payload = json.loads((tmp_path / "timescale.json").read_text())
        assert payload["hierarchy_ok"] is True
        assert 6.5e-39 <= payload["t_ds_s"] <= 6.7e-39
        assert 6.5e-16 <= payload["t_du_s"] <= 6.7e-16

    def test_fluctuation_payload(self, tmp_path):
        run_cli(["fluctuation", "--n", "20"], tmp_path)
        payload = json.loads((tmp_path / "fluctuation.json").read_text())
        assert payload["ratio"] == pytest.approx(1.2755, abs=1e-4)
        assert payload["nodes"] == 25472
        assert payload["predicted_rel_variance"] == pytest.approx(19.60, abs=0.01)

    def test_oracle_check_passes(self, tmp_path):
        code = run_cli(
            ["oracle-check", "--n", "4", "--trials", "3", "--tol", "1e-10"], tmp_path
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert payload["passed"] is True
        assert payload["max_diff_expectation"] <= 1e-10
        assert payload["max_diff_overlap"] <= 1e-10
        assert payload["max_diff_reduced_state"] <= 1e-10

    def test_oracle_check_referees_engine_on_whole_grid(self, tmp_path, monkeypatch):
        # The engine gets each trial's evenly spaced grid in one call, the way
        # real runs call it, so its angle-addition path is what gets checked.
        # The grid spans 50 / gbar of that trial's model.
        grids = []

        def recording(func):
            def wrapper(model, *args):
                grids.append((func.__name__, model, np.asarray(args[-1])))
                return func(model, *args)

            return wrapper

        monkeypatch.setattr(cli, "expectation", recording(cli.expectation))
        monkeypatch.setattr(cli, "overlap_r", recording(cli.overlap_r))
        assert run_cli(["oracle-check", "--n", "3", "--trials", "2"], tmp_path) == EXIT_OK
        assert [name for name, _, _ in grids] == ["expectation", "overlap_r"] * 2
        assert grids[0][1].mean_coupling != grids[2][1].mean_coupling
        for _, model, times in grids:
            assert np.array_equal(times, np.linspace(0.0, 50.0 / model.mean_coupling, 10))
            assert _even_step(times) is not None

    def test_oracle_check_builds_one_field_and_one_state_at_a_time(self, tmp_path, monkeypatch):
        # Each point evolves the trial's initial state under its model, and
        # the evolved state (with the field evolve built for it) is gone
        # before the next evolve allocates another.
        initial, evolved = [], []

        def evolving(state, model, t):
            assert isinstance(model, SpinBathModel)
            if not initial or state is not initial[-1]:
                initial.append(state)
            assert all(ref() is None for ref in evolved)
            state = cli_evolve(state, model, t)
            evolved.append(weakref.ref(state))
            return state

        cli_evolve = cli.evolve
        monkeypatch.setattr(cli, "evolve", evolving)
        assert run_cli(["oracle-check", "--n", "3", "--trials", "2"], tmp_path) == EXIT_OK
        assert len(initial) == 2 and len(evolved) == 20

    def test_oracle_check_builds_no_branch_chains_beside_an_evolved_state(self, tmp_path, monkeypatch):
        # oracle_overlap's two 2^N chains and an evolved 2^(N+1) state are
        # never alive at once: each point takes its overlap before evolving.
        evolved, overlaps = [], []

        def evolving(state, model, t):
            state = cli_evolve(state, model, t)
            evolved.append(weakref.ref(state))
            return state

        def overlapping(model, t, site_cap):
            assert all(ref() is None for ref in evolved)
            overlaps.append(t)
            return cli_overlap(model, t, site_cap=site_cap)

        cli_evolve, cli_overlap = cli.evolve, cli.oracle_overlap
        monkeypatch.setattr(cli, "evolve", evolving)
        monkeypatch.setattr(cli, "oracle_overlap", overlapping)
        assert run_cli(["oracle-check", "--n", "3", "--trials", "2"], tmp_path) == EXIT_OK
        assert len(overlaps) == len(evolved) == 20

    def test_keys_are_sorted(self, tmp_path):
        run_cli(["timescale", "--v1", "5", "--v2", "2"], tmp_path)
        text = (tmp_path / "timescale.json").read_text(encoding="ascii")
        keys = [line.split('"')[1] for line in text.splitlines() if '":' in line]
        assert keys == sorted(keys)


class TestConfigHandling:
    def test_config_file_drives_run(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(
            json.dumps({"command": "simulate-r", "n": 4, "points": 30, "seed": 9})
        )
        assert main(["simulate-r", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "simulate_r.csv").read_text().splitlines()
        assert len(lines) == 3 + 30

    def test_flags_override_file_values(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "simulate-r", "n": 4, "points": 30}))
        main(
            [
                "simulate-r",
                "--config",
                str(cfg_path),
                "--points",
                "12",
                "--out",
                str(tmp_path),
            ]
        )
        lines = (tmp_path / "simulate_r.csv").read_text().splitlines()
        assert len(lines) == 3 + 12

    def test_digest_excludes_output_location(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["simulate-r", "--n", "5", "--points", "20"], a)
        run_cli(["simulate-r", "--n", "5", "--points", "20"], b)
        assert (a / "simulate_r.csv").read_bytes() == (b / "simulate_r.csv").read_bytes()

    def test_digest_tracks_physics_fields(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["simulate-r", "--n", "5", "--points", "20"], a)
        run_cli(["simulate-r", "--n", "5", "--points", "20", "--seed", "1"], b)
        line = lambda p: (p / "simulate_r.csv").read_text().splitlines()[1]
        assert line(a) != line(b)

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINBATH_OUT_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert main(["timescale", "--v1", "3", "--v2", "1"]) == EXIT_OK
        assert (tmp_path / "timescale.json").exists()

    def test_replay_is_byte_identical(self, tmp_path):
        args = ["simulate-obs", "--n", "12", "--points", "64", "--obs", "eid:1,0.5,-0.25,-1"]
        first, second = tmp_path / "first", tmp_path / "second"
        run_cli(args, first)
        run_cli(args, second)
        assert (first / "simulate_obs.csv").read_bytes() == (
            second / "simulate_obs.csv"
        ).read_bytes()


class TestFlagTable:
    def test_every_command_has_a_parser(self):
        assert sorted(subcommand_parsers()) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flags_are_the_fields_read(self, command):
        sub = subcommand_parsers()[command]
        dests = {action.dest for action in sub._actions if action.dest != "help"}
        assert dests == {*COMMANDS[command], "config", "out"}

    def test_readme_command_lines_parse(self):
        lines = readme_command_lines()
        assert sorted(argv[0] for argv in lines) == sorted(COMMANDS)
        for argv in lines:
            build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-n", "--a-re", "0.6"],
            ["simulate-r", "--coeff-dist", "uniform"],
            ["recurrence", "--g-dist", "uniform"],
            ["timescale", "--seed", "3"],
            ["simulate-r", "--a-re", "0.6"],
            ["recurrence", "--b-re", "0.8"],
            ["fluctuation", "--a-im", "0.1"],
            ["simulate-obs", "--eps", "sx"],
            ["sweep-n", "--n", "7"],
        ],
    )
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run_cli(args, out) == EXIT_INVALID
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_the_command_does_not_read(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"command": "sweep-n", "n_list": [5], "a_re": 0.6}))
        out = tmp_path / "out"
        assert main(["sweep-n", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INVALID
        assert "sweep-n does not read a_re" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"command": "simulate-r", "n": "5"}, "n"),
            ({"command": "simulate-r", "n": 2.5}, "n"),
            ({"command": "simulate-r", "seed": True}, "seed"),
            ({"command": "sweep-n", "n_list": [2.7, 3]}, "n_list"),
            ({"command": "sweep-n", "n_list": 3}, "n_list"),
            ({"command": "recurrence", "g_base": "1.0"}, "g_base"),
            ({"command": "simulate-obs", "obs": 3}, "obs"),
        ],
    )
    def test_config_value_of_the_wrong_type(self, tmp_path, capsys, doc, key):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([doc["command"], "--config", str(cfg_path), "--out", str(out)]) == EXIT_INVALID
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_float_field_takes_an_integer(self):
        as_int = ExperimentConfig(command="recurrence", g_base=2)
        assert as_int.g_base == 2.0 and isinstance(as_int.g_base, float)
        assert as_int.digest == ExperimentConfig(command="recurrence", g_base=2.0).digest


# A small run of each subcommand, and for each field it reads a move off that
# run.  Amplitudes move in pairs, so the probe stays normalized.
BASE_RUNS = {
    "simulate-r": {"n": 4, "points": 20},
    "simulate-obs": {"n": 4, "points": 20, "obs": "eid:1,0.5,-0.25,-1"},
    "sweep-n": {"n_list": (20,), "n_seeds": 1, "points": 200},
    "oracle-check": {"n": 3, "trials": 2},
    "recurrence": {"n": 5},
    "timescale": {},
    "fluctuation": {"n": 5},
}
INV_SQRT2 = 1.0 / math.sqrt(2.0)
MOVES = {
    "n": {"n": 6},
    "n_list": {"n_list": (20, 21)},
    "seed": {"seed": 1},
    "a_re": {"a_re": 0.6, "b_re": 0.8},
    "a_im": {"a_re": 0.0, "a_im": INV_SQRT2},
    "b_re": {"a_re": 0.8, "b_re": 0.6},
    "b_im": {"b_re": 0.0, "b_im": INV_SQRT2},
    "t_max": {"t_max": 120.0},
    "points": {"points": 21},
    "theta": {"theta": 0.3},
    "window": {"window": 5.0},
    "obs": {"obs": "single-site:2:sx"},
    "trials": {"trials": 3},
    "tol": {"tol": 1e-9},
    "g_base": {"g_base": 2.0},
    "v1_ev": {"v1_ev": 1e20},
    "v2_ev": {"v2_ev": 2.0},
    "n_seeds": {"n_seeds": 2},
    "t0": {"t0": 10.0},
    "t1": {"t1": 700.0},
}


def run_config(out: Path, command: str, **fields) -> dict:
    """Run one config into ``out``; return each written file's bytes."""
    assert cli.run(ExperimentConfig(command=command, out=str(out), **fields)) == EXIT_OK
    return {path.name: path.read_bytes() for path in out.iterdir()}


def without_digest(files: dict) -> dict:
    """CSV bodies below the two comment lines; JSON documents less their digest."""
    data = {}
    for name, raw in files.items():
        if name.endswith(".json"):
            data[name] = {k: v for k, v in json.loads(raw).items() if k != "config_digest"}
        else:
            data[name] = raw.split(b"\n", 2)[2]
    return data


class TestReadTable:
    """Every field a subcommand reads can move its output; nothing else enters the digest."""

    @pytest.mark.parametrize(
        "command, field",
        [(c, f) for c, reads in COMMANDS.items() for f in reads if f != "site_cap"],
    )
    def test_each_field_read_moves_the_data(self, tmp_path, command, field):
        base = run_config(tmp_path / "base", command, **BASE_RUNS[command])
        moved = run_config(tmp_path / "moved", command, **{**BASE_RUNS[command], **MOVES[field]})
        assert without_digest(moved) != without_digest(base)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_moves_neither_data_nor_digest(self, tmp_path, command):
        first = run_config(tmp_path / "a", command, **BASE_RUNS[command])
        assert run_config(tmp_path / "b", command, **BASE_RUNS[command]) == first
        # One file, named after the command with _ for -.
        [name] = first
        stem, suffix = name.rsplit(".", 1)
        assert stem == command.replace("-", "_") and suffix in ("csv", "json")

    def test_site_cap_moves_neither_data_nor_digest(self, tmp_path):
        base = BASE_RUNS["oracle-check"]
        first = run_config(tmp_path / "a", "oracle-check", **base)
        assert run_config(tmp_path / "b", "oracle-check", **base, site_cap=30) == first
        args = ["oracle-check", "--site-cap", "30", "--trials", "1"]
        assert run_cli(args, tmp_path / "c") == EXIT_OK
        written = json.loads((tmp_path / "c" / "oracle_check.json").read_text())
        assert written["config_digest"] == ExperimentConfig(command="oracle-check", trials=1).digest


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["does-not-exist"]) == EXIT_INVALID

    def test_invalid_model_size(self, tmp_path, capsys):
        assert run_cli(["simulate-r", "--n", "0"], tmp_path) == EXIT_INVALID

    def test_negative_seed(self, tmp_path, capsys):
        assert run_cli(["simulate-r", "--n", "3", "--seed", "-1"], tmp_path) == EXIT_INVALID
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "simulate_r.csv").exists()

    def test_bad_observable_spec(self, tmp_path, capsys):
        code = run_cli(["simulate-obs", "--n", "4", "--obs", "mystery:1"], tmp_path)
        assert code == EXIT_INVALID

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"command": "simulate-r", "bogus": 1}))
        assert main(["simulate-r", "--config", str(cfg_path)]) == EXIT_INVALID

    def test_site_cap_maps_to_resource_code(self, tmp_path, capsys):
        code = run_cli(["oracle-check", "--n", "30", "--trials", "1"], tmp_path)
        assert code == EXIT_RESOURCE_CAP

    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
    def test_refused_allocation_maps_to_resource_code(self, tmp_path, capsys, monkeypatch, message):
        # A handler that raises MemoryError stands in for numpy refusing an
        # array too large for the address space; nothing is allocated.
        def refuse(cfg):
            raise MemoryError(message)

        monkeypatch.setitem(cli._HANDLERS, "simulate-r", refuse)
        assert run_cli(["simulate-r", "--n", "5"], tmp_path / "out") == EXIT_RESOURCE_CAP
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
        assert not (tmp_path / "out").exists()

    def test_amplitudes_off_unit_norm_are_rejected(self, tmp_path, capsys):
        # |a|^2 + |b|^2 is 1 - 5.3e-10 here: too far off for the dense state's
        # norm check, so the model must not be accepted in the first place.
        args = ["oracle-check", "--n", "6", "--a-re", "0.707106781", "--b-re", "0.707106781"]
        assert run_cli(args, tmp_path / "out") == EXIT_INVALID
        assert "not normalized" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate-r", "--n", "5", "--points", "4", "--t-max", "inf"],
            ["simulate-obs", "--n", "5", "--points", "4", "--t-max", "inf"],
            ["fluctuation", "--n", "5", "--t1", "inf"],
        ],
    )
    def test_infinite_time_is_rejected(self, tmp_path, capsys, args):
        assert run_cli(args, tmp_path / "out") == EXIT_INVALID
        field = args[-2].lstrip("-").replace("-", "_")
        assert f"{field} must be positive and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate-r", "--n", "5", "--points", "4", "--t-max", "1e300"],
            ["fluctuation", "--n", "5", "--t0", "1e16", "--t1", "1.0000000000000004e16"],
        ],
    )
    def test_time_beyond_phase_resolution_is_rejected(self, tmp_path, capsys, args):
        # At |t| = 1e300 one ulp of t is about 1e284, so no phase g t is known.
        assert run_cli(args, tmp_path / "out") == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: times up to")
        assert not (tmp_path / "out").exists()

    def test_timescale_below_the_smallest_normal_double_is_rejected(self, tmp_path, capsys):
        assert run_cli(["timescale", "--v1", "1e308", "--v2", "1"], tmp_path / "out") == EXIT_INVALID
        assert "below the smallest normal double" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_expectation_beyond_the_double_range_is_rejected(self, tmp_path, capsys):
        # Every site part is finite, but gamma0(+t) alone leaves the double
        # range from t = 71.5 on, so the combined value is inf or nan there.
        obs = "single-site:1:1.7e308,1.7e308,0,1.7e308"
        args = ["simulate-obs", "--n", "3", "--points", "5", "--obs", obs]
        assert run_cli(args, tmp_path / "out") == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: the expectation value at t = 71.54588462648158 is not finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("points", ["2", "5"])
    def test_hold_window_shorter_than_the_grid_step_is_rejected(self, tmp_path, capsys, points):
        # 5 points over 100 / gbar are 25 / gbar apart, more than the 20 / gbar
        # window, which would then certify a single sample below the threshold.
        args = ["sweep-n", "--n-list", "20,100", "--seeds", "3", "--points", points]
        assert run_cli(args, tmp_path / "out") == EXIT_INVALID
        assert "shorter than the grid step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        args[-1] = "6"  # a step of 20 / gbar: the window reaches the next sample
        assert run_cli(args, tmp_path / "out") == EXIT_OK

    @pytest.mark.parametrize("args", [["simulate-r", "--n", "4", "--points", "20"], ["timescale"]])
    def test_out_naming_a_regular_file_is_io_error(self, tmp_path, capsys, args):
        taken = tmp_path / "taken"
        taken.write_bytes(b"x")
        assert run_cli(args, taken) == EXIT_IO
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == [taken] and taken.read_bytes() == b"x"

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["simulate-r", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_IO

    def test_unreadable_config_is_io_error(self, tmp_path, capsys):
        assert main(["simulate-r", "--config", str(tmp_path)]) == EXIT_IO
        assert "error: cannot read config:" in capsys.readouterr().err

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"command": "simulate-r",')
        assert main(["simulate-r", "--config", str(cfg_path)]) == EXIT_INVALID
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("eid:1,0,0", "eid spec needs 4 comma-separated numbers, got '1,0,0'"),
            ("eid:1,0,0,x", "eid spec has a non-numeric entry in '1,0,0,x'"),
            ("single-site:x", "single-site index must be an integer, got 'x'"),
            ("random:x", "random observable needs an integer seed, got 'x'"),
        ],
    )
    def test_malformed_observable_spec(self, tmp_path, capsys, spec, message):
        assert run_cli(["simulate-obs", "--n", "4", "--obs", spec], tmp_path / "out") == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "n_list, message",
        [
            ("1,x", "argument --n-list: not a comma-separated integer list: '1,x'"),
            ("20,0", "error: n_list must be a non-empty list of positive counts"),
            # Refused by the sampler before any file is written, so the n
            # column the writer formats as doubles never reaches 2^32.
            ("20,4294967296", "error: 4294967296 streams need a two-word spawn key"),
        ],
    )
    def test_refused_site_count_list(self, tmp_path, capsys, n_list, message):
        assert run_cli(["sweep-n", "--n-list", n_list, "--seeds", "1"], tmp_path / "out") == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1]")
        assert main(["simulate-r", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: config document must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_config_file_is_validated_before_flags_merge(self, tmp_path, capsys):
        # --points 5 would make the merged config valid, but the file alone is not.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"command": "simulate-r", "points": 1}))
        args = ["simulate-r", "--config", str(cfg_path), "--points", "5"]
        assert run_cli(args, tmp_path / "out") == EXIT_INVALID
        assert "need at least two grid points" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unattainable_tolerance(self, tmp_path, capsys):
        code = run_cli(
            ["oracle-check", "--n", "4", "--trials", "2", "--tol", "1e-20"], tmp_path
        )
        assert code == EXIT_CHECK_FAILED
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert payload["passed"] is False

    @pytest.mark.parametrize("name, key", [
        ("expectation", "max_diff_expectation"),
        ("overlap_r", "max_diff_overlap"),
        ("reduced_system_state", "max_diff_reduced_state"),
    ])
    def test_oracle_check_fails_on_a_nan_difference(self, tmp_path, monkeypatch, name, key):
        # A NaN at one point of one quantity fails the check, and JSON, which
        # has no NaN, gets null for that quantity's maximum.
        func, calls = getattr(cli, name), []

        def poisoned(model, *args):
            out = func(model, *args)
            calls.append(args)
            if name != "reduced_system_state":
                out[3] = np.nan if len(calls) == 1 else out[3]
            elif len(calls) == 4:
                out = SimpleNamespace(matrix=np.full((2, 2), np.nan))
            return out

        monkeypatch.setattr(cli, name, poisoned)
        code = run_cli(["oracle-check", "--n", "6", "--trials", "2", "--seed", "0"], tmp_path)
        assert code == EXIT_CHECK_FAILED
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert payload["passed"] is False
        assert payload[key] is None
        others = {"max_diff_expectation", "max_diff_overlap", "max_diff_reduced_state"} - {key}
        assert all(payload[other] <= 1e-10 for other in others)

    def test_fluctuation_without_meaningful_ratio_fails(self, tmp_path, capsys):
        # At 2000 sites the predicted late-time |r|^2 is below 2^-1022.
        assert run_cli(["fluctuation", "--n", "2000"], tmp_path) == EXIT_INVALID
        assert "smallest normal" in capsys.readouterr().err
        assert not (tmp_path / "fluctuation.json").exists()

    def test_fluctuation_beyond_the_node_budget_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "overlap_r", None)  # any call raises TypeError
        assert run_cli(["fluctuation", "--n", "1000"], tmp_path) == EXIT_INVALID
        assert "1.27e+09 site-nodes; the budget is" in capsys.readouterr().err
        assert not (tmp_path / "fluctuation.json").exists()

    def test_fluctuation_at_fifty_sites(self, tmp_path):
        # The window mean is ten times the long-time mean, which rare
        # near-alignments of the phases carry, and the run still exits 0.
        assert run_cli(["fluctuation", "--n", "50"], tmp_path) == EXIT_OK
        payload = json.loads((tmp_path / "fluctuation.json").read_text())
        assert payload["ratio"] == pytest.approx(10.04, abs=0.01)

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert __version__ in capsys.readouterr().out


# One small run of every subcommand, fluctuation last.
SMALL_RUNS = [
    ["simulate-r", "--n", "5", "--points", "20"],
    ["simulate-obs", "--n", "5", "--points", "20", "--obs", "random:3"],
    ["sweep-n", "--n-list", "3,30", "--seeds", "2", "--points", "50"],
    ["oracle-check", "--n", "4", "--trials", "2"],
    ["recurrence", "--n", "5"],
    ["timescale"],
    ["fluctuation", "--n", "5"],
]


def test_no_subcommand_imports_what_it_does_not_need(tmp_path):
    # Each module below costs every run that loads it:
    # - numpy loads numpy.random on first use, and the import alone adds about
    #   6 MiB to a run's peak RSS;
    # - np.median imports numpy.ma on first use (about 0.9 MiB of peak RSS and
    #   16 ms); sweep-n takes its medians without it;
    # - hashlib maps OpenSSL's libcrypto (3.3 MiB resident, about 4.5 ms);
    #   the config digest comes from CPython's built-in SHA-256.
    # numpy.polynomial (about 2.5 ms) is left to fluctuation, which imports it
    # for its quadrature nodes.
    assert {argv[0] for argv in SMALL_RUNS} == set(COMMANDS)
    code = (
        "import sys\n"
        "from spinbath.cli import main\n"
        f"for argv in {SMALL_RUNS!r}:\n"
        "    assert 'numpy.polynomial' not in sys.modules, argv\n"
        f"    assert main([*argv, '--out', {str(tmp_path)!r}]) == 0, argv\n"
        "    for name in ('numpy.random', 'numpy.ma', 'hashlib', '_hashlib'):\n"
        "        assert name not in sys.modules, (name, argv)\n"
        "assert 'numpy.polynomial' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=SRC_ENV, check=True)


def test_only_run_writes_outputs():
    # Handlers return their results; cli.run alone names and writes the file
    # and picks the exit code.
    writers = {"_write_csv", "_write_json"}
    callers = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for func in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                if name in writers:
                    callers.append((path.name, getattr(func, "name", None), name))
    assert sorted(callers) == [("cli.py", "run", "_write_csv"), ("cli.py", "run", "_write_json")]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(handlers) == len(COMMANDS)
    for func in handlers:
        assert [arg.arg for arg in func.args.args] == ["cfg"], func.name
        names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        assert not any(name.startswith("EXIT_") for name in names), func.name


class TestConfigObject:
    def test_digest_is_stable_hex(self):
        cfg = ExperimentConfig(command="simulate-r", n=5)
        assert cfg.digest == ExperimentConfig(command="simulate-r", n=5, out="/x").digest
        int(cfg.digest, 16)
        assert len(cfg.digest) == 64

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="sweep-n", theta=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(command="nope")

    @pytest.mark.parametrize("name", ["t_max", "window", "t0", "t1", "g_base", "v1_ev", "v2_ev", "tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_times_and_scales_that_are_not_positive_and_finite(self, name, value):
        command = next(c for c, read in COMMANDS.items() if name in read)
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            ExperimentConfig(command=command, **{name: value})

    @pytest.mark.parametrize("data", [["command", "simulate-r"], "simulate-r", None])
    def test_document_must_be_an_object(self, data):
        with pytest.raises(ValueError, match="^config document must be a JSON object$"):
            config_from_dict(data)

    def test_document_must_name_a_command(self):
        with pytest.raises(ValueError, match="^config needs a command$"):
            config_from_dict({"n": 5})

    @pytest.mark.parametrize("n_list", [[], [0], [5, 0]])
    def test_site_count_list_must_hold_positive_counts(self, n_list):
        with pytest.raises(ValueError, match="^n_list must be a non-empty list of positive counts$"):
            ExperimentConfig(command="sweep-n", n_list=n_list)

    @pytest.mark.parametrize(
        "command, name", [("oracle-check", "trials"), ("sweep-n", "n_seeds"), ("oracle-check", "site_cap")]
    )
    def test_counts_must_be_positive(self, command, name):
        with pytest.raises(ValueError, match="^trials, n_seeds and site_cap must be positive$"):
            ExperimentConfig(command=command, **{name: 0})

    def test_unread_field_must_keep_its_default(self):
        with pytest.raises(ValueError, match="timescale does not read seed, points"):
            ExperimentConfig(command="timescale", seed=3, points=10)
        default = ExperimentConfig(command="timescale")
        assert ExperimentConfig(command="timescale", seed=0).digest == default.digest
