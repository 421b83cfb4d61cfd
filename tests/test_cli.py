"""End-to-end command-line behaviour: files, formats, exit codes, replay."""

import json
import math

import pytest

from spinbath import __version__
from spinbath.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE_CAP,
    main,
)
from spinbath.config import ExperimentConfig


def run_cli(args, out_dir):
    return main([*args, "--out", str(out_dir)])


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
        # Round-tripping every cell reproduces the shortest-repr value.
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
                "single-site:3",
                "--eps",
                "sz",
            ],
            tmp_path,
        )
        lines = (tmp_path / "simulate_obs.csv").read_text().splitlines()
        assert lines[2] == "t,value"
        values = {line.split(",")[1] for line in lines[3:]}
        assert len(values) == 1

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
        run_cli(["fluctuation", "--n", "20", "--samples", "400"], tmp_path)
        payload = json.loads((tmp_path / "fluctuation.json").read_text())
        assert 0.5 <= payload["ratio"] <= 2.0

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


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["does-not-exist"]) == EXIT_INVALID

    def test_invalid_model_size(self, tmp_path, capsys):
        assert run_cli(["simulate-r", "--n", "0"], tmp_path) == EXIT_INVALID

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

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        code = main(["simulate-r", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_IO

    def test_unattainable_tolerance(self, tmp_path, capsys):
        code = run_cli(
            ["oracle-check", "--n", "4", "--trials", "2", "--tol", "1e-20"], tmp_path
        )
        assert code == EXIT_CHECK_FAILED
        payload = json.loads((tmp_path / "oracle_check.json").read_text())
        assert payload["passed"] is False

    def test_fluctuation_without_meaningful_ratio_fails(self, tmp_path, capsys):
        # At 2000 sites the predicted late-time |r|^2 is below 2^-1022.
        assert run_cli(["fluctuation", "--n", "2000"], tmp_path) == EXIT_INVALID
        assert "smallest normal" in capsys.readouterr().err
        assert not (tmp_path / "fluctuation.json").exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK
        assert __version__ in capsys.readouterr().out


class TestConfigObject:
    def test_digest_is_stable_hex(self):
        cfg = ExperimentConfig(command="simulate-r", n=5)
        assert cfg.digest == ExperimentConfig(command="simulate-r", n=5, out="/x").digest
        int(cfg.digest, 16)
        assert len(cfg.digest) == 64

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="simulate-r", theta=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(command="nope")
