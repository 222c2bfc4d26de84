"""Command-line harness: config resolution, modes, outputs, exit codes."""
import csv
import dataclasses
import json

import pytest

from drdp import cli
from drdp.cli import ConfigError, MODES, RunConfig, _write_json, main, parse_config


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def write_input_csv(path, rows):
    lines = ["meter_id,slot,wh"] + [f"{m},{s},{w}" for m, s, w in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseConfig:
    def test_defaults(self):
        config = parse_config([])
        assert config == RunConfig()
        assert config.peak_factor == 12000.0
        assert config.unit_price == 10.0
        assert config.peak_price == 25.0
        assert config.n_meters == 10
        assert config.n_days == 3
        assert config.delta_f1 == 1.0
        assert config.mu == 0.0
        assert config.mode == "run"

    def test_flags_override_defaults(self):
        config = parse_config(
            ["--epsilon1", "0.9", "--meters", "4", "--mode", "coop-table", "--out", "x"]
        )
        assert config.epsilon1 == 0.9
        assert config.n_meters == 4
        assert config.mode == "coop-table"
        assert config.output_dir == "x"

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "\n"
            "epsilon1 = 0.25\n"
            "peak-factor = 9000\n"
            "seed=7\n",
            encoding="utf-8",
        )
        config = parse_config(["--config", str(cfg)])
        assert config.epsilon1 == 0.25
        assert config.peak_factor == 9000.0
        assert config.seed == 7

    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nepsilon1=0.25\n", encoding="utf-8")
        config = parse_config(["--config", str(cfg), "--seed", "99"])
        assert config.seed == 99
        assert config.epsilon1 == 0.25

    @pytest.mark.parametrize(
        "line", ["mystery=3", "epsilon1 0.5", "epsilon1=not-a-number"]
    )
    def test_config_file_errors(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(["--config", str(cfg)])

    def test_missing_config_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_config(["--config", str(tmp_path / "nope.cfg")])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--epsilon1", "0"],
            ["--epsilon2", "-3"],
            ["--delta-f1", "0"],
            ["--peak-factor", "-1"],
            ["--unit-price", "0"],
            ["--meters", "0"],
            ["--synth-days", "0"],
            ["--seed", "-1"],
            ["--mode", "unknown"],
            ["--epsilon1", "abc"],
            ["--no-such-flag"],
            ["--input", "a.csv", "--synth-days", "2"],
            ["--input", "a.csv", "--meters", "5"],
            ["--input", "a.csv", "--mode", "coop-table"],
            ["--mode", "convergence", "--epsilon2", "0.01"],
            ["--mode", "convergence", "--epsilon1", "0.2", "--epsilon2", "0.5"],
        ],
    )
    def test_invalid_settings_raise_config_error(self, argv):
        with pytest.raises(ConfigError):
            parse_config(argv)

    # one value per RunConfig field, none of them the default
    NON_DEFAULT = {
        "input": "a.csv",
        "n_days": 2,
        "n_meters": 4,
        "epsilon1": 0.25,
        "epsilon2": 0.75,
        "delta_f1": 2.0,
        "delta_f2": 3.0,
        "mu": -0.5,
        "peak_factor": 9000.0,
        "unit_price": 12.0,
        "peak_price": 30.0,
        "seed": 7,
        "output_dir": "elsewhere",
        "mode": "mae-sweep",
    }

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
    def test_every_field_round_trips_through_config_file(self, tmp_path, field):
        value = self.NON_DEFAULT[field]
        assert value != getattr(RunConfig(), field)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{field}={value}\n", encoding="utf-8")
        config = parse_config(["--config", str(cfg)])
        assert config == dataclasses.replace(RunConfig(), **{field: value})
        assert type(getattr(config, field)) is type(value)

    def test_input_alone_is_fine(self):
        config = parse_config(["--input", "a.csv"])
        assert config.input == "a.csv"

    def test_mode_list_is_stable(self):
        assert MODES == (
            "run",
            "mae-sweep",
            "bill-error",
            "convergence",
            "coop-table",
            "baseline-compare",
        )


class TestRunMode:
    def test_writes_report_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--mode", "run", "--meters", "3", "--synth-days", "1",
             "--peak-factor", "3500", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert "run:" in capsys.readouterr().out
        rows = read_csv(out / "report.csv")
        assert rows[0] == [
            "slot", "meter_id", "b_r_wh", "peak_in_place",
            "charged_peak", "bill_cents", "deviation_wh",
        ]
        assert len(rows) == 1 + 3 * 144
        for row in rows[1:]:
            assert row[3] in {"0", "1"}
            assert row[4] in {"0", "1"}
            if row[3] == "0":
                assert row[4] == "0" and row[6] == ""
            else:
                assert row[6] != ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_meters"] == 3
        assert summary["n_slots"] == 144
        assert len(summary["meters"]) == 3
        assert summary["peak_slot_count"] >= 1
        totals = [m["total_cents"] for m in summary["meters"]]
        assert summary["total_bill_cents"] == pytest.approx(sum(totals), abs=0.05)
        assert summary["config"]["seed"] == 5

    def test_reads_meter_ids_from_input_file(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_input_csv(data, [(7, 0, 50.0), (7, 1, 60.0), (9, 0, 70.0), (9, 1, 10.0)])
        out = tmp_path / "out"
        code = main(
            ["--mode", "run", "--input", str(data),
             "--peak-factor", "100", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "report.csv")
        assert {row[1] for row in rows[1:]} == {"7", "9"}
        assert len(rows) == 1 + 2 * 2

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["--input", str(tmp_path / "none.csv"), "--out", out]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input_file_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("meter_id,slot,wh\n1,0,bad\n", encoding="utf-8")
        assert main(["--input", str(data), "--out", str(tmp_path / "out")]) == 2

    def test_invalid_budget_exits_1(self, capsys):
        assert main(["--epsilon1", "-2"]) == 1
        assert "epsilon1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--epsilon1", "nan"],
            ["--epsilon1", "inf"],
            ["--epsilon2", "inf"],
            ["--delta-f1", "inf"],
            ["--delta-f2", "nan"],
            ["--mu", "nan"],
            ["--mu=-inf"],
            ["--peak-factor", "inf"],
            ["--unit-price", "nan"],
            ["--peak-price", "inf"],
        ],
    )
    def test_non_finite_setting_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--meters", "2", "--synth-days", "1", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_config_file_value_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon1=nan\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "epsilon1" in capsys.readouterr().err

    def test_json_output_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"total": float("nan")})

    @pytest.mark.parametrize(
        "mode,stage",
        [
            ("run", "spawn_streams"),
            ("run", "run_scenario"),
            ("mae-sweep", "mae_sweep"),
            ("coop-table", "coop_probability"),
        ],
    )
    def test_out_of_memory_exits_2_without_traceback(self, tmp_path, capsys, monkeypatch, mode, stage):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, stage, exhausted)
        argv = ["--mode", mode, "--meters", "3", "--synth-days", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "drdp: error: not enough memory for 3 meters x 288 slots\n"

    def test_out_of_memory_on_input_names_the_file(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.csv"
        write_input_csv(data, [(1, 0, 50.0), (2, 0, 60.0)])

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.44 GiB")

        monkeypatch.setattr(cli, "load_csv", exhausted)
        assert main(["--input", str(data), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"drdp: error: not enough memory for the readings in {data}\n"

    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code = main(
            ["--mode", "coop-table", "--out", str(blocker / "sub")]
        )
        assert code == 2


class TestSweepModes:
    def test_mae_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--mode", "mae-sweep", "--meters", "2", "--synth-days", "1",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "mae_sweep.csv")
        assert rows[0] == ["epsilon", "mae_wh"]
        assert [r[0] for r in rows[1:]] == ["0.01", "0.1", "0.5", "1", "2"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["label"] == "mae_vs_epsilon"
        assert len(metrics["points"]) == 5

    def test_bill_error_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--mode", "bill-error", "--meters", "2", "--synth-days", "1",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "bill_error.csv")
        assert rows[0] == ["epsilon", "relative_error"]
        assert len(rows) == 6

    def test_convergence_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--mode", "convergence", "--meters", "2", "--synth-days", "1",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "convergence.csv")
        assert rows[0] == ["slots", "relative_error"]
        assert len(rows) == 1 + 144

    def test_convergence_accepts_epsilon2_equal_to_epsilon1(self, tmp_path, capsys):
        argv = ["--mode", "convergence", "--meters", "2", "--synth-days", "1",
                "--epsilon1", "0.2", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert main(argv + ["--epsilon2", "0.2", "--out", str(tmp_path / "equal")]) == 0
        for name in ("convergence.csv", "metrics.json"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "equal" / name).read_bytes()

    def test_convergence_rejects_other_epsilon2_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=convergence\nepsilon2=0.01\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--meters", "2", "--out", str(out)]) == 1
        assert "--epsilon2" in capsys.readouterr().err
        assert not out.exists()


class TestCoopTableMode:
    def test_table_rows(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--mode", "coop-table", "--meters", "12", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "coop_table.csv")
        assert rows[0] == ["p_lu", "coop_probability", "expected_cooperators"]
        assert [r[0] for r in rows[1:]] == [f"0.{d}" for d in range(1, 10)]
        probabilities = [float(r[1]) for r in rows[1:]]
        assert probabilities == sorted(probabilities)


class TestBaselineCompareMode:
    def test_dynamic_cheaper_with_peaks(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["--mode", "baseline-compare", "--meters", "5", "--synth-days", "1",
             "--peak-factor", "5000", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out / "baseline_compare.csv")
        assert rows[0] == ["meter_id", "dynamic_cents", "flat_peak_cents"]
        dynamic = sum(float(r[1]) for r in rows[1:])
        flat = sum(float(r[2]) for r in rows[1:])
        assert dynamic < flat
        assert "lower" in capsys.readouterr().out


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        argv = ["--mode", "run", "--meters", "3", "--synth-days", "1",
                "--peak-factor", "3500", "--seed", "8"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        for name in ("report.csv", "summary.json"):
            left = (out_a / name).read_bytes()
            right = (out_b / name).read_bytes()
            # output_dir is part of the echoed config, so normalise it
            if name == "summary.json":
                left = left.replace(str(out_a).encode(), b"OUT")
                right = right.replace(str(out_b).encode(), b"OUT")
            assert left == right

    def test_seed_changes_report(self, tmp_path, capsys):
        base = ["--mode", "run", "--meters", "3", "--synth-days", "1"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
        assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()
