import csv
import errno
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from windcurve import TurbineSpec, __version__, synthesize
from windcurve.cli import SWEEP_INTERVALS, main
from windcurve.curve_engine import read_curve_csv


@pytest.fixture
def runner():
    return CliRunner()


def generate(runner, tmp_path, *extra, stem="curve"):
    out = tmp_path / f"{stem}.csv"
    result = runner.invoke(
        main, ["generate", "--diameter", "80", "--rated-power", "2000",
               "--out", str(out), *extra])
    return result, out


class TestGenerate:
    def test_defaults_only(self, runner, tmp_path):
        result, out = generate(runner, tmp_path)
        assert result.exit_code == 0, result.output
        ws, power = read_curve_csv(out)
        assert len(ws) == 801
        assert power.max() == 2000.0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["config"]["cp_max"] == 0.44
        assert sidecar["config"]["cut_in"] == 3.0
        assert {d["field"] for d in sidecar["defaults_report"]} == {
            "cut_in", "cut_out", "cp_max", "omega_min", "omega_max"}
        assert sidecar["model_version"]

    def test_deterministic_output(self, runner, tmp_path):
        _, first = generate(runner, tmp_path, "--ti", "0", stem="a")
        _, second = generate(runner, tmp_path, "--ti", "0", stem="b")
        assert first.read_bytes() == second.read_bytes()

    def test_sidecar_reproduces_curve(self, runner, tmp_path):
        result, out = generate(runner, tmp_path, "--ti", "0.07", stem="orig")
        assert result.exit_code == 0
        rerun = tmp_path / "rerun.csv"
        result = runner.invoke(main, ["generate",
                                      "--config", str(out.with_suffix(".json")),
                                      "--out", str(rerun)])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert rerun.read_bytes() == out.read_bytes()

    def test_sidecar_of_another_version_warns_once(self, runner, tmp_path):
        # its bytes may be another model's, but the file stays usable
        result, out = generate(runner, tmp_path, "--ti", "0.07", stem="orig")
        assert result.exit_code == 0, result.output
        record = json.loads(out.with_suffix(".json").read_text())
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**record, "model_version": "0.0.1-other"}))
        rerun = tmp_path / "rerun.csv"
        result = runner.invoke(main, ["generate", "--config", str(other), "--out", str(rerun)])
        assert result.exit_code == 0, result.output
        assert result.stderr == (f"warning: UserWarning: {other}: written by windcurve "
                                 f"0.0.1-other, this is {__version__}; its CSV may not "
                                 "replay byte for byte\n")
        assert rerun.read_bytes() == out.read_bytes()

    def test_missing_diameter_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["generate", "--rated-power", "2000",
                                      "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert "error:" in err
        assert len([l for l in err.splitlines() if l.startswith("error:")]) == 1

    def test_sidecar_holds_the_library_defaults_report(self, runner, tmp_path):
        result, out = generate(runner, tmp_path)
        assert result.exit_code == 0, result.output
        _, report = synthesize(TurbineSpec(rotor_diameter=80.0, rated_power=2000.0))
        assert json.loads(json.dumps(report)) == report
        assert json.loads(out.with_suffix(".json").read_text())["defaults_report"] == report

    def test_density_scaling_below_cap(self, runner, tmp_path):
        _, low = generate(runner, tmp_path, "--rho", "1.1", "--ti", "0.05", stem="lo")
        _, high = generate(runner, tmp_path, "--rho", "1.3", "--ti", "0.05", stem="hi")
        _, p_lo = read_curve_csv(low)
        ws, p_hi = read_curve_csv(high)
        zone = (ws >= 5.0) & (ws <= 8.0)   # region II, far below the cap
        np.testing.assert_allclose(p_hi[zone] / p_lo[zone], 1.3 / 1.1, rtol=1e-5)

    def test_spec_file_input(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"name": "filed", "rotor_diameter": 70,
                                         "rated_power": 1500}))
        out = tmp_path / "filed.csv"
        result = runner.invoke(main, ["generate", "--spec", str(spec_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["config"]["name"] == "filed"
        assert sidecar["config"]["rotor_diameter"] == 70

    def test_null_in_config_falls_through_to_spec(self, runner, tmp_path):
        # a sidecar records an unset hub height as null
        _, plain = generate(runner, tmp_path, stem="plain")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"rotor_diameter": 80, "rated_power": 2000,
                                         "hub_height": 90}))
        out = tmp_path / "layered.csv"
        result = runner.invoke(main, ["generate", "--spec", str(spec_path),
                                      "--config", str(plain.with_suffix(".json")),
                                      "--shear-alpha", "0.2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.with_suffix(".json").read_text())["config"]["hub_height"] == 90
        _, direct = generate(runner, tmp_path, "--hub-height", "90",
                             "--shear-alpha", "0.2", stem="direct")
        assert out.read_bytes() == direct.read_bytes()

    def test_null_unknown_config_key_still_rejected(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"foo": None}))
        result, _ = generate(runner, tmp_path, "--config", str(config))
        assert result.exit_code == 2
        assert result.stderr == f"error: ValueError: {config}: unknown config keys: foo\n"

    def test_numeric_failure_exits_3(self, runner, tmp_path, monkeypatch):
        from windcurve import errors
        import windcurve.cli as cli_mod

        def boom(*a, **k):
            raise errors.NoPositiveCp("unusable parameterisation")

        monkeypatch.setattr(cli_mod, "synthesize", boom)
        result, _ = generate(runner, tmp_path, stem="numfail")
        assert result.exit_code == 3

    def test_unknown_cp_model_exits_2(self, runner, tmp_path):
        result, _ = generate(runner, tmp_path, "--cp-model", "bogus", stem="bad")
        assert result.exit_code == 2

    def test_unknown_cp_model_error_line_is_unquoted(self, runner, tmp_path):
        result, _ = generate(runner, tmp_path, "--cp-model", "foo", stem="bad")
        assert result.stderr == (
            "error: UnknownParameterisation: unknown cp parameterisation 'foo'; "
            "bundled sets: dai2016, dekooning2013, heier2014, ochieng2014, "
            "slootweg2003, thongam2009\n")

    @pytest.mark.parametrize("flags", [["--n-bands", "5"], ["--env-order", "ti,shear_veer"]])
    def test_removed_environment_options_exit_2(self, runner, tmp_path, flags):
        # the band count and the stage order are fixed, not run settings
        result, _ = generate(runner, tmp_path, "--hub-height", "90", "--shear-alpha", "0.2",
                             *flags)
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_out_that_is_its_own_sidecar_exits_2(self, runner, tmp_path):
        out = tmp_path / "curve.json"
        result = runner.invoke(main, ["generate", "--diameter", "80", "--rated-power",
                                      "2000", "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: ValueError: --out and the sidecar of --out "
                                 f"both name {out.resolve()}\n")
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, option, name, out_name", [
    (["generate"], "--spec", "s.json", "s.csv"),    # the sidecar s.json is the spec
    (["generate"], "--config", "c.json", "c.csv"),  # the sidecar c.json is the config
    (["generate"], "--spec", "s.txt", "s.txt"),     # the CSV is the spec
    (["sweep", "--param", "rho", "--values", "1.2"], "--config", "c.json", "c.json"),
])
def test_output_that_is_an_input_exits_2(runner, tmp_path, command, option, name, out_name):
    source = tmp_path / name
    source.write_text('{"rotor_diameter": 80, "rated_power": 2000}\n')
    before = source.read_bytes()
    out = tmp_path / ".." / tmp_path.name / out_name
    output = "--out" if out_name == name else "the sidecar of --out"
    result = runner.invoke(main, [*command, option, str(source), "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == (f"error: ValueError: {option} and {output} both name "
                             f"{source.resolve()}\n")
    assert list(tmp_path.iterdir()) == [source]
    assert source.read_bytes() == before


class TestSweep:
    def test_single_value_matches_generate(self, runner, tmp_path):
        out_sweep = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--param", "rotor_diameter",
                                      "--values", "80", "--out", str(out_sweep)])
        assert result.exit_code == 0, result.output
        gen = tmp_path / "gen.csv"
        result = runner.invoke(
            main, ["generate", "--diameter", "80", "--rated-power", "2000",
                   "--cut-in", "3.5", "--cut-out", "25", "--omega-min", "10",
                   "--omega-max", "30", "--cp-max", "0.4615", "--out", str(gen)])
        assert result.exit_code == 0, result.output
        sweep_lines = out_sweep.read_text().splitlines()
        assert sweep_lines[0] == "param_value,wind_speed_ms,power_kw"
        gen_lines = gen.read_text().splitlines()
        assert [l.split(",", 1)[1] for l in sweep_lines[1:]] == gen_lines[1:]

    def test_failing_value_last_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--param", "omega_max",
                                      "--values", "40,30,5", "--out", str(out)])
        assert result.exit_code == 2
        assert not out.exists()

    def test_out_of_interval_warns_but_runs(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--param", "rotor_diameter",
                                      "--values", "150", "--out", str(out)])
        assert result.exit_code == 0
        err = result.stderr if hasattr(result, "stderr") else result.output
        assert "warning" in err
        assert out.exists()

    @pytest.mark.parametrize("param", SWEEP_INTERVALS)
    def test_every_variable_sweeps_both_ends_of_its_interval(self, runner, tmp_path, param):
        # the reference turbine has a hub height, so shear and veer sweep too
        lo, hi = SWEEP_INTERVALS[param]
        result = runner.invoke(main, ["sweep", "--param", param, "--values", f"{lo},{hi}",
                                      "--out", str(tmp_path / "sweep.csv")])
        assert result.exit_code == 0, result.output

    def test_range_form(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--param", "ti",
                                      "--range", "0", "0.1", "5",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        labels = {l.split(",")[0] for l in out.read_text().splitlines()[1:]}
        assert labels == {"0", "0.025", "0.05", "0.075", "0.1"}

    def test_minus_zero_is_labelled_zero(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--param", "ti", "--values=-0",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert {l.split(",")[0] for l in out.read_text().splitlines()[1:]} == {"0"}

    def test_cp_parameterisation_sweep(self, runner, tmp_path):
        out = tmp_path / "models.csv"
        result = runner.invoke(main, ["sweep", "--param", "cp_parameterisation",
                                      "--values",
                                      "dai2016,heier2014,slootweg2003",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        labels = {l.split(",")[0] for l in out.read_text().splitlines()[1:]}
        assert labels == {"dai2016", "heier2014", "slootweg2003"}

    def test_null_in_config_takes_the_default(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"cp_model": None}))
        outs = [tmp_path / "with.csv", tmp_path / "without.csv"]
        for extra, out in zip((["--config", str(config)], []), outs):
            result = runner.invoke(main, ["sweep", "--param", "ti", "--values", "0.05",
                                          *extra, "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unknown_param_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--param", "paint_colour",
                                      "--values", "3", "--out",
                                      str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        errors = [l for l in result.stderr.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "'--param'" in errors[0], result.stderr

    def test_values_and_range_mutually_exclusive(self, runner, tmp_path):
        result = runner.invoke(main, ["sweep", "--param", "ti", "--values", "0",
                                      "--range", "0", "0.1", "3",
                                      "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("param, count, message", [
        ("cut_in", "0", "ValueError: --range count must be >= 1"),
        ("cp_parameterisation", "3",
         "ValueError: cp_parameterisation sweeps need --values with model names"),
    ])
    def test_range_refused_exits_2(self, runner, tmp_path, param, count, message):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["sweep", "--param", param, "--range", "1", "2", count,
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert not out.exists()


class TestDefaultsCmd:
    def test_two_mandatory_inputs(self, runner):
        result = runner.invoke(main, ["defaults", "--diameter", "80",
                                      "--rated-power", "2000"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["spec"]["cut_in"] == 3.0
        assert payload["spec"]["cut_out"] == 25.0
        assert payload["spec"]["cp_max"] == 0.44
        assert payload["spec"]["omega_min"] == pytest.approx(8.7761, abs=1e-3)
        assert payload["spec"]["omega_max"] == pytest.approx(18.1781, abs=1e-3)

    def test_fully_specified_echoes(self, runner):
        result = runner.invoke(main, [
            "defaults", "--diameter", "80", "--rated-power", "2000",
            "--cut-in", "3.5", "--cut-out", "25", "--omega-min", "10",
            "--omega-max", "30", "--cp-max", "0.4615"])
        payload = json.loads(result.output)
        assert payload["defaults_report"] == []
        assert payload["spec"]["cp_max"] == 0.4615

    def test_missing_diameter_exits_2(self, runner):
        result = runner.invoke(main, ["defaults", "--rated-power", "2000"])
        assert result.exit_code == 2

    def test_output_feeds_generate(self, runner, tmp_path):
        flags = ["--diameter", "80", "--rated-power", "2000", "--cut-in", "4"]
        completed = tmp_path / "d.json"
        assert runner.invoke(main, ["defaults", *flags, "--out", str(completed)]).exit_code == 0
        ref = tmp_path / "ref.csv"
        assert runner.invoke(main, ["generate", *flags, "--out", str(ref)]).exit_code == 0
        for option in ("--spec", "--config"):
            out = tmp_path / f"{option[2:]}.csv"
            result = runner.invoke(main, ["generate", option, str(completed),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert json.loads(out.with_suffix(".json").read_text())["config"]["cut_in"] == 4.0
            assert out.read_text() == ref.read_text()


class TestCpTable:
    def test_table_layout(self, runner, tmp_path):
        out = tmp_path / "cp.csv"
        result = runner.invoke(main, ["cp-table", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "model,beta_deg,lambda,cp"
        models = {l.split(",")[0] for l in lines[1:]}
        assert len(models) == 6
        betas = {l.split(",")[1] for l in lines[1:]}
        assert betas == {"0", "1", "3", "5"}

    def test_single_model_to_stdout(self, runner):
        result = runner.invoke(main, ["cp-table", "--model", "heier2014",
                                      "--lambda-max", "10", "--step", "0.5"])
        assert result.exit_code == 0
        assert result.output.startswith("model,beta_deg,lambda,cp")
        assert "heier2014,0,8," in result.output

    def test_each_block_is_written_as_it_is_computed(self, runner, monkeypatch):
        # the header, then one write per (model, pitch) in table order, so the
        # whole table is never held at once
        writes = []
        echo = click.echo
        monkeypatch.setattr(click, "echo", lambda text, **kw: writes.append(text) or echo(text, **kw))
        result = runner.invoke(main, ["cp-table", "--model", "heier2014", "--model", "dai2016",
                                      "--betas", "0,2", "--step", "0.5"])
        assert result.exit_code == 0, result.output
        assert writes[0] == "model,beta_deg,lambda,cp\n"
        assert [{tuple(line.split(",")[:2]) for line in w.splitlines()} for w in writes[1:]] == [
            {("heier2014", "0")}, {("heier2014", "2")}, {("dai2016", "0")}, {("dai2016", "2")}]
        assert "".join(writes) == result.stdout

    def test_registry_json(self, runner):
        result = runner.invoke(main, ["cp-table", "--registry-json"])
        rows = json.loads(result.output)
        assert [r["name"] for r in rows] == [
            "slootweg2003", "heier2014", "thongam2009", "dekooning2013",
            "ochieng2014", "dai2016"]

    @pytest.mark.parametrize("args", [
        ["--model", "dai2016", "--betas", "7"],
        ["--betas", "0,1,3,5"],
        ["--lambda-min", "0.5"],
        ["--lambda-max", "10"],
        ["--step", "0.1"],
    ], ids=["model", "betas", "lambda-min", "lambda-max", "step"])
    def test_registry_json_refuses_a_table_option(self, runner, tmp_path, args):
        out = tmp_path / "reg.json"
        result = runner.invoke(main, ["cp-table", "--registry-json", *args, "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: ValueError: {args[0]} has no effect with --registry-json\n"
        assert not out.exists()


def test_version_is_the_package_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert __version__ in result.stdout


@pytest.mark.parametrize("args", [
    ["cp-table", "--registry-json"],
    ["cp-table", "--model", "heier2014", "--lambda-max", "10", "--step", "0.5"],
    ["defaults", "--diameter", "80", "--rated-power", "2000"],
], ids=["registry", "table", "defaults"])
def test_out_holds_the_stdout_bytes(runner, tmp_path, args):
    shown = runner.invoke(main, args)
    assert shown.exit_code == 0, shown.output
    out = tmp_path / "out.txt"
    written = runner.invoke(main, [*args, "--out", str(out)])
    assert written.exit_code == 0, written.output
    assert written.stdout_bytes == b""
    assert out.read_bytes() == shown.stdout_bytes


@pytest.mark.parametrize("args, message", [
    (["sweep", "--param", "rotor_diameter", "--values", "80,80.0000001"],
     "sweep values 80.0 and 80.0000001 share the label 80"),
    (["sweep", "--param", "rotor_diameter", "--values", "60,80,80"],
     "sweep values 80.0 and 80.0 share the label 80"),
    (["sweep", "--param", "ti", "--range", "0.1", "0.1", "2"],
     "sweep values 0.1 and 0.1 share the label 0.1"),
    (["sweep", "--param", "cp_parameterisation", "--values", "dai2016,DAI2016"],
     "sweep values 'dai2016' and 'DAI2016' share the label dai2016"),
    (["cp-table", "--betas", "1,1.0000001"], "--betas 1.0 and 1.0000001 share the label 1"),
    (["cp-table", "--model", "dai2016", "--model", "DAI2016"],
     "--model 'dai2016' and 'DAI2016' share the label dai2016"),
    (["sweep", "--param", "ti", "--values=0,-0"], "sweep values 0.0 and 0.0 share the label 0"),
    (["cp-table", "--betas=0,-0"], "--betas 0.0 and 0.0 share the label 0"),
], ids=["sweep-near", "sweep-repeat", "sweep-range", "sweep-model", "cp-betas", "cp-model",
        "sweep-minus-zero", "cp-betas-minus-zero"])
def test_values_that_share_a_label_exit_2(runner, tmp_path, args, message):
    # each curve's or pitch's rows are told apart only by their label
    out = tmp_path / "x.csv"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == f"error: ValueError: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--param", "rotor_diameter", "--values", "80,nan,nan"], "rotor_diameter must be finite, got nan"),
    (["--param", "rotor_diameter", "--values", "80,-inf"], "rotor_diameter must be finite, got -inf"),
    (["--param", "rotor_diameter", "--range", "40", "inf", "3"],
     "rotor_diameter must be finite, got inf"),
    (["--param", "ti", "--range", "nan", "0.1", "2"], "ti must be finite, got nan"),
], ids=["values-nan-twice", "values-inf", "range-inf", "range-nan"])
def test_non_finite_sweep_values_exit_2_naming_the_parameter(runner, tmp_path, args, message):
    # the fault is the value, not a label two non-finite values share
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["sweep", *args, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == f"error: ValueError: {message}\n"
    assert not out.exists()


class TestValidateCmd:
    def test_batch(self, runner, tmp_path):
        gen_dir = tmp_path / "fleet"
        gen_dir.mkdir()
        result = runner.invoke(
            main, ["generate", "--name", "unit1", "--diameter", "80",
                   "--rated-power", "2000", "--ti", "0.05",
                   "--out", str(gen_dir / "unit1.csv")])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["validate", "--input-dir", str(gen_dir)])
        assert result.exit_code == 0, result.output
        summary = (gen_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "name,cp_max,betz_flag,best_ti,rmse_best"
        assert summary[1].startswith("unit1,")
        assert ",0.05," in summary[1]
        report = json.loads((gen_dir / "report.json").read_text())
        assert report[0]["best_ti"] == 0.05

    def test_rerun_in_place_gives_the_same_files(self, runner, tmp_path):
        # the first run's summary.csv sits among the curve CSVs; the second skips it
        for name, ti in (("unit1", "0.05"), ("unit2", "0.1")):
            result = runner.invoke(
                main, ["generate", "--name", name, "--diameter", "80",
                       "--rated-power", "2000", "--ti", ti,
                       "--out", str(tmp_path / f"{name}.csv")])
            assert result.exit_code == 0, result.output
        outputs = []
        for _ in range(2):
            result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path)])
            assert result.exit_code == 0, result.output
            outputs.append([(tmp_path / f).read_bytes()
                            for f in ("summary.csv", "report.json")])
        assert outputs[0] == outputs[1]
        assert len(outputs[1][0].splitlines()) == 3
        # each curve is matched to the TI it was generated with
        rows = csv.DictReader(outputs[1][0].decode().splitlines())
        assert {row["name"]: row["best_ti"] for row in rows} == {"unit1": "0.05", "unit2": "0.1"}

    def test_tis_that_print_alike_keep_their_own_text(self, runner, tmp_path):
        # %g writes both 0.1 and 0.1000001 as 0.1
        result, _ = generate(runner, tmp_path, "--name", "unit1", "--ti", "0.1", stem="unit1")
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path),
                                      "--ti-grid", "0.1,0.1000001,0.05"])
        assert result.exit_code == 0, result.output
        (report,) = json.loads((tmp_path / "report.json").read_text())
        assert list(report["rmse_by_ti"]) == ["0.05", "0.1", "0.1000001"]
        (row,) = csv.DictReader((tmp_path / "summary.csv").open())
        assert float(row["best_ti"]) == report["best_ti"]
        assert result.stdout.startswith(f"unit1: best_ti={row['best_ti']} rmse=")

    def test_missing_dir_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", "--input-dir",
                                      str(tmp_path / "nope")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags", [
        ["--rho", "-1"], ["--ti-grid", "2"], ["--ti-grid=-0.5"], ["--cp-model", "foo"],
        ["--ti-grid", ",".join(["0.05"] * 1001)]],
        ids=["rho", "ti-above-one", "ti-negative", "cp-model", "ti-grid-past-the-cap"])
    def test_bad_setting_exits_2_in_a_directory_without_pairs(self, runner, tmp_path, flags):
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path), *flags])
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--rho", "-1"], "air density must be positive"),
        (["--ti-grid", "2"], "turbulence intensity must lie in [0, 1)"),
        (["--cp-model", "nosuch"], "unknown cp parameterisation 'nosuch'"),
        (["--ti-grid", ",".join(["0.05"] * 1001)], "more than MAX_TI_CANDIDATES"),
    ], ids=["rho", "ti-above-one", "cp-model", "ti-grid-past-the-cap"])
    def test_bad_setting_exits_2_before_a_curve_is_read(self, runner, tmp_path, flags,
                                                         message):
        # listing the pairs decodes each CSV's first line, which fails here
        (tmp_path / "a.csv").write_bytes(b"wind_speed_ms,power_kw\n\xff\n")
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path), *flags])
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error:")
        assert message in result.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["a.csv"]

    def test_spec_name_utf8_cannot_encode_exits_2_before_writing(self, runner, tmp_path):
        result, out = generate(runner, tmp_path, "--name", "unit1")
        assert result.exit_code == 0, result.output
        spec = out.with_suffix(".json")
        spec.write_text('{"name": "bad\\ud800name", "rotor_diameter": 80, '
                        '"rated_power": 2000}')
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: ValueError: {spec}: name must be UTF-8 text, "
                                 "got 'bad\\ud800name'\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["curve.csv", "curve.json"]

    def test_name_utf8_cannot_encode_exits_2_before_writing(self, runner, tmp_path):
        # the text Python makes of argv bytes that are not UTF-8, here b"V\xff"
        result, _ = generate(runner, tmp_path, "--name", "V\udcff")
        assert result.exit_code == 2
        assert result.stderr == "error: ValueError: name must be UTF-8 text, got 'V\\udcff'\n"
        assert list(tmp_path.iterdir()) == []

    def test_spec_name_on_two_lines_exits_2_before_writing(self, runner, tmp_path):
        result, out = generate(runner, tmp_path, "--name", "unit1")
        assert result.exit_code == 0, result.output
        spec = out.with_suffix(".json")
        spec.write_text(json.dumps({"name": "V80\rB", "rotor_diameter": 80,
                                    "rated_power": 2000}))
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: ValueError: {spec}: name must be one line of "
                                 "text, got 'V80\\rB'\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["curve.csv", "curve.json"]

    def test_name_on_two_lines_exits_2_before_writing(self, runner, tmp_path):
        # the name is checked first, so no later error repeats it on two lines
        result, _ = generate(runner, tmp_path, "--name", "V80\nB", "--diameter", "-5")
        assert result.exit_code == 2
        assert result.stderr == "error: ValueError: name must be one line of text, got 'V80\\nB'\n"
        assert list(tmp_path.iterdir()) == []

    def test_spec_without_diameter_exits_2(self, runner, tmp_path):
        # the error names the spec JSON, also when the spec has no name of its
        # own and completion calls it "turbine"
        result, out = generate(runner, tmp_path, "--name", "bare")
        assert result.exit_code == 0, result.output
        spec = out.with_suffix(".json")
        for record, name in (({"name": "bare", "rated_power": 2000}, "bare"),
                             ({"rated_power": 2000}, "turbine")):
            spec.write_text(json.dumps(record))
            result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path)])
            assert result.exit_code == 2
            assert result.stderr == (f"error: MissingMandatoryField: {spec}: {name}: missing "
                                     "mandatory field(s): rotor_diameter\n")

    def test_curve_without_spec_exits_2(self, runner, tmp_path):
        # the line carries the errno and the missing spec, and names the curve CSV
        curve = tmp_path / "a.csv"
        curve.write_text("wind_speed_ms,power_kw\n1,0\n")
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: FileNotFoundError: [Errno {errno.ENOENT}] No sidecar "
                                 f"spec for {curve}: '{tmp_path / 'a.json'}'\n")
        assert [f.name for f in tmp_path.iterdir()] == ["a.csv"]


    @pytest.mark.parametrize("name_csv", ["same", "relative", "symlink"])
    def test_equal_output_paths_exit_2(self, runner, tmp_path, monkeypatch, name_csv):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        result = runner.invoke(main, ["generate", "--name", "unit1", "--diameter", "80",
                                      "--rated-power", "2000", "--out", str(fleet / "unit1.csv")])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out.txt"
        monkeypatch.chdir(tmp_path)
        csv = {"same": str(out), "relative": "out.txt", "symlink": "link"}[name_csv]
        if name_csv == "symlink":
            (tmp_path / "link").symlink_to(out)
        result = runner.invoke(main, ["validate", "--input-dir", str(fleet),
                                      "--out-json", str(out), "--out-csv", csv])
        assert result.exit_code == 2
        assert result.stderr == (f"error: ValueError: --out-json and --out-csv both name "
                                 f"{out.resolve()}\n")
        assert not out.exists()
        assert sorted(f.name for f in fleet.iterdir()) == ["unit1.csv", "unit1.json"]

    @pytest.mark.parametrize("stem, option, name", [
        ("unit1", "--out-json", "unit1.json"),
        ("unit1", "--out-csv", "unit1.csv"),
        ("report", None, "report.json"),  # the default report.json is report.csv's spec
    ])
    def test_output_that_is_an_input_exits_2(self, runner, tmp_path, stem, option, name):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        result = runner.invoke(main, ["generate", "--name", stem, "--diameter", "80",
                                      "--rated-power", "2000", "--out", str(fleet / f"{stem}.csv")])
        assert result.exit_code == 0, result.output
        before = {f.name: f.read_bytes() for f in fleet.iterdir()}
        out = fleet / ".." / "fleet" / name if option else fleet / name
        given = [option, str(out)] if option else []
        result = runner.invoke(main, ["validate", "--input-dir", str(fleet), *given])
        assert result.exit_code == 2
        assert result.stderr == (f"error: ValueError: --input-dir and {option or '--out-json'} "
                                 f"both name {out.resolve()}\n")
        assert {f.name: f.read_bytes() for f in fleet.iterdir()} == before

class TestStderr:
    """Run as a subprocess, under the interpreter's own warning filters."""

    @staticmethod
    def python(tmp_path, *args, **env):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, cwd=tmp_path, env=env)

    @classmethod
    def run(cls, tmp_path, *args, **env):
        return cls.python(tmp_path, "-m", "windcurve.cli", *args, **env)

    def test_import_raises_no_warning(self, tmp_path):
        # the rotor bands are computed at import: a numpy warning there, such
        # as the square root of a negative round-off at the rim, fails it
        result = self.python(tmp_path, "-W", "error", "-c", "import windcurve")
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    @pytest.mark.parametrize("args, code", [
        (["generate", "--diameter", "80", "--rated-power", "2000", "--cut-in", "0",
          "--rho", "1e306", "--out", "c.csv"], 3),
        (["sweep", "--param", "omega_max", "--values", "40,30,5", "--out", "c.csv"], 2),
        # out of its interval, so it would warn, but the CSV cannot be written
        (["sweep", "--param", "cut_in", "--values", "6", "--out", "missing/x.csv"], 2),
    ])
    def test_failure_prints_only_the_error_line(self, tmp_path, args, code):
        result = self.run(tmp_path, *args)
        assert result.returncode == code
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error:")

    @pytest.mark.parametrize("env", [{}, {"PYTHONWARNINGS": "error::RuntimeWarning"}],
                             ids=["plain", "runtime-warning-raised"])
    def test_sweep_range_wider_than_a_float_is_one_error_line(self, tmp_path, env):
        # both ends are finite, but the span np.linspace would divide is not
        result = self.run(tmp_path, "sweep", "--param", "rotor_diameter", "--range",
                          "-1e308", "1e308", "3", "--out", "c.csv", **env)
        assert result.returncode == 2, result.stderr
        assert result.stderr == ("error: ValueError: --range -1e+308 to 1e+308 spans "
                                 "more than the largest float\n")
        assert not (tmp_path / "c.csv").exists()

    def test_validate_warns_once_of_an_unusual_density(self, tmp_path):
        for name in ("unit1", "unit2"):
            result = self.run(tmp_path, "generate", "--name", name, "--diameter", "80",
                              "--rated-power", "2000", "--out", f"{name}.csv")
            assert result.returncode == 0, result.stderr
        result = self.run(tmp_path, "validate", "--input-dir", ".", "--rho", "0.8")
        assert result.returncode == 0, result.stderr
        assert result.stderr.count("UserWarning: air density 0.8") == 1, result.stderr

    @pytest.mark.parametrize("args, stderr", [
        (["generate", "--diameter", "80", "--rated-power", "2000", "--rho", "0.5",
          "--out", "c.csv"],
         "warning: UserWarning: air density 0.5 kg/m^3 outside the usual 0.9-1.5 band\n"),
        (["sweep", "--param", "cut_in", "--values", "6", "--out", "c.csv"],
         "warning: UserWarning: cut_in=6 outside the typical interval [0, 5]\n"),
        # many blocks of turbulence taps on a fine grid at high TI
        (["generate", "--diameter", "80", "--rated-power", "2000", "--ti", "0.15",
          "--dv", "0.01", "--out", "c.csv"], ""),
        # a laminar sheared curve, read at kappa * u
        (["generate", "--diameter", "80", "--rated-power", "2000", "--hub-height", "100",
          "--shear-alpha", "0.3", "--veer-rate", "0.4", "--out", "c.csv"], ""),
        # a cut-in of 0 keeps 0 m/s, where the tip-speed ratio is undefined, out of the window
        (["generate", "--diameter", "80", "--rated-power", "2000", "--cut-in", "0",
          "--out", "c.csv"], ""),
    ], ids=["density", "interval", "fine-turbulent", "sheared", "cut-in-0"])
    def test_success_shows_each_warning_on_one_line(self, tmp_path, args, stderr):
        # a numpy warning, raised as an error, would fail the run
        result = self.run(tmp_path, *args, PYTHONWARNINGS="error::RuntimeWarning")
        assert result.returncode == 0, result.stderr
        assert result.stderr == stderr

    @pytest.mark.parametrize("warning, args, code, line", [
        ("UserWarning", ["generate", "--diameter", "80", "--rated-power", "2000",
                         "--rho", "0.8", "--out", "c.csv"], 2,
         "error: UserWarning: air density 0.8 kg/m^3 outside the usual 0.9-1.5 band"),
        ("UserWarning", ["sweep", "--param", "cut_in", "--values", "6", "--out", "c.csv"], 2,
         "error: UserWarning: cut_in=6 outside the typical interval [0, 5]"),
        ("RuntimeWarning", ["generate", "--diameter", "80", "--rated-power", "2000",
                            "--cut-in", "0", "--rho", "1e306", "--out", "c.csv"], 3,
         "error: RuntimeWarning: invalid value encountered in multiply"),
    ], ids=["density", "interval", "numeric"])
    def test_warning_raised_as_an_error_is_one_error_line(self, tmp_path, warning, args,
                                                          code, line):
        result = self.run(tmp_path, *args, PYTHONWARNINGS=f"error::{warning}")
        assert result.returncode == code, result.stderr
        assert result.stderr == line + "\n"
        assert not (tmp_path / "c.csv").exists()

    def test_outputs_do_not_depend_on_the_locale(self, tmp_path):
        # a catalogue name that is not ASCII, read from a UTF-8 spec and
        # written raw to summary.csv; a C locale encodes text as ASCII
        name = "Vestas V90 \u2013 3 MW"
        (tmp_path / "spec.json").write_text(
            json.dumps({"name": name, "rotor_diameter": 90, "rated_power": 3000},
                       ensure_ascii=False), encoding="utf-8")
        commands = [
            ["generate", "--spec", "../spec.json", "--ti", "0.05", "--out", "fleet/v90.csv"],
            ["validate", "--input-dir", "fleet"],
            # one kernel call scores TI 0, a repeat and TI 0.3, whose windows pass 0 m/s
            ["validate", "--input-dir", "fleet", "--ti-grid", "0.3,0,0.1,0.05,0.1",
             "--out-json", "batch.json", "--out-csv", "batch.csv"],
            ["sweep", "--param", "rotor_diameter", "--values", "80,90", "--out", "sweep.csv"],
            ["defaults", "--diameter", "90", "--rated-power", "3000", "--out", "spec.json"],
            ["cp-table", "--model", "dai2016", "--betas", "0", "--out", "cp.csv"],
        ]
        envs = {"default": {}, "C": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                # an open that names no encoding warns, and so does numpy; both fail
                "strict": {"PYTHONWARNDEFAULTENCODING": "1",
                           "PYTHONWARNINGS": "error::EncodingWarning,error::RuntimeWarning"}}

        def outputs(name):
            cwd = tmp_path / name
            (cwd / "fleet").mkdir(parents=True)
            for args in commands:
                result = self.run(cwd, *args, **envs[name])
                assert result.returncode == 0, (args, result.stderr)
                assert result.stderr == "", (args, result.stderr)
            return {p.relative_to(cwd): p.read_bytes()
                    for p in sorted(cwd.rglob("*")) if p.is_file()}
        # the settings run side by side, to keep the test near 2 s
        with ThreadPoolExecutor(len(envs)) as pool:
            files = list(pool.map(outputs, envs))
        assert files[0] == files[1] == files[2]
        assert len(files[0]) == 9
        assert not any(b"\r" in data for data in files[0].values())
        assert name.encode() in files[0][Path("fleet/summary.csv")]
