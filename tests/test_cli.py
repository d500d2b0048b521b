import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from windcurve import TurbineSpec, synthesize
from windcurve.cli import main
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
        assert result.stderr == "error: ValueError: unknown config keys: foo\n"

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


    def test_out_that_is_its_own_sidecar_exits_2(self, runner, tmp_path):
        out = tmp_path / "curve.json"
        result = runner.invoke(main, ["generate", "--diameter", "80", "--rated-power",
                                      "2000", "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: ValueError: --out {out} is also the path "
                                 "of its .json sidecar\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_range_form(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", "--param", "ti",
                                      "--range", "0", "0.1", "5",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        labels = {l.split(",")[0] for l in out.read_text().splitlines()[1:]}
        assert labels == {"0", "0.025", "0.05", "0.075", "0.1"}

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

    def test_registry_json(self, runner):
        result = runner.invoke(main, ["cp-table", "--registry-json"])
        rows = json.loads(result.output)
        assert [r["name"] for r in rows] == [
            "slootweg2003", "heier2014", "thongam2009", "dekooning2013",
            "ochieng2014", "dai2016"]


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

    def test_missing_dir_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", "--input-dir",
                                      str(tmp_path / "nope")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags", [
        ["--rho", "-1"], ["--ti-grid", "2"], ["--ti-grid=-0.5"], ["--cp-model", "foo"]],
        ids=["rho", "ti-above-one", "ti-negative", "cp-model"])
    def test_bad_setting_exits_2_in_a_directory_without_pairs(self, runner, tmp_path, flags):
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path), *flags])
        assert result.exit_code == 2
        assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_spec_without_diameter_exits_2(self, runner, tmp_path):
        result, out = generate(runner, tmp_path, "--name", "bare")
        assert result.exit_code == 0, result.output
        out.with_suffix(".json").write_text(json.dumps({"name": "bare",
                                                        "rated_power": 2000}))
        result = runner.invoke(main, ["validate", "--input-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr == ("error: MissingMandatoryField: bare: missing mandatory "
                                 "field(s): rotor_diameter\n")


    def test_equal_output_paths_exit_2(self, runner, tmp_path):
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        result = runner.invoke(main, ["generate", "--name", "unit1", "--diameter", "80",
                                      "--rated-power", "2000", "--out", str(fleet / "unit1.csv")])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out.txt"
        result = runner.invoke(main, ["validate", "--input-dir", str(fleet),
                                      "--out-json", str(out), "--out-csv", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: ValueError: --out-json and --out-csv are both {out}\n"
        assert not out.exists()
        assert sorted(f.name for f in fleet.iterdir()) == ["unit1.csv", "unit1.json"]

class TestStderr:
    """Run as a subprocess: pytest records warnings before CliRunner sees them."""

    @staticmethod
    def run(tmp_path, *args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "windcurve.cli", *args],
                              capture_output=True, text=True, cwd=tmp_path, env=env)

    @pytest.mark.parametrize("args, code", [
        (["generate", "--diameter", "80", "--rated-power", "2000", "--cut-in", "0",
          "--rho", "1e306"], 3),
        (["sweep", "--param", "omega_max", "--values", "40,30,5"], 2),
    ])
    def test_failure_prints_only_the_error_line(self, tmp_path, args, code):
        result = self.run(tmp_path, *args, "--out", "c.csv")
        assert result.returncode == code
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("error:")

    def test_validate_warns_once_of_an_unusual_density(self, tmp_path):
        for name in ("unit1", "unit2"):
            result = self.run(tmp_path, "generate", "--name", name, "--diameter", "80",
                              "--rated-power", "2000", "--out", f"{name}.csv")
            assert result.returncode == 0, result.stderr
        result = self.run(tmp_path, "validate", "--input-dir", ".", "--rho", "0.8")
        assert result.returncode == 0, result.stderr
        assert result.stderr.count("UserWarning: air density 0.8") == 1, result.stderr

    def test_success_still_shows_warnings_at_the_caller(self, tmp_path):
        result = self.run(tmp_path, "generate", "--diameter", "80", "--rated-power",
                          "2000", "--rho", "0.5", "--out", "c.csv")
        assert result.returncode == 0, result.stderr
        assert "UserWarning: air density 0.5" in result.stderr
        assert "cli.py:" in result.stderr and "<string>" not in result.stderr
