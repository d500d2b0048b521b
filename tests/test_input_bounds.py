"""Input bounds: finite numbers everywhere and the physical veer limit."""

import json
import math

import pytest
from click.testing import CliRunner

from windcurve import (EnvironmentConditions, TurbineSpec, band_areas,
                       make_wind_grid, rews)
from windcurve.cli import main

from conftest import REFERENCE_KWARGS

NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["rotor_diameter", "rated_power", "cut_in",
                                  "cut_out", "omega_min", "omega_max",
                                  "cp_max", "hub_height"])
def test_spec_rejects_non_finite(name, value):
    kwargs = dict(REFERENCE_KWARGS, hub_height=60.0)
    kwargs[name] = value
    with pytest.raises(ValueError):
        TurbineSpec(**kwargs)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["ti", "rho", "shear_alpha", "veer_rate"])
def test_environment_rejects_non_finite(name, value):
    with pytest.raises(ValueError):
        EnvironmentConditions(**{name: value})


@pytest.mark.parametrize("v_max,dv", [(math.inf, 0.05), (40.0, math.inf),
                                      (math.nan, 0.05), (40.0, math.nan)])
def test_wind_grid_rejects_non_finite(v_max, dv):
    with pytest.raises(ValueError):
        make_wind_grid(v_max, dv)


class TestVeerBound:
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=90.0)
    bands = band_areas(80.0, 90.0, 100)

    def test_just_below_ninety_degrees_is_accepted(self):
        assert rews(10.0, self.spec, 0.0, 2.24, self.bands) > 0.0

    @pytest.mark.parametrize("veer", [2.25, -2.25, 10.0])
    def test_ninety_degrees_or_more_rejected(self, veer):
        with pytest.raises(ValueError, match="veer_rate"):
            rews(10.0, self.spec, 0.0, veer, self.bands)


@pytest.mark.parametrize("flags", [
    ["--shear-alpha", "nan", "--hub-height", "90"],
    ["--veer-rate", "nan", "--hub-height", "90"],
    ["--rho", "inf"],
    ["--rated-power", "inf"],
    ["--cut-out", "inf"],
    ["--veer-rate", "10", "--hub-height", "90"],
])
def test_cli_out_of_bounds_exits_2(flags, tmp_path):
    result = CliRunner().invoke(main, ["generate", "--diameter", "80",
                                       "--rated-power", "2000", *flags,
                                       "--out", str(tmp_path / "c.csv")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ValueError:")
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("value", ["80", True, [80.0]])
@pytest.mark.parametrize("name", ["rotor_diameter", "rated_power", "cut_out",
                                  "hub_height"])
def test_spec_rejects_non_numbers(name, value):
    kwargs = dict(REFERENCE_KWARGS, hub_height=60.0)
    kwargs[name] = value
    with pytest.raises(ValueError, match=name):
        TurbineSpec(**kwargs)


@pytest.mark.parametrize("value", ["0.1", True])
@pytest.mark.parametrize("name", ["ti", "rho", "shear_alpha", "veer_rate"])
def test_environment_rejects_non_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        EnvironmentConditions(**{name: value})


@pytest.mark.parametrize("option,key,value", [
    ("--config", "rotor_diameter", "80"),
    ("--spec", "rotor_diameter", "80"),
    ("--spec", "rated_power", True),
    ("--config", "ti", "0.1"),
    ("--config", "dv", "0.05"),
    ("--config", "v_max", False),
    ("--config", "n_bands", 1.5),
    ("--config", "cp_model", 5),
    ("--config", "env_order", ["ti"]),
])
def test_cli_wrong_typed_json_exits_2(option, key, value, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"rotor_diameter": 80, "rated_power": 2000,
                                key: value}))
    result = CliRunner().invoke(main, ["generate", option, str(path),
                                       "--out", str(tmp_path / "c.csv")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ValueError:")
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert key in result.stderr
    assert not (tmp_path / "c.csv").exists()


def test_validate_wrong_typed_spec_exits_2(tmp_path):
    assert CliRunner().invoke(main, ["generate", "--diameter", "80",
                                     "--rated-power", "2000", "--out",
                                     str(tmp_path / "t.csv")]).exit_code == 0
    (tmp_path / "t.json").write_text(json.dumps({"rotor_diameter": "80",
                                                 "rated_power": 2000}))
    result = CliRunner().invoke(main, ["validate", "--input-dir", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ValueError:")
    assert "rotor_diameter" in result.stderr


def _one_error_line(result) -> str:
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, result.stderr
    assert "Traceback" not in result.output
    return errors[0]


@pytest.mark.parametrize("content", ["[]", "5"])
@pytest.mark.parametrize("option", ["--config", "--spec"])
def test_cli_non_object_json_exits_2(option, content, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(content)
    result = CliRunner().invoke(main, ["generate", "--diameter", "80",
                                       "--rated-power", "2000", option, str(path),
                                       "--out", str(tmp_path / "c.csv")])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith("error: ValueError:")
    assert not (tmp_path / "c.csv").exists()


def test_validate_non_object_spec_exits_2(tmp_path):
    assert CliRunner().invoke(main, ["generate", "--diameter", "80",
                                     "--rated-power", "2000", "--out",
                                     str(tmp_path / "t.csv")]).exit_code == 0
    (tmp_path / "t.json").write_text("[]")
    result = CliRunner().invoke(main, ["validate", "--input-dir", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith("error: ValueError:")


@pytest.mark.parametrize("command", [
    ["generate", "--diameter", "80", "--rated-power", "2000"],
    ["sweep", "--param", "rho", "--values", "1.2"],
])
def test_cli_out_is_a_directory_exits_2(command, tmp_path):
    result = CliRunner().invoke(main, [*command, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith("error: IsADirectoryError:")


@pytest.mark.parametrize("flags", [
    ["--step", "0"],
    ["--step", "-0.1"],
    ["--step", "nan"],
    ["--lambda-max", "1e308", "--step", "1e-300"],
    ["--lambda-min", "5", "--lambda-max", "1"],
    ["--lambda-min", "5", "--lambda-max", "5"],
    ["--lambda-max", "inf"],
    ["--lambda-min", "nan"],
])
def test_cp_table_degenerate_grid_exits_2(flags):
    result = CliRunner().invoke(main, ["cp-table", *flags])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith("error: ValueError: tip-speed-ratio grid")


@pytest.mark.parametrize("flags", [
    ["--cut-in", "0", "--rho", "1e306"],
    ["--diameter", "1e160"],
])
def test_cli_overflowing_run_exits_3(flags, tmp_path):
    result = CliRunner().invoke(main, ["generate", "--diameter", "80",
                                       "--rated-power", "2000", *flags,
                                       "--out", str(tmp_path / "c.csv")])
    assert result.exit_code == 3, result.output
    _one_error_line(result)
    assert not (tmp_path / "c.csv").exists()
