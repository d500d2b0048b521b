"""Input bounds: finite numbers everywhere and the physical veer limit."""

import ast
import dataclasses
import errno
import json
import math
import numbers
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from windcurve import (EnvironmentConditions, MeasuredCurve, TurbineSpec, apply_shear_veer,
                       apply_turbulence, betz_screen, cp_general_array,
                       default_rotation_speeds, ideal_curve, invert_cp, make_wind_grid,
                       rews_factor, scale_cp, spec_from_json, synthesize, turbulent_power)
from windcurve import cli, environment, errors, turbine
from windcurve.cli import MAX_CP_TABLE_ROWS, MAX_SWEEP_POINTS, MAX_SWEEP_VALUES, main
from windcurve.cp_models import MAX_LAMBDA_POINTS, REGISTRY, lambda_grid
from windcurve.curve_engine import MAX_GRID_POINTS
from windcurve.environment import MAX_TURBULENCE_TAPS
from windcurve.errors import check_value
from windcurve.validation import MAX_TI_CANDIDATES

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


def _general_check_value(name, value, kind=numbers.Real):
    """check_value as every value took it before its float fast path, when it
    also checked a spec's name as str: the reference both must agree with."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if kind is not numbers.Real:
        return
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large "
                         "for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", [numbers.Real, str])
@pytest.mark.parametrize("value", [1.5, -0.0, math.nan, math.inf, -math.inf, np.float64(math.nan),
                                   np.float32(1.5), 3, 10 ** 400, True, np.True_, "1.5", None])
def test_check_value_fast_path_agrees_with_the_general_one(value, kind):
    # a Python float takes check_value's fast path, every other real the
    # general one; a spec's name, the one value checked as str, keeps its message
    if kind is numbers.Real:
        assert _outcome(check_value, "x", value) == _outcome(_general_check_value, "x", value)
    else:
        assert (_outcome(lambda v: TurbineSpec(name=v, **REFERENCE_KWARGS), value)
                == _outcome(_general_check_value, "name", value, str))


def test_check_value_is_the_one_number_test():
    # defined once, in errors; turbine re-exports it for its older callers
    src = Path(errors.__file__).parent
    homes = [path.name for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name == "check_value"]
    assert homes == ["errors.py"]
    assert turbine.check_value is check_value


_SPEC = TurbineSpec(name="reference", hub_height=60.0, **REFERENCE_KWARGS)
_CP = REGISTRY["heier2014"]


def _cp_door(coefficient):
    return (f"heier2014: {coefficient}",
            lambda v, curve: dataclasses.replace(_CP, **{coefficient: v}))


#: Every public door that takes an input number: the name its message gives
#: the number, and a call that passes the number v (curve: the reference curve).
NUMBER_DOORS = {
    "EnvironmentConditions-ti": ("ti", lambda v, curve: EnvironmentConditions(ti=v)),
    "apply_turbulence-ti": ("ti", lambda v, curve: apply_turbulence(curve, v, cut_out=25.0)),
    "turbulent_power-ti": ("ti", lambda v, curve: turbulent_power(
        curve, [0.05, v], np.array([5.0]), cut_out=25.0)),
    "rews_factor-alpha": ("shear_alpha", lambda v, curve: rews_factor(_SPEC, v, 0.0)),
    "rews_factor-veer": ("veer_rate", lambda v, curve: rews_factor(_SPEC, 0.0, v)),
    "apply_shear_veer-alpha": ("shear_alpha",
                               lambda v, curve: apply_shear_veer(curve, _SPEC, v, 0.0)),
    "apply_shear_veer-veer": ("veer_rate",
                              lambda v, curve: apply_shear_veer(curve, _SPEC, 0.0, v)),
    "cp_general_array-beta": ("pitch angle beta",
                              lambda v, curve: cp_general_array(np.array([7.0]), v, _CP)),
    **{f"CpParameterisation-{c}": _cp_door(c)
       for c in [f.name for f in dataclasses.fields(_CP)][1:-1]},
    "lambda_grid-lo": ("tip-speed-ratio grid lo", lambda v, curve: lambda_grid(v, 20.0, 0.5)),
    "lambda_grid-hi": ("tip-speed-ratio grid hi", lambda v, curve: lambda_grid(0.5, v, 0.5)),
    "lambda_grid-step": ("tip-speed-ratio grid step",
                         lambda v, curve: lambda_grid(0.5, 20.0, v)),
    "make_wind_grid-v_max": ("v_max", lambda v, curve: make_wind_grid(v, 0.05)),
    "make_wind_grid-dv": ("dv", lambda v, curve: make_wind_grid(40.0, v)),
    "scale_cp-cp_max": ("cp_max", lambda v, curve: scale_cp(_CP, v)),
    "default_rotation_speeds": ("rotor_diameter", lambda v, curve: default_rotation_speeds(v)),
    "betz_screen": ("cp_max", lambda v, curve: betz_screen(v)),
}
BAD_NUMBERS = {"str": "0.1", "None": None, "bool": True, "list": [0.1],
               "huge-int": 10 ** 400, "nan": math.nan}


@pytest.mark.parametrize("value", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
@pytest.mark.parametrize("door", NUMBER_DOORS)
def test_every_door_rejects_a_bad_number_by_name(door, value, reference_curve):
    # one ValueError, check_value's, naming the number: no TypeError, no
    # OverflowError and no silent acceptance
    name, call = NUMBER_DOORS[door]
    with pytest.raises(ValueError) as info:
        call(value, reference_curve)
    assert str(info.value) == _outcome(check_value, name, value)


@pytest.mark.parametrize("v_max,dv", [(math.inf, 0.05), (40.0, math.inf),
                                      (math.nan, 0.05), (40.0, math.nan)])
def test_wind_grid_rejects_non_finite(v_max, dv):
    with pytest.raises(ValueError):
        make_wind_grid(v_max, dv)


@pytest.mark.parametrize("v_max,dv", [(40.0, 1e-300), (1e300, 1e-300), (1.0, 0.99e-6)])
def test_wind_grid_points_capped(v_max, dv):
    # each is rejected before allocating, at the cap or, without it, by the
    # multiple check, int(inf) or numpy's array size limit
    with pytest.raises(ValueError, match=f"exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}"):
        make_wind_grid(v_max, dv)


def test_wind_grid_at_the_cap_is_accepted():
    assert len(make_wind_grid(40.0, 4e-5)) == MAX_GRID_POINTS


def _address_space_limit() -> None:
    # 2 GiB: the 2.98 GiB grid that --dv 1e-7 asks for cannot be allocated, so
    # a missing cap ends in MemoryError instead of taking the memory
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 2 ** 31 if hard == resource.RLIM_INFINITY else min(hard, 2 ** 31)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


_CLI = ["-m", "windcurve.cli"]


def _run_limited(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run python with args from the source tree under _address_space_limit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          preexec_fn=_address_space_limit, timeout=120)


@pytest.mark.parametrize("dv", ["1e-7", "1e-300"])
def test_cli_grid_past_the_cap_exits_2(dv, tmp_path):
    result = _run_limited([*_CLI, "generate", "--diameter", "80", "--rated-power", "2000",
                           "--dv", dv, "--out", "c.csv"], tmp_path)
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("error: ValueError: wind grid of ")
    assert f"exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}" in result.stderr
    assert not (tmp_path / "c.csv").exists()


def test_lambda_grid_points_capped():
    with pytest.raises(ValueError, match=f"exceeds MAX_LAMBDA_POINTS = {MAX_LAMBDA_POINTS}"):
        lambda_grid(0.5, 20.0, 1.9e-4)
    assert len(lambda_grid(0.5, 20.0, 1.95e-4)) == MAX_LAMBDA_POINTS


@pytest.mark.parametrize("args, message", [
    (["validate", "--input-dir", ".", "--out-csv", "c.csv",
      "--ti-grid", ",".join(["0.05"] * (MAX_TI_CANDIDATES + 1))],
     f"error: ValueError: ti_grid holds {MAX_TI_CANDIDATES + 1} TIs, more than "
     f"MAX_TI_CANDIDATES = {MAX_TI_CANDIDATES}"),
    (["cp-table", "--step", "1e-9", "--out", "c.csv"],
     "error: ValueError: tip-speed-ratio grid of 1.95e+10 points"),
    (["sweep", "--param", "cut_in", "--range", "1", "2", "1000000000", "--out", "c.csv"],
     f"error: ValueError: sweep of 1000000000 values exceeds "
     f"MAX_SWEEP_VALUES = {MAX_SWEEP_VALUES}"),
    (["sweep", "--param", "rotor_diameter", "--values",
      ",".join(["80"] * (MAX_SWEEP_VALUES + 1)), "--out", "c.csv"],
     f"error: ValueError: sweep of {MAX_SWEEP_VALUES + 1} values exceeds"),
    (["sweep", "--param", "cut_in", "--range", "1", "2", "200", "--dv", "4e-5",
      "--out", "c.csv"],
     f"error: ValueError: sweep of 200 curves holds 2e+08 grid points, "
     f"more than MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}"),
    (["generate", "--diameter", "80", "--rated-power", "2000", "--dv", "4e-5", "--ti", "0.5",
      "--out", "c.csv"],
     f"error: ValueError: turbulence kernel of 682791730358 taps at TI 0.5 exceeds "
     f"MAX_TURBULENCE_TAPS = {MAX_TURBULENCE_TAPS}"),
    (["cp-table", "--betas", ",".join(map(str, range(1000))), "--step", "1.95e-4",
      "--out", "c.csv"],
     f"error: ValueError: cp table of 600006000 rows exceeds "
     f"MAX_CP_TABLE_ROWS = {MAX_CP_TABLE_ROWS}"),
])
def test_cli_sizes_past_their_caps_exit_2(args, message, tmp_path):
    # without the caps, a kernel plan and output row held for each of any
    # number of TIs, 7.45 GiB of sweep values, a 145 GiB tip-speed-ratio grid,
    # 200 curves of a million points held at once, hours of turbulence taps
    # (past the timeout), or 6e8 cp-table rows, about 17 GB of text
    result = _run_limited([*_CLI, *args], tmp_path)
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith(message), result.stderr
    assert not (tmp_path / "c.csv").exists()


def test_cp_table_rows_capped(monkeypatch):
    # the default models and pitches on the finest tip-speed-ratio grid fit
    assert len(REGISTRY) * 4 * len(lambda_grid(0.5, 20.0, 1.95e-4)) <= MAX_CP_TABLE_ROWS
    # one model at two pitches on 20 ratios, 0.5 to 10
    args = ["cp-table", "--model", "heier2014", "--betas", "0,1", "--lambda-max", "10",
            "--step", "0.5"]
    monkeypatch.setattr(cli, "MAX_CP_TABLE_ROWS", 40)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(result.stdout.splitlines()) == 41
    monkeypatch.setattr(cli, "MAX_CP_TABLE_ROWS", 39)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert _one_error_line(result) == (
        "error: ValueError: cp table of 40 rows exceeds MAX_CP_TABLE_ROWS = 39")
    assert result.stdout == ""


def test_turbulence_taps_capped_per_curve(reference_curve, monkeypatch):
    plans = []
    plan_rows = environment._row_plan
    monkeypatch.setattr(environment, "_row_plan",
                        lambda *args: plans.append(plan_rows(*args)) or plans[-1])
    apply_turbulence(reference_curve, 0.1, cut_out=25.0)
    # the taps of each planned row r's window [max(r - h, 0), r + h + 1)
    rows, half = plans[0]
    taps = sum(r + h + 1 - max(r - h, 0) for r, h in zip(rows.tolist(), half.tolist()))
    monkeypatch.setattr(environment, "MAX_TURBULENCE_TAPS", taps)
    apply_turbulence(reference_curve, 0.1, cut_out=25.0)
    # past it, both entry points refuse the curve, however few rows are sampled
    monkeypatch.setattr(environment, "MAX_TURBULENCE_TAPS", taps - 1)
    message = (f"turbulence kernel of {taps} taps at TI 0.1 exceeds "
               f"MAX_TURBULENCE_TAPS = {taps - 1}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_turbulence(reference_curve, 0.1, cut_out=25.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        turbulent_power(reference_curve, [0.1], np.array([5.0]), cut_out=25.0)


def test_turbulence_ti_checked_before_allocating(tmp_path):
    # without the check, TI 1e6 asks for a 29.8 GiB extended grid
    code = ("from windcurve import TurbineSpec, apply_turbulence, synthesize\n"
            "curve, _ = synthesize(TurbineSpec(rotor_diameter=80, rated_power=2000))\n"
            "apply_turbulence(curve, 1e6, cut_out=25.0)")
    result = _run_limited(["-c", code], tmp_path)
    assert result.returncode == 1, result.stderr
    assert result.stderr.splitlines()[-1] == (
        "ValueError: turbulence intensity must lie in [0, 1), got 1000000.0")


@pytest.mark.parametrize("ti", [math.nan, math.inf, 1.0])
def test_turbulence_stages_share_the_ti_domain(ti, reference_curve):
    # all three doors raise the message EnvironmentConditions raises
    message = "^ti must be finite" if ti != 1.0 else r"turbulence intensity must lie in \[0, 1\)"
    with pytest.raises(ValueError, match=message):
        apply_turbulence(reference_curve, ti, cut_out=25.0)
    with pytest.raises(ValueError, match=message):
        turbulent_power(reference_curve, [ti], np.array([5.0]), cut_out=25.0)
    with pytest.raises(ValueError, match=message):
        EnvironmentConditions(ti=ti)


@pytest.mark.parametrize("ti", [0.0, 0.05])
@pytest.mark.parametrize("cut_out", NON_FINITE)
def test_turbulence_stages_reject_a_non_finite_cut_out(cut_out, ti, reference_curve):
    # as TurbineSpec does; a nan window would otherwise hold every grid point
    with pytest.raises(ValueError, match="^cut_out must be finite"):
        apply_turbulence(reference_curve, ti, cut_out=cut_out)
    with pytest.raises(ValueError, match="^cut_out must be finite"):
        turbulent_power(reference_curve, [ti], np.array([5.0]), cut_out=cut_out)


class TestVeerBound:
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=90.0)

    def test_just_below_ninety_degrees_is_accepted(self):
        assert 10.0 * rews_factor(self.spec, 0.0, 2.24) > 0.0

    @pytest.mark.parametrize("veer", [2.25, -2.25, 10.0])
    def test_ninety_degrees_or_more_rejected(self, veer):
        with pytest.raises(ValueError, match="veer_rate"):
            rews_factor(self.spec, 0.0, veer)


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


@pytest.mark.parametrize("value", [5, [1, 2], True])
def test_spec_rejects_non_string_name(value):
    with pytest.raises(ValueError, match="name must be of type str"):
        TurbineSpec(name=value, **REFERENCE_KWARGS)
    with pytest.raises(ValueError, match="name must be of type str"):
        spec_from_json({"name": value, **REFERENCE_KWARGS})


@pytest.mark.parametrize("value", ["0.1", True])
@pytest.mark.parametrize("name", ["ti", "rho", "shear_alpha", "veer_rate"])
def test_environment_rejects_non_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        EnvironmentConditions(**{name: value})


BAD_RHOS = {"nan": math.nan, "bool": True, "str": "1.2", "zero": 0, "negative": -1}
RHO_DOORS = {
    "ideal_curve": lambda rho, spec, model: ideal_curve(spec, model, rho),
    "invert_cp": lambda rho, spec, model: invert_cp(
        MeasuredCurve(spec, [0.0, 5.0, 10.0, 15.0], [0.0, 150.0, 1200.0, 2000.0]), rho),
}


@pytest.mark.parametrize("rho", BAD_RHOS.values(), ids=BAD_RHOS.keys())
@pytest.mark.parametrize("door", RHO_DOORS)
def test_every_rho_door_raises_the_site_rule(door, rho, reference_spec, reference_model):
    # the ValueError EnvironmentConditions raises for the same density: no nan
    # curve, no bool taken as 1 kg/m^3, no TypeError
    with pytest.raises(ValueError) as site:
        EnvironmentConditions(rho=rho)
    with pytest.raises(ValueError) as info:
        RHO_DOORS[door](rho, reference_spec, reference_model)
    assert str(info.value) == str(site.value)


@pytest.mark.parametrize("door", RHO_DOORS)
def test_only_the_site_warns_about_an_unusual_rho(door, reference_spec, reference_model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        RHO_DOORS[door](2.0, reference_spec, reference_model)


@pytest.mark.parametrize("option,key,value", [
    ("--config", "rotor_diameter", "80"),
    ("--spec", "rotor_diameter", "80"),
    ("--spec", "rated_power", True),
    ("--config", "ti", "0.1"),
    ("--config", "dv", "0.05"),
    ("--config", "v_max", False),
    ("--config", "veer_rate", "0.3"),
    ("--config", "cp_model", 5),
    ("--config", "shear_alpha", [0.1]),
    ("--config", "name", [1, 2]),
    ("--config", "name", 5),
    ("--spec", "name", 5),
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


@pytest.mark.parametrize("option", ["--config", "--spec"])
def test_cli_oversize_json_integer_exits_2(option, tmp_path):
    # JSON reads 1 followed by 400 zeros as an exact int that no float holds
    path = tmp_path / "in.json"
    path.write_text('{"rotor_diameter": 1' + "0" * 400 + ', "rated_power": 2000}')
    result = CliRunner().invoke(main, ["generate", option, str(path),
                                       "--out", str(tmp_path / "c.csv")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ValueError:")
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert "rotor_diameter" in result.stderr
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("option", ["--config", "--spec"])
def test_cli_json_integer_past_the_digit_limit_exits_2(option, tmp_path):
    # 5001 digits: more than int() converts from a string by default (4300)
    path = tmp_path / "in.json"
    path.write_text('{"rotor_diameter": 1' + "0" * 5000 + ', "rated_power": 2000}')
    result = CliRunner().invoke(main, ["generate", option, str(path),
                                       "--out", str(tmp_path / "c.csv")])
    # a --spec file breaks a rule of TurbineSpec and is named; --config values
    # are checked only once merged with the flags, so no file is named
    named = f"{path}: " if option == "--spec" else ""
    assert result.exit_code == 2, result.output
    assert _one_error_line(result) == (
        f"error: ValueError: {named}turbine: rotor_diameter must be finite, got inf")
    assert not (tmp_path / "c.csv").exists()


def test_oversize_integers_rejected_naming_the_field():
    with pytest.raises(ValueError, match="cut_out must be finite, got an integer too large"):
        TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=10 ** 400))
    with pytest.raises(ValueError, match="^rho must be finite, got an integer too large"):
        EnvironmentConditions(rho=-10 ** 400)


@pytest.mark.parametrize("key,value", [
    ("v_max", "40"), ("dv", True), ("cp_model", 5)])
def test_synthesize_rejects_wrong_typed_settings(key, value):
    # the library call gets the same check a --config file gets
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0)
    with pytest.raises(ValueError, match=f"^{key} must be"):
        synthesize(spec, **{key: value})


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
    assert _one_error_line(result).startswith(f"error: ValueError: {path}: expected")
    assert result.stderr.count(str(path)) == 1
    assert not (tmp_path / "c.csv").exists()


_CUT_SHORT = (b'{"rotor_diameter": 80, ', "Expecting property name enclosed in double quotes")
_NOT_UTF8 = (b'{"rotor_diameter": 80, "name": "\xff"}', "not UTF-8 text: invalid start byte")


@pytest.mark.parametrize("option, content, message", [
    ("--config", *_CUT_SHORT), ("--config", *_NOT_UTF8),
    ("--spec", *_CUT_SHORT), ("--spec", *_NOT_UTF8),
    # a spec that parses but breaks a rule of TurbineSpec; as --config the
    # --diameter flag would override it
    ("--spec", b'{"rotor_diameter": -5, "rated_power": 2000}',
     "turbine: rotor_diameter must be > 0, got -5"),
], ids=["--config-cut-short", "--config-not-utf8", "--spec-cut-short", "--spec-not-utf8",
        "--spec-rule"])
def test_cli_json_that_does_not_parse_names_the_file(option, content, message, tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    result = CliRunner().invoke(main, ["generate", "--diameter", "80",
                                       "--rated-power", "2000", option, str(path),
                                       "--out", str(tmp_path / "c.csv")])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith(f"error: ValueError: {path}: {message}")
    assert result.stderr.count(str(path)) == 1
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


def _os_error_line(code: int, path) -> str:
    return f"error: {type(OSError(code, '')).__name__}: [Errno {code}] {os.strerror(code)}: '{path}'"


def test_generate_sidecar_that_is_a_directory_writes_no_curve(tmp_path):
    # the curve CSV would be written first, then the sidecar write would fail
    (tmp_path / "x.json").mkdir()
    result = CliRunner().invoke(main, ["generate", "--diameter", "80", "--rated-power", "2000",
                                       "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result) == _os_error_line(errno.EISDIR, tmp_path / "x.json")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("parent", ["missing", "file"])
def test_validate_csv_out_that_cannot_be_written_writes_no_report(parent, tmp_path):
    # the report JSON would be written first, then the summary CSV write would fail
    fleet = tmp_path / "fleet"
    fleet.mkdir()
    assert CliRunner().invoke(main, ["generate", "--diameter", "80", "--rated-power", "2000",
                                     "--out", str(fleet / "t.csv")]).exit_code == 0
    (tmp_path / "file").touch()
    out_csv = tmp_path / parent / "s.csv"
    result = CliRunner().invoke(main, ["validate", "--input-dir", str(fleet),
                                       "--out-csv", str(out_csv)])
    assert result.exit_code == 2, result.output
    code = errno.ENOENT if parent == "missing" else errno.ENOTDIR
    assert _one_error_line(result) == _os_error_line(code, out_csv)
    assert sorted(p.name for p in fleet.iterdir()) == ["t.csv", "t.json"]


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


@pytest.mark.parametrize("betas", ["nan", "inf", "-inf", "0,nan"])
def test_cp_table_non_finite_pitch_exits_2(betas):
    result = CliRunner().invoke(main, ["cp-table", "--betas", betas])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith("error: ValueError: pitch angle beta")
    assert result.stdout == ""


@pytest.mark.parametrize("flags, model", [
    (["--betas=-1"], "dekooning2013"),                       # b**3 + 1 = 0
    (["--model", "dai2016", "--betas=-3.5"], "dai2016"),     # the same at offset 2.5
    (["--model", "slootweg2003", "--betas=-2"], "slootweg2003"),  # b**2.14 is complex
])
def test_cp_table_pitch_outside_the_real_family_exits_2(flags, model):
    result = CliRunner().invoke(main, ["cp-table", *flags])
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith(
        f"error: ValueError: {model}: cp is not real and finite at pitch")
    assert result.stdout == ""


def test_cp_table_bad_pitch_of_a_later_model_writes_nothing(tmp_path):
    # dekooning2013 follows dai2016, whose blocks are fine: every (model,
    # pitch) is checked before the first row is written
    out = tmp_path / "t.csv"
    for args in ([], ["--out", str(out)]):
        result = CliRunner().invoke(main, ["cp-table", "--betas", "0,-1", *args])
        assert result.exit_code == 2, result.output
        assert _one_error_line(result).startswith("error: ValueError: dekooning2013: ")
        assert result.stdout == ""
    assert not out.exists()


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


def test_cli_tiny_rotor_exits_2_naming_the_fits(tmp_path):
    result = CliRunner().invoke(main, ["generate", "--diameter", "3", "--rated-power", "5",
                                       "--out", str(tmp_path / "c.csv")])
    assert result.exit_code == 2, result.output
    line = _one_error_line(result)
    assert "rotation-speed fits at rotor_diameter 3.0 m" in line
    assert not (tmp_path / "c.csv").exists()


def _measured_dir(tmp_path, rows: str):
    """A validate input directory: one generated spec and a curve CSV whose
    rows after the header are ``rows``."""
    assert CliRunner().invoke(main, ["generate", "--diameter", "80",
                                     "--rated-power", "2000", "--out",
                                     str(tmp_path / "t.csv")]).exit_code == 0
    (tmp_path / "t.csv").write_text("wind_speed_ms,power_kw\n" + rows)
    return tmp_path


def _validate(input_dir):
    return CliRunner().invoke(main, ["validate", "--input-dir", str(input_dir)])


def _rows(power) -> str:
    return "".join(f"{v},{p}\n" for v, p in zip(range(26), power))


def test_validate_one_field_row_exits_2(tmp_path):
    result = _validate(_measured_dir(tmp_path, _rows([0.0] * 10) + "5\n"))
    assert result.exit_code == 2, result.output
    line = _one_error_line(result)
    assert line.startswith("error: ValueError:")
    assert "t.csv: line 12 has 1 fields, expected 2" in line
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_validate_non_finite_power_exits_2(bad, tmp_path):
    power = [0.0] * 5 + [100.0 * i for i in range(1, 21)] + [2000.0]
    power[12] = bad
    result = _validate(_measured_dir(tmp_path, _rows(power)))
    assert result.exit_code == 2, result.output
    assert _one_error_line(result) == (f"error: ValueError: {tmp_path / 't.csv'}: "
                                       "powers must be finite")
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("row", ["0.2,abc", "x,5", ","])
def test_validate_non_number_field_names_the_file_and_line(row, tmp_path):
    result = _validate(_measured_dir(tmp_path, _rows([0.0] * 10) + row + "\n"))
    assert result.exit_code == 2, result.output
    assert _one_error_line(result) == (f"error: ValueError: {tmp_path / 't.csv'}: line 12 "
                                       f"holds a field that is not a number: {row!r}")
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("rows", [1, 1200])
def test_validate_curve_that_is_not_utf8_names_the_file(rows, tmp_path):
    # byte 0xff in the last row: in the header's read buffer, or past it
    fleet = _measured_dir(tmp_path, "")
    text = "wind_speed_ms,power_kw\n" + "".join(f"{i},0\n" for i in range(rows))
    (fleet / "t.csv").write_bytes(text.encode()[:-1] + b"\xff\n")
    result = _validate(fleet)
    assert result.exit_code == 2, result.output
    assert _one_error_line(result) == (f"error: ValueError: {fleet / 't.csv'}: "
                                       "not UTF-8 text: invalid start byte")
    assert not (fleet / "summary.csv").exists()


@pytest.mark.parametrize("spec, message", [
    (b'{"rotor_diameter": -5, "rated_power": 2000}', "turbine: rotor_diameter must be > 0, got -5"),
    (b'{"rotor_diameter": 80, ', "Expecting property name enclosed in double quotes"),
    (b'{"rotor_diameter": 80, "name": "\xff"}', "not UTF-8 text: invalid start byte"),
])
def test_validate_bad_spec_json_names_the_file(spec, message, tmp_path):
    # a spec that breaks a rule of TurbineSpec, one cut short and one that is
    # not UTF-8, beside a good pair; the message names the file once
    fleet = _measured_dir(tmp_path, _rows([0.0] * 26))
    (fleet / "bad.csv").write_bytes((fleet / "t.csv").read_bytes())
    (fleet / "bad.json").write_bytes(spec)
    result = _validate(fleet)
    assert result.exit_code == 2, result.output
    assert _one_error_line(result).startswith(
        f"error: ValueError: {fleet / 'bad.json'}: {message}")
    assert not (fleet / "summary.csv").exists()


@pytest.mark.parametrize("wind", [[-1.0, 0.0, 1.0, 2.0], [1.0, 2.0, 3.0, math.inf]])
def test_measured_wind_must_be_finite_and_non_negative(wind):
    with pytest.raises(ValueError, match="wind speeds must be finite and >= 0"):
        MeasuredCurve(TurbineSpec(), wind, [0.0] * 4)


def test_validate_overflowing_error_exits_3(tmp_path):
    result = _validate(_measured_dir(tmp_path, _rows([1e308] * 26)))
    assert result.exit_code == 3, result.output
    assert _one_error_line(result).startswith("error: NonFiniteResult:")
    assert "RMSE at TI 0 is not finite" in result.stderr
    assert not (tmp_path / "summary.csv").exists()
    assert not (tmp_path / "report.json").exists()
