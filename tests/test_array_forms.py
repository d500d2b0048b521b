"""The scalar and array forms of each formula are one implementation."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windcurve import (REGISTRY, TurbineSpec, cp_general_array, raw_power,
                       rotor_speed, tsr)
from windcurve.cli import CONFIG_KEYS, main
from windcurve.curve_engine import RAD_S_TO_RPM

VS = np.linspace(0.5, 30.0, 60)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_cp_scalar_equals_array_bitwise(name):
    # a one-element call gives bit for bit the value the array call gives there
    p = REGISTRY[name]
    lams = np.linspace(0.5, 25.0, 50)
    vec = cp_general_array(lams, 0.0, p)
    for lam, v in zip(lams, vec):
        assert cp_general_array(np.array([lam]), 0.0, p)[0] == v


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), 30.0])
def test_cp_scalar_raises_where_array_masks(lam):
    p = REGISTRY["heier2014"]
    assert cp_general_array(np.array([lam]), 0.0, p)[0] == 0.0


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_infinite_lambda_is_zero_without_a_warning(name):
    # c8 * inf is nan, with a RuntimeWarning, in the sets whose c8 is 0; the
    # other points outside the family's domain divide by zero or overflow
    p = REGISTRY[name]
    outside = [np.inf, 0.0, -1.0, np.nan, -np.inf, 1e300]
    # a positive lambda at a pitch b where lambda + c9 * b < 0 (c9 = 0: none)
    b = -0.5 if p.c9 > 0 else 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp = cp_general_array(outside, 0, p)
        shifted = cp_general_array([0.5 * abs(p.c9 * b)], b - p.beta_offset, p)
        tiny = cp_general_array([1e-300, 5e-324], 0, p)
    # exactly +0.0, not -0.0
    assert cp.tobytes() == np.zeros(len(outside)).tobytes()
    assert shifted.tobytes() == np.zeros(1).tobytes()
    # inside the domain, where 1/lambda may overflow: 0 where c8 is 0 and the
    # pitch is not shifted, about c8 * lambda or the family at 2.5 deg otherwise
    assert np.isfinite(tiny).all() and (tiny >= 0.0).all()


def test_chain_arrays_match_scalars(reference_spec, reference_model):
    omega = rotor_speed(VS, reference_spec, reference_model.lambda_opt)
    lam = tsr(VS, omega, 80.0)
    power = raw_power(VS, 0.4, 1.225, 80.0)
    for i, v in enumerate(VS):
        assert omega[i] == rotor_speed(float(v), reference_spec, reference_model.lambda_opt)
        assert lam[i] == tsr(float(v), omega[i], 80.0)
        assert power[i] == raw_power(float(v), 0.4, 1.225, 80.0)


@given(st.floats(min_value=20.0, max_value=170.0), st.floats(min_value=2.0, max_value=12.0),
       st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.floats(min_value=0.0, max_value=40.0), max_size=20))
@settings(max_examples=200, deadline=None)
def test_rotor_speed_is_np_clip_bit_for_bit(d, lambda_opt, low, high, speeds):
    # limits between the tracking speeds of 0 and 40 m/s, so the speeds span
    # both clamps; the scalar form gives the same np.float64 as the array form
    vs = np.array([0.0, 40.0, *speeds])
    tracking = lambda_opt * vs / (d / 2.0) * RAD_S_TO_RPM
    omega_min, omega_max = sorted((low * tracking[1], high * tracking[1]))
    spec = TurbineSpec(rotor_diameter=d, rated_power=2000.0, omega_min=omega_min,
                       omega_max=omega_max)
    want = np.clip(tracking, omega_min, omega_max)
    assert rotor_speed(vs, spec, lambda_opt).tobytes() == want.tobytes()
    for v, w in zip(vs.tolist(), want):
        got = rotor_speed(v, spec, lambda_opt)
        assert type(got) is np.float64 and got.tobytes() == w.tobytes()


def test_tsr_array_with_a_zero_speed_raises():
    with pytest.raises(ZeroDivisionError):
        tsr(np.array([5.0, 0.0]), np.array([10.0, 10.0]), 80.0)


@st.composite
def run_records(draw) -> dict:
    """A valid flat run record: the two mandatory fields plus a random subset
    of the other keys; shear and veer only come with a hub height."""
    record = draw(st.fixed_dictionaries(
        {"rotor_diameter": st.floats(40.0, 150.0),
         "rated_power": st.floats(500.0, 5000.0)},
        optional={"name": st.text("abcxyz-_0123", min_size=1, max_size=8),
                  "cut_in": st.floats(0.0, 5.0), "cut_out": st.floats(20.0, 30.0),
                  "cp_max": st.floats(0.3, 0.59),
                  "cp_model": st.sampled_from(sorted(REGISTRY)),
                  "ti": st.floats(0.0, 0.15), "rho": st.floats(0.95, 1.4),
                  "v_max": st.sampled_from([30.0, 35.0]),
                  "dv": st.sampled_from([0.05, 0.1])}))
    if draw(st.booleans()):
        record.update(omega_min=draw(st.floats(3.0, 12.0)),
                      omega_max=draw(st.floats(15.0, 40.0)))
    if draw(st.booleans()):
        record["hub_height"] = record["rotor_diameter"] / 2 + draw(st.floats(5.0, 60.0))
        record.update(draw(st.fixed_dictionaries(
            {}, optional={"shear_alpha": st.floats(0.0, 0.4),
                          "veer_rate": st.floats(0.0, 0.5)})))
    return record


class TestRunConfig:
    flat = {"name": "t", "rotor_diameter": 90.0, "rated_power": 2500.0,
            "hub_height": 100.0, "ti": 0.08, "shear_alpha": 0.2, "dv": 0.1}

    @settings(max_examples=25, deadline=None)
    @given(run_records())
    # many blocks of turbulence taps on a fine grid at high TI
    @example({"rotor_diameter": 80.0, "rated_power": 2000.0, "ti": 0.15, "dv": 0.01})
    # a laminar sheared curve
    @example({"rotor_diameter": 80.0, "rated_power": 2000.0, "hub_height": 100.0,
              "shear_alpha": 0.3, "veer_rate": 0.4})
    # a production window that reaches the grid's end, v_max
    @example({"rotor_diameter": 80.0, "rated_power": 2000.0, "cut_out": 40.0, "ti": 0.1})
    def test_sidecar_holds_the_record_and_replays_it(self, record):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "run.json").write_text(json.dumps(record))
            for config, out in (("run.json", "curve.csv"), ("curve.json", "replay.csv")):
                result = CliRunner().invoke(main, ["generate", "--config", str(tmp / config),
                                                   "--out", str(tmp / out)])
                assert result.exit_code == 0, result.output
                assert result.stderr == ""
            sidecar = json.loads((tmp / "curve.json").read_text())["config"]
            assert tuple(sidecar) == CONFIG_KEYS
            assert {k: sidecar[k] for k in record} == record
            assert (tmp / "curve.csv").read_bytes() == (tmp / "replay.csv").read_bytes()

    def test_config_keys_are_the_documented_ones(self):
        assert CONFIG_KEYS == (
            "name", "rotor_diameter", "rated_power", "cut_in", "cut_out",
            "omega_min", "omega_max", "cp_max", "hub_height", "cp_model",
            "ti", "rho", "shear_alpha", "veer_rate", "v_max", "dv")

    @pytest.mark.parametrize("command", [
        ["generate"], ["sweep", "--param", "ti", "--values", "0.05"]])
    def test_unknown_config_key_exits_2(self, command, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**self.flat, "tip_speed": 8}))
        result = CliRunner().invoke(main, [*command, "--config", str(config),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert result.stderr == f"error: ValueError: {config}: unknown config keys: tip_speed\n"
