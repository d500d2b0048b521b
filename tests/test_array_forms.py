"""The scalar and array forms of each formula are one implementation."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from windcurve import (REGISTRY, TurbineSpec, cp_general_array, raw_power, rews,
                       rotor_speed, tsr)
from windcurve.cli import CONFIG_KEYS, RunConfig, main

VS = np.linspace(0.5, 30.0, 60)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_cp_scalar_equals_array_bitwise(name):
    # lambda_opt refines one point at a time on the grid it scanned whole
    p = REGISTRY[name]
    lams = np.linspace(0.5, 25.0, 50)
    vec = cp_general_array(lams, 0.0, p)
    for lam, v in zip(lams, vec):
        assert cp_general_array(np.array([lam]), 0.0, p)[0] == v


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"), 30.0])
def test_cp_scalar_raises_where_array_masks(lam):
    p = REGISTRY["heier2014"]
    assert cp_general_array(np.array([lam]), 0.0, p)[0] == 0.0


def test_chain_arrays_match_scalars(reference_spec, reference_model):
    omega = rotor_speed(VS, reference_spec, reference_model.lambda_opt)
    lam = tsr(VS, omega, 80.0)
    power = raw_power(VS, 0.4, 1.225, 80.0)
    for i, v in enumerate(VS):
        assert omega[i] == rotor_speed(float(v), reference_spec, reference_model.lambda_opt)
        assert lam[i] == tsr(float(v), omega[i], 80.0)
        assert power[i] == raw_power(float(v), 0.4, 1.225, 80.0)


def test_tsr_array_with_a_zero_speed_raises():
    with pytest.raises(ZeroDivisionError):
        tsr(np.array([5.0, 0.0]), np.array([10.0, 10.0]), 80.0)


def test_rews_array_matches_scalar():
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)
    vec = rews(VS, spec, 0.2, 0.3)
    assert [rews(float(u), spec, 0.2, 0.3) for u in VS] == list(vec)
    with pytest.raises(ValueError):
        rews(np.array([1.0, -1.0]), spec, 0.0, 0.0)


class TestRunConfig:
    flat = {"name": "t", "rotor_diameter": 90.0, "rated_power": 2500.0,
            "hub_height": 100.0, "ti": 0.08, "shear_alpha": 0.2, "dv": 0.1}

    def test_flat_round_trip(self):
        cfg = RunConfig.from_flat(self.flat)
        assert cfg.turbine.rotor_diameter == 90.0 and cfg.env.ti == 0.08
        assert tuple(cfg.to_dict()) == CONFIG_KEYS
        assert RunConfig.from_flat(cfg.to_dict()) == cfg

    def test_config_keys_are_the_documented_ones(self):
        assert CONFIG_KEYS == (
            "name", "rotor_diameter", "rated_power", "cut_in", "cut_out",
            "omega_min", "omega_max", "cp_max", "hub_height", "cp_model",
            "ti", "rho", "shear_alpha", "veer_rate", "n_bands", "v_max", "dv",
            "env_order")

    @pytest.mark.parametrize("command", [
        ["generate"], ["sweep", "--param", "ti", "--values", "0.05"]])
    def test_unknown_config_key_exits_2(self, command, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**self.flat, "tip_speed": 8}))
        result = CliRunner().invoke(main, [*command, "--config", str(config),
                                           "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert result.stderr == "error: ValueError: unknown config keys: tip_speed\n"
