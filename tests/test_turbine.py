import dataclasses
import json
import warnings

import pytest

from windcurve import (BETZ_LIMIT, MissingMandatoryField, TurbineSpec,
                       complete_spec, default_rotation_speeds, spec_from_json)

# Frozen oracle values: independent high-precision evaluation of the
# rpm-vs-diameter power-law fits at D = 80 m.
OMEGA_MIN_D80 = 8.776105129
OMEGA_MAX_D80 = 18.178134783


def _filled(**kwargs) -> dict:
    """Values complete_spec fills into a spec holding only kwargs."""
    _, report = complete_spec(TurbineSpec(**kwargs))
    return {f["field"]: f["value"] for f in report}


class TestDefaults:
    def test_default_cp_max(self):
        cp_max = _filled(rotor_diameter=80, rated_power=2000)["cp_max"]
        assert cp_max == 0.44
        assert cp_max <= BETZ_LIMIT
        assert 0.4 <= cp_max <= 0.5

    def test_default_cut_speeds(self):
        filled = _filled(rotor_diameter=80, rated_power=2000)
        cut_in, cut_out = filled["cut_in"], filled["cut_out"]
        assert (cut_in, cut_out) == (3.0, 25.0)
        assert cut_in < cut_out
        assert 15.0 <= cut_out <= 30.0

    def test_rotation_speed_fit_at_unit_diameter(self):
        # the power-law factor is 1 at D=1 (and the fits legitimately cross)
        w_min, _ = default_rotation_speeds(1.0)
        assert w_min == pytest.approx(1046.558, abs=1e-9)

    def test_rotation_speed_fit_at_80m(self):
        w_min, w_max = default_rotation_speeds(80.0)
        assert w_min == pytest.approx(OMEGA_MIN_D80, abs=1e-6)
        assert w_max == pytest.approx(OMEGA_MAX_D80, abs=1e-6)

    def test_fits_decrease_with_diameter(self):
        diameters = [20.0, 40.0, 80.0, 120.0, 160.0]
        mins, maxs = zip(*(default_rotation_speeds(d) for d in diameters))
        assert all(a > b for a, b in zip(mins, mins[1:]))
        assert all(a > b for a, b in zip(maxs, maxs[1:]))

    def test_crossing_fits_are_rejected_when_completing(self):
        # the two fitted curves cross below roughly 4.7 m diameter
        w_min, w_max = default_rotation_speeds(3.0)
        assert w_min > w_max
        with pytest.raises(ValueError, match=r"rotation-speed fits at rotor_diameter 3\.0 m"):
            complete_spec(TurbineSpec(rotor_diameter=3.0, rated_power=5.0))
        with pytest.raises(ValueError, match="rotation-speed fits"):
            complete_spec(TurbineSpec(rotor_diameter=80, rated_power=2000, omega_min=20))

    def test_crossing_fits_with_a_valid_given_limit_complete_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec, _ = complete_spec(TurbineSpec(rotor_diameter=3.0, rated_power=5.0,
                                                omega_max=2000.0))
        assert spec.omega_min == pytest.approx(1046.558 * 3.0 ** -1.0911)
        assert spec.omega_max == 2000.0

    def test_bad_diameter(self):
        with pytest.raises(ValueError):
            default_rotation_speeds(0.0)


class TestCompleteSpec:
    def test_fills_everything_from_two_numbers(self):
        spec, report = complete_spec(TurbineSpec(rotor_diameter=80, rated_power=2000))
        assert spec.cut_in == 3.0
        assert spec.cut_out == 25.0
        assert spec.cp_max == 0.44
        assert spec.omega_min == pytest.approx(OMEGA_MIN_D80, abs=1e-6)
        assert spec.omega_max == pytest.approx(OMEGA_MAX_D80, abs=1e-6)
        assert spec.is_complete()
        filled = {f["field"]: f["rule"] for f in report}
        assert set(filled) == {"cut_in", "cut_out", "cp_max", "omega_min", "omega_max"}
        assert all(rule for rule in filled.values())

    def test_complete_spec_is_idempotent(self):
        once, report1 = complete_spec(TurbineSpec(rotor_diameter=60, rated_power=1500))
        twice, report2 = complete_spec(once)
        assert once == twice
        assert report1 and not report2

    def test_fully_specified_spec_unchanged(self, reference_spec):
        spec, report = complete_spec(reference_spec)
        assert spec is reference_spec
        assert not report

    def test_missing_mandatory_fields(self):
        with pytest.raises(MissingMandatoryField):
            complete_spec(TurbineSpec(rated_power=2000))
        with pytest.raises(MissingMandatoryField):
            complete_spec(TurbineSpec(rotor_diameter=80))

    def test_partial_specs_keep_given_values(self):
        spec, report = complete_spec(
            TurbineSpec(rotor_diameter=80, rated_power=2000, cut_out=22.0,
                        omega_max=20.0))
        assert spec.cut_out == 22.0
        assert spec.omega_max == 20.0
        assert spec.omega_min == pytest.approx(OMEGA_MIN_D80, abs=1e-6)
        assert {f["field"] for f in report} == {"cut_in", "cp_max", "omega_min"}


class TestSpecInvariants:
    def test_cut_speeds_ordered(self):
        with pytest.raises(ValueError):
            TurbineSpec(rotor_diameter=80, rated_power=2000, cut_in=25, cut_out=20)

    def test_omega_ordered(self):
        with pytest.raises(ValueError):
            TurbineSpec(rotor_diameter=80, rated_power=2000, omega_min=30, omega_max=10)

    def test_hub_must_clear_rotor(self):
        with pytest.raises(ValueError):
            TurbineSpec(rotor_diameter=80, rated_power=2000, hub_height=40.0)
        TurbineSpec(rotor_diameter=80, rated_power=2000, hub_height=40.001)

    def test_cp_max_band(self):
        with pytest.raises(ValueError):
            TurbineSpec(rotor_diameter=80, rated_power=2000, cp_max=0.6)
        with pytest.raises(ValueError):
            TurbineSpec(rotor_diameter=80, rated_power=2000, cp_max=0.0)

    def test_positive_geometry(self):
        with pytest.raises(ValueError):
            TurbineSpec(rotor_diameter=-1, rated_power=2000)
        with pytest.raises(ValueError):
            TurbineSpec(rotor_diameter=80, rated_power=0)


class TestIngestion:
    def test_json_record(self):
        spec = spec_from_json({"name": "x", "rotor_diameter": 80,
                               "rated_power": 2000, "cp_max": 0.45})
        assert spec.rotor_diameter == 80
        assert spec.cp_max == 0.45

    def test_json_sidecar_wrapper(self):
        spec = spec_from_json({"config": {"name": "x", "rotor_diameter": 70,
                                          "rated_power": 1500, "ti": 0.05},
                               "model_version": "0.1.0"})
        assert spec.rotor_diameter == 70
        assert spec.name == "x"

    def test_json_defaults_wrapper(self):
        spec = spec_from_json({"spec": {"name": "d", "rotor_diameter": 90,
                                        "rated_power": 2500, "cut_in": 4.0},
                               "defaults_report": []})
        assert (spec.name, spec.rotor_diameter, spec.cut_in) == ("d", 90, 4.0)

    def test_completed_specs_serialise(self, defaults_spec):
        # asdict gives JSON-ready plain values
        payload = json.loads(json.dumps(dataclasses.asdict(defaults_spec)))
        assert payload["cp_max"] == 0.44
        round_tripped = spec_from_json(payload)
        assert round_tripped == dataclasses.replace(defaults_spec)
