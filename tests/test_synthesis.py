import numpy as np
import pytest

from windcurve import (EnvironmentConditions, TurbineSpec, get_parameterisation,
                       ideal_curve, scale_cp, synthesize)


class TestSynthesize:
    def test_two_numbers_suffice(self):
        curve, report = synthesize(TurbineSpec(rotor_diameter=80.0,
                                               rated_power=2000.0))
        assert curve.power.max() == 2000.0
        assert len(curve.wind_grid) == 801
        assert {d["field"] for d in report} == {
            "cut_in", "cut_out", "cp_max", "omega_min", "omega_max"}

    def test_ti_only_needs_no_hub_height(self):
        spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0)
        curve, _ = synthesize(spec, EnvironmentConditions(ti=0.10))
        assert spec.hub_height is None

    def test_shear_requires_hub_height(self):
        spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0)
        with pytest.raises(ValueError, match="hub_height"):
            synthesize(spec, EnvironmentConditions(shear_alpha=0.2))

    def test_matches_manual_stage_composition(self, reference_spec,
                                              reference_model):
        from windcurve import apply_shear_veer, apply_turbulence
        env = EnvironmentConditions(ti=0.08, rho=1.2, shear_alpha=0.15,
                                    veer_rate=0.4)
        auto, _ = synthesize(reference_spec, env, cp_model="dai2016")
        manual = ideal_curve(reference_spec, reference_model, env.rho)
        manual = apply_shear_veer(manual, reference_spec, 0.15, 0.4, 100)
        manual = apply_turbulence(manual, 0.08, cut_out=25.0)
        np.testing.assert_array_equal(auto.power, manual.power)

    def test_env_order_switch(self, reference_spec):
        env = EnvironmentConditions(ti=0.10, shear_alpha=0.3, veer_rate=0.5)
        first, _ = synthesize(reference_spec, env, env_order="shear_veer,ti")
        second, _ = synthesize(reference_spec, env, env_order="ti,shear_veer")
        # the two stages do not commute, but both leave the hub-gated
        # cut-out untouched
        assert not np.allclose(first.power, second.power, rtol=1e-6)
        i_last_first = int(np.nonzero(first.power)[0][-1])
        i_last_second = int(np.nonzero(second.power)[0][-1])
        assert i_last_first == i_last_second
        assert first.wind_grid[i_last_first] == pytest.approx(25.0)

    def test_invalid_env_order(self, reference_spec):
        with pytest.raises(ValueError, match="env_order"):
            synthesize(reference_spec, env_order="ti")

    def test_zero_cut_in_produces_no_spurious_power(self):
        # just above a zero cut-in the clamped rotor pushes the tip-speed
        # ratio far outside the trusted cp window; power must stay zero
        # rather than spike (the linear tail of some fits would otherwise
        # go positive at huge tip-speed ratios)
        spec, _ = __import__("windcurve").complete_spec(
            TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, cut_in=0.0))
        model = scale_cp(get_parameterisation("thongam2009"), 0.44)
        curve = ideal_curve(spec, model)
        grid = curve.wind_grid
        # omega_min ~ 8.78 rpm: lambda = 36.8 / v > 25 below ~1.47 m/s, and
        # this shape only turns positive once lambda falls under ~13.3
        assert np.all(curve.power[(grid > 0) & (grid <= 1.4)] == 0.0)
        assert np.all(curve.power[(grid >= 3.0) & (grid <= 25.0)] > 0.0)

    def test_custom_grid_propagates(self):
        curve, _ = synthesize(TurbineSpec(rotor_diameter=60.0, rated_power=1000.0),
                              v_max=30.0, dv=0.1)
        assert len(curve.wind_grid) == 301
        assert curve.dv == 0.1
        assert curve.wind_grid[-1] == 30.0
