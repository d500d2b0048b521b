import numpy as np
import pytest

from windcurve import (EnvironmentConditions, MeasuredCurve, TurbineSpec,
                       get_parameterisation, ideal_curve, match_over_ti, scale_cp,
                       synthesize)
from windcurve import cp_models, curve_engine, synthesis, validation


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
        manual = apply_shear_veer(manual, reference_spec, 0.15, 0.4)
        manual = apply_turbulence(manual, 0.08, cut_out=25.0)
        np.testing.assert_array_equal(auto.power, manual.power)

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


# The module globals through which the pipeline calls its stages.  The
# benchmark's tracer (perfbench/wcbench/tracing.py) rebinds them at run time,
# so a stage captured at import time or called under another name would run
# untraced.
STAGE_GLOBALS = (
    (synthesis, "complete_spec"), (synthesis, "scale_cp"), (synthesis, "ideal_curve"),
    (synthesis, "apply_shear_veer"), (synthesis, "apply_turbulence"),
    (cp_models, "lambda_opt"),
    (validation, "synthesize"), (validation, "complete_spec"),
    (validation, "turbulent_power"),
)


def test_stages_are_called_through_their_module_globals(reference_spec, monkeypatch):
    env = EnvironmentConditions(ti=0.08, shear_alpha=0.15, veer_rate=0.1)
    curve, _ = synthesize(reference_spec, env)
    wind = np.arange(0.0, 30.5, 0.5)
    measured = MeasuredCurve(reference_spec, wind, np.interp(wind, curve.wind_grid, curve.power))
    called = set()

    def counted(name, stage):
        def wrapper(*args, **kwargs):
            called.add(name)
            return stage(*args, **kwargs)
        return wrapper

    for module, attr in STAGE_GLOBALS:
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    synthesis_stages = {"synthesis.complete_spec", "synthesis.scale_cp",
                        "synthesis.ideal_curve", "synthesis.apply_turbulence",
                        "cp_models.lambda_opt"}

    synthesize(reference_spec, env)
    assert called == synthesis_stages | {"synthesis.apply_shear_veer"}
    called.clear()
    match_over_ti(measured)
    assert called == synthesis_stages | {"validation.synthesize", "validation.complete_spec",
                                         "validation.turbulent_power"}


@pytest.mark.parametrize("env", [None, EnvironmentConditions(shear_alpha=0.2, veer_rate=0.3)])
def test_synthesis_tests_its_grid_once(reference_spec, monkeypatch, env):
    # ideal_curve builds the one curve whose grid is tested; the environment
    # stages put their values on it with with_power
    built = []
    test_grid = curve_engine.PowerCurve.__post_init__
    monkeypatch.setattr(curve_engine.PowerCurve, "__post_init__",
                        lambda curve: built.append(curve) or test_grid(curve))
    curve, _ = synthesize(reference_spec, env)
    assert len(built) == 1 and curve.wind_grid is built[0].wind_grid


class _NumpyWithout:
    """numpy as a module sees it, except that looking up one of names raises."""

    def __init__(self, *names):
        self.names = names

    def __getattr__(self, attr):
        if attr in self.names:
            raise AssertionError(f"np.{attr} looked up on the synthesis path")
        return getattr(np, attr)


def test_curve_engine_calls_no_clip_or_diff(reference_spec, monkeypatch):
    # rotor_speed clamps with np.minimum and np.maximum, and PowerCurve takes
    # its steps by slicing: np.clip and np.diff are Python wrappers that cost
    # a few microseconds per call on every synthesis, laminar or not
    env = (EnvironmentConditions(shear_alpha=0.2, veer_rate=0.3),
           EnvironmentConditions(ti=0.05))
    want = [synthesize(reference_spec, e)[0].power for e in env]
    monkeypatch.setattr(curve_engine, "np", _NumpyWithout("clip", "diff"))
    for e, power in zip(env, want):
        assert synthesize(reference_spec, e)[0].power.tobytes() == power.tobytes()
