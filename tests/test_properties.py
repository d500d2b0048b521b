"""Property-based checks of the package invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from windcurve import (EnvironmentConditions, NonFiniteResult, TurbineSpec,
                       band_areas, complete_spec, cp_general, cp_general_array,
                       get_parameterisation, ideal_curve, rews, scale_cp,
                       synthesize)
from windcurve.cp_models import BETZ_LIMIT, REGISTRY, CpParameterisation
from windcurve.curve_engine import GRID_EPS
from windcurve.environment import kernel_weights

from oracles import convolve_reference

finite = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
small = st.floats(min_value=-0.1, max_value=0.1, allow_nan=False)
registry_names = st.sampled_from(sorted(REGISTRY))


@st.composite
def parameterisations(draw):
    return CpParameterisation(
        name="fuzz", c1=draw(finite), c2=draw(finite), c3=draw(finite),
        c4=draw(finite), c5=draw(finite), c6=draw(finite),
        c7=draw(st.floats(min_value=0.0, max_value=60.0)),
        c8=draw(small), c9=draw(small), c10=draw(small),
        x=draw(st.floats(min_value=0.5, max_value=3.0)))


@given(parameterisations(),
       st.floats(min_value=1e-3, max_value=40.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_cp_general_never_negative(p, lam, beta):
    try:
        cp = cp_general(lam, beta, p)
    except NonFiniteResult:
        return
    assert cp >= 0.0
    assert np.isfinite(cp)


@given(registry_names, st.lists(st.floats(min_value=0.1, max_value=35.0),
                                min_size=1, max_size=20))
def test_array_form_matches_scalar_form(name, lams):
    p = REGISTRY[name]
    vec = cp_general_array(np.array(lams), 0.0, p)
    for lam, v in zip(lams, vec):
        try:
            expect = cp_general(lam, 0.0, p)
        except NonFiniteResult:
            expect = 0.0
        assert v == pytest.approx(expect, abs=1e-14)


@given(registry_names,
       st.floats(min_value=0.01, max_value=BETZ_LIMIT))
def test_scaled_peak_hits_cp_max(name, cp_max):
    model = scale_cp(REGISTRY[name], cp_max)
    assert model.cp(model.lambda_opt) == pytest.approx(cp_max, abs=1e-9)
    grid = np.linspace(0.5, 25.0, 2451)
    assert model.cp_array(grid).max() <= cp_max + 1e-9


@given(st.floats(min_value=5.0, max_value=200.0),
       st.floats(min_value=1.01, max_value=4.0),
       st.integers(min_value=1, max_value=300))
def test_band_areas_partition_the_disc(diameter, hub_factor, n):
    bands = band_areas(diameter, hub_factor * diameter / 2.0, n)
    disc = np.pi * diameter ** 2 / 4.0
    assert abs(bands.total_area - disc) / disc < 1e-9
    np.testing.assert_allclose(bands.areas, bands.areas[::-1], rtol=1e-9)


@given(st.floats(min_value=0.0, max_value=40.0),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=50)
def test_rews_uniform_flow_identity(u_hub, n):
    spec = TurbineSpec(rotor_diameter=90.0, rated_power=3000.0, hub_height=100.0)
    bands = band_areas(90.0, 100.0, n)
    assert rews(u_hub, spec, 0.0, 0.0, bands) == pytest.approx(u_hub, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=0.74),
       st.floats(min_value=0.001, max_value=0.75),
       st.floats(min_value=0.0, max_value=0.4))
@settings(max_examples=50)
def test_rews_decreases_with_veer(veer_lo, delta, alpha):
    veer_hi = veer_lo + delta
    assume(veer_hi <= 0.75)
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)
    bands = band_areas(80.0, 60.0, 100)
    lo = rews(10.0, spec, alpha, veer_lo, bands)
    hi = rews(10.0, spec, alpha, veer_hi, bands)
    assert hi < lo


@given(st.floats(min_value=20.0, max_value=150.0),
       st.floats(min_value=500.0, max_value=9000.0),
       st.booleans(), st.booleans(), st.booleans())
def test_complete_spec_idempotent(diameter, power, with_cuts, with_omega, with_cp):
    kwargs = dict(rotor_diameter=diameter, rated_power=power)
    if with_cuts:
        kwargs.update(cut_in=3.2, cut_out=24.0)
    if with_omega:
        kwargs.update(omega_min=7.0, omega_max=19.0)
    if with_cp:
        kwargs.update(cp_max=0.47)
    once, report1 = complete_spec(TurbineSpec(**kwargs))
    twice, report2 = complete_spec(once)
    assert once == twice
    assert not report2.filled
    assert once.is_complete()
    # every filled field names exactly one rule
    assert all(f.rule for f in report1.filled)
    filled_fields = [f.field for f in report1.filled]
    assert len(filled_fields) == len(set(filled_fields))


@given(st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.0, max_value=40.0))
@settings(max_examples=50)
def test_kernel_weights_normalised(sigma, centre):
    grid = np.linspace(0.0, 80.0, 1601)
    w = kernel_weights(grid - centre, sigma)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(w >= 0.0)


@given(registry_names)
def test_completed_random_specs_validate(name):
    spec, _ = complete_spec(TurbineSpec(rotor_diameter=75.0, rated_power=1800.0))
    # reconstructing from its own dict must not trip any invariant
    dataclasses.replace(spec)
    assert spec.cut_in < spec.cut_out
    assert spec.omega_min <= spec.omega_max


@given(st.floats(min_value=20.0, max_value=170.0),
       st.floats(min_value=300.0, max_value=9000.0),
       st.floats(min_value=20.0, max_value=30.0),
       st.floats(min_value=0.0, max_value=0.15, exclude_min=True),
       registry_names)
@settings(max_examples=30, deadline=None)
def test_turbulence_matches_reference_convolution(diameter, power, cut_out, ti, name):
    spec, _ = complete_spec(TurbineSpec(rotor_diameter=diameter,
                                        rated_power=power, cut_out=cut_out))
    curve, _ = synthesize(spec, EnvironmentConditions(ti=ti), cp_model=name)
    ideal = ideal_curve(spec, scale_cp(get_parameterisation(name), spec.cp_max))
    oracle = convolve_reference(ideal.wind_grid, ideal.power, ti, cut_out)
    np.testing.assert_allclose(curve.power, oracle, rtol=1e-12, atol=1e-9)
    assert np.all(curve.power[curve.wind_grid > cut_out + GRID_EPS] == 0.0)


def _magnitude(lo_exp: float, hi_exp: float):
    """Log-uniform positive floats between 10**lo_exp and 10**hi_exp."""
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda e: 10.0 ** e)


@st.composite
def wide_specs(draw):
    diameter = draw(st.floats(min_value=20.0, max_value=170.0))
    return dict(rotor_diameter=diameter,
                rated_power=draw(st.floats(min_value=300.0, max_value=9000.0)),
                cut_in=draw(st.just(0.0) | st.floats(min_value=0.0, max_value=5.0)),
                cut_out=draw(st.floats(min_value=20.0, max_value=30.0)),
                hub_height=diameter * draw(st.floats(min_value=0.6, max_value=2.0)))


@st.composite
def wide_environments(draw):
    return dict(ti=draw(st.floats(min_value=0.0, max_value=0.15)),
                rho=draw(_magnitude(-1.0, 306.0)),
                shear_alpha=draw(st.just(0.0) | _magnitude(-3.0, 308.0)),
                veer_rate=draw(st.floats(min_value=-0.75, max_value=0.75)))


@given(wide_specs(), wide_environments(), registry_names)
@example(dict(rotor_diameter=80.0, rated_power=2000.0, cut_in=0.0, cut_out=25.0,
              hub_height=90.0),
         dict(ti=0.0, rho=1e306, shear_alpha=0.0, veer_rate=0.0), "dai2016")
@settings(max_examples=30, deadline=None)
@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
def test_synthesized_power_is_finite_and_bounded(spec_kwargs, env_kwargs, name):
    """Any accepted input either fails as a numeric error or gives finite
    power within [0, rated] that is zero past cut-out."""
    spec = TurbineSpec(**spec_kwargs)
    try:
        curve, _ = synthesize(spec, EnvironmentConditions(**env_kwargs), cp_model=name)
    except (NonFiniteResult, ArithmeticError):
        return
    assert np.all(np.isfinite(curve.power))
    assert np.all(curve.power >= 0.0)
    assert np.all(curve.power <= spec.rated_power * (1.0 + 1e-12))
    assert np.all(curve.power[curve.wind_grid > spec.cut_out + GRID_EPS] == 0.0)
