"""Property-based checks of the package invariants."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from windcurve import (EnvironmentConditions, NonFiniteResult, PowerCurve,
                       TurbineSpec, apply_turbulence, band_areas, complete_spec,
                       cp_general_array, get_parameterisation, ideal_curve,
                       make_wind_grid, rews, scale_cp, synthesize,
                       turbulent_power)
from windcurve.cp_models import BETZ_LIMIT, REGISTRY, CpParameterisation
from windcurve.curve_engine import GRID_EPS
from windcurve.environment import _plateau_extended, _smoothed

from conftest import REFERENCE_KWARGS
from oracles import convolve_reference, cp_direct

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
    cp = cp_general_array(np.array([lam]), beta, p)[0]
    if np.isfinite(cp):
        assert cp >= 0.0


@given(registry_names, st.lists(st.floats(min_value=0.1, max_value=35.0),
                                min_size=1, max_size=20))
def test_array_form_matches_scalar_form(name, lams):
    p = REGISTRY[name]
    vec = cp_general_array(np.array(lams), 0.0, p)
    for lam, v in zip(lams, vec):
        assert v == pytest.approx(cp_direct(lam, 0.0, p), abs=1e-14)


@given(registry_names,
       st.floats(min_value=0.01, max_value=BETZ_LIMIT))
def test_scaled_peak_hits_cp_max(name, cp_max):
    model = scale_cp(REGISTRY[name], cp_max)
    assert model.cp_array(np.array([model.lambda_opt]))[0] == pytest.approx(cp_max, abs=1e-9)
    grid = np.linspace(0.5, 25.0, 2451)
    assert model.cp_array(grid).max() <= cp_max + 1e-9


@given(st.floats(min_value=5.0, max_value=200.0),
       st.integers(min_value=1, max_value=300))
# radius ** 2 (libm pow) and radius * radius round 1 ulp apart at this
# diameter, which left a nonzero chord at the rim.
@example(29.53500699225793, 1)
def test_band_areas_partition_the_disc(diameter, n):
    _, areas = band_areas(diameter, n)
    disc = np.pi * diameter ** 2 / 4.0
    assert abs(areas.sum() - disc) / disc < 1e-9
    np.testing.assert_allclose(areas, areas[::-1], rtol=1e-9)


@given(st.floats(min_value=0.0, max_value=40.0),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=50)
def test_rews_uniform_flow_identity(u_hub, n):
    spec = TurbineSpec(rotor_diameter=90.0, rated_power=3000.0, hub_height=100.0)
    assert rews(u_hub, spec, 0.0, 0.0, n) == pytest.approx(u_hub, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=0.74),
       st.floats(min_value=0.001, max_value=0.75),
       st.floats(min_value=0.0, max_value=0.4))
@settings(max_examples=50)
def test_rews_decreases_with_veer(veer_lo, delta, alpha):
    veer_hi = veer_lo + delta
    assume(veer_hi <= 0.75)
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)
    lo = rews(10.0, spec, alpha, veer_lo)
    hi = rews(10.0, spec, alpha, veer_hi)
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
    assert not report2
    assert once.is_complete()
    # every filled field names exactly one rule
    assert all(f["rule"] for f in report1)
    filled_fields = [f["field"] for f in report1]
    assert len(filled_fields) == len(set(filled_fields))


@given(st.floats(min_value=0.005, max_value=0.3),
       st.floats(min_value=1.0, max_value=5000.0),
       st.floats(min_value=5.0, max_value=35.0))
@settings(max_examples=50)
def test_kernel_weights_normalised(ti, level, step_at):
    grid = make_wind_grid()
    flat = apply_turbulence(PowerCurve(grid, np.full(grid.shape, level)), ti, cut_out=40.0)
    assert np.all(flat.power == level)
    # rows more than 5 sigma from a step see only one side of it
    step = np.where(grid >= step_at, level, 0.0)
    out = apply_turbulence(PowerCurve(grid, step), ti, cut_out=40.0)
    far = np.abs(grid - step_at) > 5.0 * ti * grid
    np.testing.assert_allclose(out.power[far], step[far], rtol=1e-12, atol=0.0)
    assert np.all(out.power >= 0.0)


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


@given(st.floats(min_value=0.005, max_value=0.3),
       st.sampled_from((0.05, 0.01, 0.037)),
       st.floats(min_value=15.0, max_value=35.0))
@example(0.1, 0.05, 25.0)    # 5 sigma at 10 m/s lands exactly on the grid point 5 m/s away
@example(0.021, 0.05, 25.0)  # narrow windows: every block stops at _BLOCK_ROWS rows
@example(0.3, 0.01, 35.0)    # 5 TI > 1: every window, so every rectangle, starts at 0 m/s
@settings(max_examples=20, deadline=None)
def test_windowed_turbulence_matches_reference(ti, dv, cut_out):
    spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=cut_out))
    model = scale_cp(get_parameterisation("dai2016"), spec.cp_max)
    ideal = ideal_curve(spec, model, v_max=dv * round(40.0 / dv), dv=dv)
    out = apply_turbulence(ideal, ti, cut_out=cut_out)
    oracle = convolve_reference(ideal.wind_grid, ideal.power, ti, cut_out)
    np.testing.assert_allclose(out.power, oracle, rtol=1e-12, atol=1e-9)


@given(st.floats(min_value=0.0, max_value=0.3, exclude_min=True),
       st.sampled_from((0.05, 0.01, 0.037)),
       st.floats(min_value=15.0, max_value=35.0))
@example(0.02, 0.05, 25.0)
@settings(max_examples=20, deadline=None)
def test_constant_windows_return_their_value_exactly(ti, dv, cut_out):
    spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=cut_out))
    model = scale_cp(get_parameterisation("dai2016"), spec.cp_max)
    ideal = ideal_curve(spec, model, v_max=dv * round(40.0 / dv), dv=dv)
    out = apply_turbulence(ideal, ti, cut_out=cut_out)
    # the plateau-extended input; past the grid end it keeps its last value
    grid = ideal.wind_grid
    inside = grid <= cut_out + GRID_EPS
    extended = np.where(inside, ideal.power, ideal.power[inside][-1])
    constant = 0
    for i in np.flatnonzero(inside):
        half = int(np.floor(5.0 * ti * grid[i] / dv)) + 2
        window = extended[max(i - half, 0):i + half + 1]
        if np.all(window == window[0]):
            assert out.power[i] == window[0], (i, out.power[i], window[0])
            constant += 1
    assert constant > 0



@given(st.floats(min_value=0.0, max_value=0.3),
       st.sampled_from((0.05, 0.01, 0.037)),
       st.lists(st.floats(min_value=0.0, max_value=45.0), max_size=30),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=10),
       st.randoms(use_true_random=False))
@example(0.0, 0.05, [], [], random.Random(0))
@example(0.3, 0.01, [39.995, 40.0, 40.005], [0, 4000], random.Random(1))
@settings(max_examples=25, deadline=None)
def test_turbulent_power_is_the_interpolated_curve(ti, dv, speeds, points, order):
    spec = TurbineSpec(**REFERENCE_KWARGS)
    model = scale_cp(get_parameterisation("dai2016"), spec.cp_max)
    ideal = ideal_curve(spec, model, v_max=dv * round(40.0 / dv), dv=dv)
    grid = ideal.wind_grid
    # free speeds, grid points, 0, cut-out, v_max and past the grid end,
    # shuffled with some repeated
    wind = [*speeds, *grid[[p % len(grid) for p in points]], 0.0, spec.cut_out,
            grid[-1], grid[-1] + 2.5, *speeds[:3], *speeds[:1]]
    order.shuffle(wind)
    wind = np.array(wind)
    full = apply_turbulence(ideal, ti, cut_out=spec.cut_out).power
    np.testing.assert_array_equal(
        turbulent_power(ideal, ti, wind, cut_out=spec.cut_out),
        np.interp(wind, grid, full))


@given(st.floats(min_value=0.0, max_value=0.3, exclude_min=True),
       st.sampled_from((0.05, 0.01, 0.037)),
       st.floats(min_value=15.0, max_value=35.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(0.119, 0.05, 25.0, 0.3, 0)   # a block of 32 rows x 512 columns, BLOCK_TAPS
@example(0.3, 0.005, 35.0, 0.05, 1)   # each row past about 32.8 m/s is wider than BLOCK_TAPS
@example(0.1, 0.01, 25.0, 1e-3, 2)    # blocks holding one candidate or none
@settings(max_examples=20, deadline=None)
def test_smoothed_rows_do_not_depend_on_the_other_candidates(ti, dv, cut_out, share, seed):
    spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=cut_out))
    model = scale_cp(get_parameterisation("dai2016"), spec.cp_max)
    ideal = ideal_curve(spec, model, v_max=dv * round(40.0 / dv), dv=dv)
    candidates = np.random.default_rng(seed).random(len(ideal.wind_grid)) < share
    rows = np.flatnonzero(candidates)
    np.testing.assert_array_equal(_smoothed(ideal, ti, cut_out, candidates)[rows],
                                  _smoothed(ideal, ti, cut_out, np.ones_like(candidates))[rows])


@given(st.sampled_from((0.05, 0.01, 0.037)),
       st.integers(min_value=-3, max_value=5000),
       st.sampled_from((0.0, 0.5)),
       st.sampled_from((0.0, GRID_EPS / 2, -GRID_EPS / 2)))
@example(0.01, 4000, 0.0, GRID_EPS / 2)   # v_max itself
@example(0.037, -1, 0.5, 0.0)             # below the grid, between -dv and 0
@settings(max_examples=60, deadline=None)
def test_production_window_is_a_grid_prefix(dv, i, between, eps):
    # a cut-out on grid point i, halfway to the next, or GRID_EPS/2 off
    # either; i below 0 or past the end puts it outside the grid
    grid = make_wind_grid(dv * round(40.0 / dv), dv)
    cut_out = (grid[i] if 0 <= i < len(grid) else i * dv) + between * dv + eps
    power = np.arange(len(grid), dtype=float)
    k, extended, plateau = _plateau_extended(PowerCurve(grid, power), cut_out)
    assert k == (grid <= cut_out + GRID_EPS).sum()
    assert np.array_equal(extended[:k], power[:k])
    assert plateau == (power[k - 1] if k else 0.0) and np.all(extended[k:] == plateau)


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


def _allclose_accepts(grid: np.ndarray) -> bool:
    """The uniform-grid test PowerCurve made with np.allclose (atol 1e-8)."""
    steps = np.diff(grid)
    return bool(np.all(steps > 0) and np.allclose(steps, steps[0], rtol=1e-9))


@st.composite
def jittered_grids(draw):
    """Uniform grids with up to three points moved off the grid by about the
    tolerance PowerCurve allows, 1e-8 + 1e-9 * step, then by a few ulps, so
    their steps fall either side of it.  Steps below 1e-8 from 0 keep the
    grid in the binade of the tolerance, where a step can differ from the
    first by exactly the tolerance."""
    n = draw(st.integers(min_value=2, max_value=30))
    step = draw(st.one_of(st.floats(min_value=1e-3, max_value=10.0),
                          st.floats(min_value=1e-10, max_value=1e-8)))
    start = draw(st.one_of(st.just(0.0), st.floats(min_value=-50.0, max_value=50.0)))
    grid = start + step * np.arange(n)
    tol = 1e-8 + 1e-9 * step
    for k in draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=3)):
        moved = grid[k - 1] + step + draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])) * tol
        grid[k] = moved + draw(st.integers(min_value=-4, max_value=4)) * np.spacing(moved)
    return grid


@given(jittered_grids())
@example(np.array([0.0, 5.1670340845325424e-09, 2.0334068174232117e-08]))  # exactly at it
@settings(max_examples=300)
def test_power_curve_accepts_the_grids_allclose_accepts(grid):
    try:
        PowerCurve(grid, np.zeros_like(grid))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _allclose_accepts(grid)
