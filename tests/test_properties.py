"""Property-based checks of the package invariants."""

import dataclasses
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from windcurve import (EnvironmentConditions, NonFiniteResult, PowerCurve,
                       TurbineSpec, apply_shear_veer, apply_turbulence,
                       complete_spec, cp_general_array, get_parameterisation,
                       ideal_curve, make_wind_grid, rews_factor, scale_cp,
                       synthesize, turbulent_power)
from windcurve.cp_models import (BETZ_LIMIT, LAMBDA_DOMAIN, REGISTRY, CpParameterisation,
                                 lambda_opt)
from windcurve.curve_engine import GRID_EPS, raw_power, rotor_speed, tsr, window_end
from windcurve.environment import N_BANDS, _blocks, _row_plan, _smoothed

from conftest import REFERENCE_KWARGS, run_ids
from oracles import convolve_reference, cp_direct, kernel_half_widths, naive_rews_factor

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


def _cp_every_term(lams: np.ndarray, beta: float, p: CpParameterisation) -> np.ndarray:
    """cp_general_array as the whole formula, every term evaluated: the
    reference for its skipping of the terms that are exact zeros."""
    if not math.isfinite(beta):
        raise ValueError(f"pitch angle beta must be finite, got {beta}")
    lams = np.asarray(lams, dtype=np.float64)
    b = beta + p.beta_offset
    pitch_term = b ** 3 + 1.0
    if (pitch_term == 0.0 or (b < 0.0 and not float(p.x).is_integer())
            or (b == 0.0 and p.x < 0.0)):
        raise ValueError("not real and finite")
    shifted = lams + p.c9 * b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_li = 1.0 / shifted - p.c10 / pitch_term
        li = 1.0 / inv_li
        cp = (p.c1 * (p.c2 * inv_li - p.c3 * b - p.c4 * li * b - p.c5 * b ** p.x - p.c6)
              * np.exp(-p.c7 * inv_li) + p.c8 * lams)
    return np.where((lams > 0.0) & (shifted > 0.0) & (inv_li > 0.0) & (cp > 0.0), cp, 0.0)


def _outcome(f, *args):
    """f(*args) as bytes, or the type of what it raised."""
    try:
        return f(*args).tobytes()
    except (ValueError, OverflowError) as e:
        return type(e)


# Tip-speed ratios where the skipped terms matter: zeros of both signs,
# subnormals, the reciprocal-overflow edge, the largest floats, infinities,
# nan and negatives.
EDGE_LAMBDAS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0 ** -1024, 2.2250738585072014e-308,
                1e-300, 1e300, 1.7976931348623157e308, -1.7976931348623157e308,
                math.inf, -math.inf, math.nan, -1.0, 0.5, 7.0, 25.0]
coefficient = st.one_of(st.just(0.0), st.just(-0.0), finite, small,
                        st.floats(min_value=-1e-300, max_value=1e-300))


@st.composite
def sparse_parameterisations(draw):
    """A bundled set, or a coefficient set in which each coefficient is often
    an exact zero of either sign."""
    named = draw(st.one_of(st.none(), registry_names))
    if named is not None:
        return REGISTRY[named]
    return CpParameterisation(
        name="fuzz", **{f"c{i}": draw(coefficient) for i in range(1, 11)},
        x=draw(st.sampled_from([1.0, 2.0, 2.14, 0.5, 3.0])),
        beta_offset=draw(st.sampled_from([0.0, -0.0, 2.5, 1.0, -2.0, -0.5])))


@given(sparse_parameterisations(),
       st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 7.5]),
       st.lists(st.one_of(st.sampled_from(EDGE_LAMBDAS),
                          st.floats(allow_nan=True, allow_infinity=True)), max_size=30))
@example(REGISTRY["dai2016"], 0.0, EDGE_LAMBDAS)
@example(CpParameterisation(name="edge", c1=1.0, c2=1.0, c3=0.0, c4=0.0, c5=0.0, c6=-1.0,
                            c7=0.0, c8=0.0, c9=0.0, c10=0.0, x=1.0),
         0.0, [1.7976931348623157e308, math.inf])
@example(CpParameterisation(name="edge", c1=1.0, c2=1.0, c3=0.0, c4=0.0, c5=0.0, c6=-1.0,
                            c7=0.0, c8=0.0, c9=0.0, c10=0.1, x=1.0),
         -3.0, [math.inf, 1e300])
@example(CpParameterisation(name="edge", c1=1.0, c2=1.0, c3=0.0, c4=0.0, c5=0.0, c6=-1.0,
                            c7=0.0, c8=0.0, c9=-1.0, c10=-200.0, x=1.0),
         7.5, [0.5, 1.0])
@settings(max_examples=400)
def test_cp_general_array_is_the_whole_formula_bit_for_bit(p, beta, lams):
    lams = np.array(EDGE_LAMBDAS + lams)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(cp_general_array, lams, beta, p)
    assert got == _outcome(_cp_every_term, lams, beta, p)


def test_lambda_opt_of_each_bundled_set():
    # recomputed past the cache, with the skipped cp terms
    assert {name: lambda_opt.__wrapped__(p) for name, p in REGISTRY.items()} == {
        "slootweg2003": (6.907745, 0.4411993813370079),
        "heier2014": (7.954026, 0.4109631035212347),
        "thongam2009": (8.100117000000001, 0.4800119028278733),
        "dekooning2013": (6.76841, 0.44054316379938996),
        "ochieng2014": (7.209311, 0.6350038183792596),
        "dai2016": (9.949497000000001, 0.5000139362007022),
    }


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
       st.floats(min_value=1.0, max_value=150.0),
       st.floats(min_value=-0.2, max_value=0.6),
       st.floats(min_value=-0.75, max_value=0.75))
def test_rews_factor_is_the_naive_band_sum(diameter, clearance, alpha, veer):
    hub = diameter / 2.0 + clearance
    spec = TurbineSpec(rotor_diameter=diameter, rated_power=2000.0, hub_height=hub)
    assert rews_factor(spec, alpha, veer) == pytest.approx(
        naive_rews_factor(diameter, hub, alpha, veer, N_BANDS), rel=1e-14, abs=0)


@given(st.floats(min_value=0.0, max_value=40.0))
@settings(max_examples=50)
def test_rews_uniform_flow_identity(u_hub):
    spec = TurbineSpec(rotor_diameter=90.0, rated_power=3000.0, hub_height=100.0)
    assert u_hub * rews_factor(spec, 0.0, 0.0) == pytest.approx(u_hub, abs=1e-9)


@given(st.floats(min_value=0.0, max_value=0.74),
       st.floats(min_value=0.001, max_value=0.75),
       st.floats(min_value=0.0, max_value=0.4))
@settings(max_examples=50)
def test_rews_decreases_with_veer(veer_lo, delta, alpha):
    veer_hi = veer_lo + delta
    assume(veer_hi <= 0.75)
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)
    lo = 10.0 * rews_factor(spec, alpha, veer_lo)
    hi = 10.0 * rews_factor(spec, alpha, veer_hi)
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
    # rows more than 5 sigma from a step see only one side of it; an edge
    # within GRID_EPS of the step's grid point is inside the window
    step = np.where(grid >= step_at, level, 0.0)
    out = apply_turbulence(PowerCurve(grid, step), ti, cut_out=40.0)
    far = np.abs(grid - step_at) > 5.0 * ti * grid + GRID_EPS
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
@example(0.021, 0.05, 25.0)  # narrow windows: one block of every row, 187 rows x 26 columns
@example(0.3, 0.01, 35.0)    # 5 TI > 1: every window is cut at 0 m/s
@example(0.02, 0.01, 25.0)   # the fine grid at the lowest and highest TI of site_turbulent:
@example(0.15, 0.01, 25.0)   # a block masks only the columns past its narrowest row
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
    for i, half in enumerate(kernel_half_widths(ti, grid[inside], dv, GRID_EPS)):
        # a row with sigma < dv/2 keeps its value, a window of one point
        half = half or 0
        window = extended[max(i - half, 0):i + half + 1]
        if np.all(window == window[0]):
            assert out.power[i] == window[0], (i, out.power[i], window[0])
            constant += 1
    assert constant > 0



@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.floats(min_value=1e-4, max_value=1.0),
       st.floats(min_value=0.0, max_value=1000.0),
       st.sampled_from([0.0, GRID_EPS]))
@example(0.1, 0.05, 10.0, GRID_EPS)   # row 200's edge on a grid point
@example(0.25, 0.25, 1.0, 0.0)        # 5 sigma exactly 5 steps
@example(0.025, 0.05, 1.0, 0.0)       # sigma exactly dv / 2
@settings(max_examples=300, deadline=None)
def test_kernel_half_widths_match_fractions(ti, dv, u, eps):
    # the oracle's integer rule against the same rule in Fraction arithmetic
    sigma, eps_, dv_ = Fraction(ti) * Fraction(u), Fraction(eps), Fraction(dv)
    half = None if 2 * (sigma + eps_) < dv_ else math.floor((5 * sigma + eps_) / dv_)
    assert kernel_half_widths(ti, np.array([u]), dv, eps) == [half]


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
        turbulent_power(ideal, [ti], wind, cut_out=spec.cut_out)[0],
        np.interp(wind, grid, full))


@given(st.floats(min_value=0.0, max_value=0.3),
       st.sampled_from((0.05, 0.01)),
       st.lists(st.integers(min_value=0, max_value=800), max_size=40),
       st.lists(st.integers(min_value=0, max_value=160), max_size=40),
       st.lists(st.floats(min_value=0.0, max_value=45.0), max_size=10),
       st.randoms(use_true_random=False))
@example(0.1, 0.05, [], list(range(121)), [], random.Random(0))
@example(0.3, 0.01, [1, 799, 800], [0, 100, 160], [24.999], random.Random(1))
@settings(max_examples=25, deadline=None)
def test_tabulated_samples_give_the_interpolated_curve(ti, dv, fine, coarse, free, order):
    # manufacturer-style speeds, multiples of 0.05 and 0.25 m/s after a %.6g
    # round trip (every 0.25 m/s one and some 0.05 m/s ones land on a grid
    # point), mixed with off-grid floats
    spec = TurbineSpec(**REFERENCE_KWARGS)
    model = scale_cp(get_parameterisation("dai2016"), spec.cp_max)
    ideal = ideal_curve(spec, model, v_max=dv * round(40.0 / dv), dv=dv)
    wind = [*(float(f"{0.05 * i:.6g}") for i in fine),
            *(float(f"{0.25 * i:.6g}") for i in coarse), *free]
    order.shuffle(wind)
    wind = np.array(wind)
    full = apply_turbulence(ideal, ti, cut_out=spec.cut_out).power
    np.testing.assert_array_equal(
        turbulent_power(ideal, [ti], wind, cut_out=spec.cut_out)[0],
        np.interp(wind, ideal.wind_grid, full))


@given(st.lists(st.floats(min_value=0.0, max_value=0.35), max_size=4),
       st.floats(min_value=0.2, max_value=0.35, exclude_min=True),
       st.sampled_from((0.05, 0.01)),
       st.lists(st.floats(min_value=0.0, max_value=45.0), max_size=20),
       st.floats(min_value=0.0, max_value=1.0),
       st.randoms(use_true_random=False))
@example([], 0.3, 0.05, [], 1.0, random.Random(0))
@example([0.1, 0.025, 0.05], 0.35, 0.01, [24.999, 25.0, 40.0], 0.05, random.Random(1))
@settings(max_examples=15, deadline=None)
def test_each_row_of_a_ti_batch_is_its_single_ti_call(tis, wide, dv, speeds, share, order):
    # every batch holds TI 0, a repeat and a TI above 0.2, whose windows
    # pass 0 m/s, in a random order
    tis = [*tis, 0.0, wide, wide if not tis else tis[0]]
    order.shuffle(tis)
    spec = TurbineSpec(**REFERENCE_KWARGS)
    model = scale_cp(get_parameterisation("dai2016"), spec.cp_max)
    ideal = ideal_curve(spec, model, v_max=dv * round(40.0 / dv), dv=dv)
    grid = ideal.wind_grid
    wind = np.array([*speeds, *grid[::23], grid[-1] + 2.5])
    candidates = np.random.default_rng(order.getrandbits(32)).random(len(grid)) < share
    power = turbulent_power(ideal, tis, wind, cut_out=spec.cut_out)
    rows = _smoothed(ideal, tis, spec.cut_out, candidates)
    assert power.shape == (len(tis), len(wind)) and rows.shape == (len(tis), len(grid))
    for i, ti in enumerate(tis):
        # the contract: each row is its one-TI batch and the interpolated
        # single-TI curve, bit for bit
        np.testing.assert_array_equal(power[i],
                                      turbulent_power(ideal, [ti], wind, cut_out=spec.cut_out)[0])
        full = apply_turbulence(ideal, ti, cut_out=spec.cut_out).power
        np.testing.assert_array_equal(power[i], np.interp(wind, grid, full))
        np.testing.assert_array_equal(rows[i], _smoothed(ideal, [ti], spec.cut_out, candidates)[0])


def _block_ends(curve, ti, cut_out):
    """The last planned row of each block of the turbulence stage, from the
    plan _smoothed makes."""
    k = window_end(curve.wind_grid, cut_out)
    rows, half = _row_plan(k, ti, 0.0, GRID_EPS / curve.dv, run_ids(curve.power[:k]))
    return [rows[last - 1] for _, last, _ in _blocks(half)]


@given(st.floats(min_value=0.0, max_value=0.3, exclude_min=True),
       st.sampled_from((0.05, 0.01, 0.037)),
       st.floats(min_value=15.0, max_value=35.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(0.1197, 0.04, 25.0, 0.3, 0)  # a block of 64 rows x 256 columns, BLOCK_TAPS
@example(0.3, 0.0025, 28.0, 0.05, 1)  # each row past about 27.3 m/s is wider than BLOCK_TAPS
@example(0.203, 0.05, 25.0, 0.3, 5)   # first block: 20 candidates cut at column 0, 8 whole, apart
@example(0.1, 0.01, 25.0, 1e-3, 2)    # blocks holding one candidate or none
@example(0.1, 0.05, 25.0, 0.0, 0)     # no candidate at all
@example(0.15, 0.01, 25.0, None, 0)   # only the last planned row of each block
@example(0.1, 0.05, 40.0, 0.3, 3)     # cut_out = v_max: the window is the whole grid
@example(0.3, 0.05, 40.0, 0.3, 4)     # and the last row's window cut at the extended grid's end
@settings(max_examples=20, deadline=None)
def test_smoothed_rows_do_not_depend_on_the_other_candidates(ti, dv, cut_out, share, seed):
    # share None marks the last planned row of each block, else a random share
    spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=cut_out))
    model = scale_cp(get_parameterisation("dai2016"), spec.cp_max)
    ideal = ideal_curve(spec, model, v_max=dv * round(40.0 / dv), dv=dv)
    if share is None:
        candidates = np.zeros(len(ideal.wind_grid), dtype=bool)
        candidates[_block_ends(ideal, ti, cut_out)] = True
    else:
        candidates = np.random.default_rng(seed).random(len(ideal.wind_grid)) < share
    rows = np.flatnonzero(candidates)
    every = np.ones_like(candidates)
    np.testing.assert_array_equal(_smoothed(ideal, [ti], cut_out, candidates)[0, rows],
                                  _smoothed(ideal, [ti], cut_out, every)[0, rows])


@given(st.floats(min_value=0.0, max_value=0.9, exclude_min=True),
       st.floats(min_value=0.002, max_value=0.2),
       st.floats(min_value=0.0, max_value=10.0),
       st.integers(min_value=2, max_value=3000),
       st.floats(min_value=-1.0, max_value=50.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(0.15, 0.01, 0.0, 4001, 25.0, 0)  # the default grid's length at dv 0.01
@example(0.9, 0.05, 2.0, 801, 40.0, 1)    # windows past column 0 and past the grid's end
@settings(max_examples=60, deadline=None)
def test_half_widths_never_fall_along_the_plan(ti, dv, start, n, cut_out, seed):
    # a linspace grid from any speed, not make_wind_grid's, under a step
    # curve of a few runs, so some rows are left out of the plan
    grid = np.linspace(start, start + dv * (n - 1), n)
    power = np.sort(np.random.default_rng(seed).integers(0, 5, n)) * 500.0
    curve = PowerCurve(grid, power)
    k = window_end(curve.wind_grid, cut_out)
    rows, half = _row_plan(k, ti, grid[0] / curve.dv, GRID_EPS / curve.dv,
                           run_ids(curve.power[:k]))
    assert len(rows) == len(half) and np.all(np.diff(rows) > 0)
    assert np.all(np.diff(half) >= 0)
    # so a block's first row is its narrowest and its last its widest
    for first, last, wide in _blocks(half):
        assert half[first] == half[first:last].min() and wide == half[first:last].max()


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
    curve = PowerCurve(grid, power)
    k = window_end(grid, cut_out)
    assert k == (grid <= cut_out + GRID_EPS).sum()
    # each environment stage keeps grid[:k] and zeroes the rest
    laminar = apply_turbulence(curve, 0.0, cut_out=cut_out).power
    assert np.array_equal(laminar[:k], power[:k]) and not laminar[k:].any()
    # and reads power[k - 1] past the window's last speed: at kappa > 1 the
    # last row, and every row read past grid[k - 1], holds it exactly
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0,
                       cut_out=cut_out)
    sheared = apply_shear_veer(curve, spec, 0.5, 0.0).power
    past = grid[:k] * rews_factor(spec, 0.5, 0.0) >= grid[k - 1]  # empty if k = 0
    assert (not k or past[-1]) and np.all(sheared[:k][past] == power[k - 1])
    assert not sheared[k:].any()


@given(st.sampled_from((0.0, 0.37, 6.0)), st.sampled_from((0.05, 0.013)),
       st.sampled_from(("none", "first", "some", "all")),
       st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=-0.75, max_value=0.75),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@example(0.0, 0.05, "some", 0.4, 0.0, 1)     # kappa above 1
@example(0.37, 0.013, "all", 0.2, 0.3, 2)    # kappa below 1
@example(6.0, 0.05, "none", 0.4, 0.0, 3)
@example(0.0, 0.05, "first", 0.4, 0.0, 4)
@settings(max_examples=80, deadline=None)
def test_shear_veer_is_the_plateau_interpolation(start, dv, window, alpha, veer, seed):
    # bit for bit the earlier formula: the whole grid interpolated at kappa * u
    # over the power with [k:] set to power[k - 1] (0 if k = 0), zeroed past k
    rng = np.random.default_rng(seed)
    grid = start + np.arange(400) * dv
    power = rng.uniform(0.0, 3000.0, len(grid))
    cut_out = {"none": start - 1.0, "first": start, "all": grid[-1] + 1.0,
               "some": float(grid[rng.integers(1, len(grid) - 1)])}[window]
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0,
                       cut_out=cut_out)
    k = window_end(grid, cut_out)
    assert k == {"none": 0, "first": 1, "all": len(grid)}.get(window, k)
    kappa = rews_factor(spec, alpha, veer)
    base = power.copy()
    base[k:] = power[k - 1] if k else 0.0
    want = np.interp(grid * kappa, grid, base)
    want[k:] = 0.0
    got = apply_shear_veer(PowerCurve(grid, power), spec, alpha, veer).power
    assert got.tobytes() == want.tobytes()


def _edge(grid, speed, snap):
    """speed itself if snap is None, else the grid point nearest it plus snap."""
    return speed if snap is None else float(grid[np.abs(grid - speed).argmin()]) + snap


_SNAPS = st.sampled_from((None, 0.0, GRID_EPS / 2, -GRID_EPS / 2))


@given(st.sampled_from((0.1, 0.05, 0.04, 0.01)),
       st.floats(min_value=0.0, max_value=6.0), _SNAPS,
       st.floats(min_value=10.0, max_value=45.0), _SNAPS, registry_names)
@example(0.05, 0.0, None, 25.0, None, "dai2016")           # cut_in 0: 0 m/s stays 0
@example(0.05, 5.0, GRID_EPS / 2, 25.0, 0.0, "dai2016")     # cut_in just past a point
@example(0.05, 5.0, -GRID_EPS / 2, 25.0, 0.0, "dai2016")    # and just before it
@example(0.01, 3.5, 0.0, 40.0, 0.0, "thongam2009")          # cut_out = v_max
@settings(max_examples=60, deadline=None)
def test_ideal_curve_is_the_chain_on_the_window_mask(dv, cut_in, in_snap, cut_out,
                                                     out_snap, name):
    # zero, +0.0, where the inclusive [cut_in, cut_out] mask with GRID_EPS
    # slack and without 0 m/s is False; the capped chain on its speeds elsewhere
    grid = make_wind_grid(40.0, dv)
    cut_in, cut_out = max(_edge(grid, cut_in, in_snap), 0.0), _edge(grid, cut_out, out_snap)
    spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_in=cut_in, cut_out=cut_out))
    model = scale_cp(REGISTRY[name], spec.cp_max)
    power = ideal_curve(spec, model, dv=dv).power
    window = (grid >= cut_in - GRID_EPS) & (grid <= cut_out + GRID_EPS) & (grid > 0.0)
    assert power[~window].tobytes() == np.zeros((~window).sum()).tobytes()
    vs = grid[window]
    lam = tsr(vs, rotor_speed(vs, spec, model.lambda_opt), spec.rotor_diameter)
    cp = np.where((lam < LAMBDA_DOMAIN[0]) | (lam > LAMBDA_DOMAIN[1]), 0.0, model.cp_array(lam))
    np.testing.assert_array_equal(
        power[window], np.minimum(spec.rated_power, raw_power(vs, cp, 1.225, spec.rotor_diameter)))


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


def _step_formula_accepts(grid: np.ndarray) -> bool:
    """PowerCurve's grid test as np.abs over every step: the reference for its
    test from the steps' min and max alone."""
    with np.errstate(invalid="ignore"):
        steps = np.diff(grid)
        return bool(0.0 < steps.min() and steps.max() < math.inf
                    and np.abs(steps - steps[0]).max() <= 1e-8 + 1e-9 * steps[0])


@st.composite
def odd_grids(draw):
    """Jittered grids with up to two points made NaN or +-inf, or equal to or
    past a neighbour, so a step is 0 or negative."""
    grid = draw(jittered_grids())
    for k in draw(st.lists(st.integers(min_value=0, max_value=len(grid) - 1), max_size=2)):
        kind = draw(st.sampled_from(["nan", "inf", "-inf", "repeated", "decreasing"]))
        # the neighbour before k, or after it for the first point
        j, side = (k - 1, 1.0) if k else (1, -1.0)
        if kind == "repeated":
            grid[k] = grid[j]
        elif kind == "decreasing":
            grid[k] = grid[j] - side * draw(st.floats(min_value=0.0, max_value=2.0))
        else:
            grid[k] = float(kind)
    return grid


@given(odd_grids())
@example(np.array([0.0, 5.1670340845325424e-09, 2.0334068174232117e-08]))  # exactly at it
@example(np.array([0.0, math.inf, math.inf]))
@example(np.array([-math.inf, 0.0, 1.0]))
@settings(max_examples=500)
def test_power_curve_accepts_the_grids_the_step_formula_accepts(grid):
    try:
        with np.errstate(invalid="ignore"):
            PowerCurve(grid, np.zeros_like(grid))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _step_formula_accepts(grid)


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
