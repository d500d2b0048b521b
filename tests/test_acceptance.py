"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The whole module is budgeted to finish in under a minute; the last
test enforces that.
"""

import math
import time

import numpy as np
import pytest

from windcurve import (BETZ_LIMIT, EnvironmentConditions, MeasuredCurve,
                       REGISTRY, TurbineSpec, apply_turbulence, band_areas,
                       betz_screen, complete_spec, ideal_curve, invert_cp,
                       match_over_ti, raw_power, rews, scale_cp, synthesize)

from conftest import REFERENCE_KWARGS, rated_knee
from oracles import naive_power_curve, rews_banded

_T0 = time.monotonic()


def _ok(criterion: int, message: str) -> None:
    print(f"[acceptance] C{criterion:02d} PASS: {message}")


def test_c01_power_equation_spot_check():
    t0 = time.monotonic()
    got = raw_power(10.0, 0.44, 1.225, 80.0)
    assert got == pytest.approx(1354.65, abs=0.01)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(1, f"raw_power(10, 0.44, 1.225, 80) = {got:.4f} kW (= 1354.65 +- 0.01)")


def test_c02_statistical_defaults():
    t0 = time.monotonic()
    _, report = complete_spec(TurbineSpec(rotor_diameter=80.0, rated_power=2000.0))
    filled = {f["field"]: f["value"] for f in report}
    assert filled["cp_max"] == 0.44
    assert (filled["cut_in"], filled["cut_out"]) == (3.0, 25.0)
    w_min, w_max = filled["omega_min"], filled["omega_max"]
    assert w_min == pytest.approx(8.78, abs=0.01)
    assert w_max == pytest.approx(18.18, abs=0.01)
    assert time.monotonic() - t0 < 1.0
    _ok(2, f"cp_max 0.44, cut speeds (3, 25), omega(80m) = "
           f"({w_min:.3f}, {w_max:.3f}) rpm")


def test_c03_zero_ti_identity(reference_curve):
    assert reference_curve.dv == pytest.approx(0.05)
    out = apply_turbulence(reference_curve, 0.0, cut_out=25.0)
    assert out.power.tobytes() == reference_curve.power.tobytes()
    assert out.wind_grid.tobytes() == reference_curve.wind_grid.tobytes()
    _ok(3, "apply_turbulence(ti=0) is bit-identical on the 0.05 m/s grid")


def test_c04_ti_knee_ordering_and_sharp_cut_out(reference_curve):
    knee = rated_knee(reference_curve, 2000.0)
    i_cut = int(round(25.0 / 0.05))
    ti_grid = (0.0, 0.025, 0.05, 0.075, 0.10)
    knee_power = []
    for ti in ti_grid:
        smoothed = apply_turbulence(reference_curve, ti, cut_out=25.0)
        knee_power.append(smoothed.power[knee])
        assert smoothed.power[i_cut] == pytest.approx(2000.0, abs=1e-6)
        assert smoothed.power[i_cut + 1] == 0.0
    assert np.all(np.diff(knee_power) < 0.0)
    _ok(4, "knee power strictly decreasing over TI "
           f"{[f'{p:.1f}' for p in knee_power]}; cut-out stays one grid step")


def test_c05_rotor_equivalent_wind_speed():
    spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)
    _, areas = band_areas(80.0, 100)
    disc = math.pi * 80.0 ** 2 / 4.0
    assert abs(areas.sum() - disc) / disc < 1e-9
    for u in np.linspace(0.5, 30.0, 60):
        assert rews(u, spec, 0.0, 0.0, 100) == pytest.approx(u, abs=1e-9)
        assert rews(u, spec, 0.0, 0.75, 100) < u
    oracle = rews_banded(10.0, 80.0, 60.0, 0.2, 0.0, 10_000)
    got = rews(10.0, spec, 0.2, 0.0, 100)
    assert abs(got - oracle) / oracle < 1e-4
    _ok(5, f"identity exact, veer strictly reducing, 100-band REWS within "
           f"{abs(got - oracle) / oracle:.2e} of the 1e4-band oracle")


def test_c06_density_linearity(defaults_spec):
    model = scale_cp(REGISTRY["dai2016"], defaults_spec.cp_max)
    rhos = (1.15, 1.225, 1.3)
    curves = {rho: ideal_curve(defaults_spec, model, rho=rho) for rho in rhos}
    worst = 0.0
    for a in rhos:
        for b in rhos:
            if a >= b:
                continue
            pa, pb = curves[a].power, curves[b].power
            below = (pa > 0) & (pa < 2000.0) & (pb > 0) & (pb < 2000.0)
            err = np.max(np.abs(pb[below] / pa[below] - b / a))
            worst = max(worst, err)
    assert worst < 1e-9
    _ok(6, f"below-cap power scales as rho ratios, worst deviation {worst:.2e}")


def test_c07_cp_round_trip_and_betz_screen(defaults_spec):
    curve, _ = synthesize(defaults_spec, EnvironmentConditions(ti=0.0))
    winds = np.arange(4.0, 7.0, 0.25)   # below rated, clamps not binding
    powers = np.interp(winds, curve.wind_grid, curve.power)
    assert powers.max() < 2000.0
    m = MeasuredCurve(defaults_spec, winds, powers)
    _, cp_max = invert_cp(m, rho=1.225)
    assert cp_max == pytest.approx(0.44, abs=1e-6)
    assert not betz_screen(BETZ_LIMIT)
    assert betz_screen(BETZ_LIMIT + 1e-12)
    assert betz_screen(0.62) and not betz_screen(0.44)
    _ok(7, f"extracted cp_max {cp_max:.8f} (0.44 +- 1e-6); Betz screen fires "
           "exactly above 16/27")


def test_c08_ti_recovery_under_noise(defaults_spec):
    winds = np.arange(0.0, 30.0 + 1e-9, 0.05)
    scores = {}
    for ti_true in (0.025, 0.05, 0.075):
        curve, _ = synthesize(defaults_spec, EnvironmentConditions(ti=ti_true))
        clean = np.interp(winds, curve.wind_grid, curve.power)
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = np.maximum(
                clean * (1.0 + 0.01 * rng.standard_normal(len(winds))), 0.0)
            measured = MeasuredCurve(defaults_spec, winds, noisy)
            hits += match_over_ti(measured).best_ti == ti_true
        scores[ti_true] = hits
        assert hits >= 18, f"ti={ti_true}: only {hits}/20 recovered"
    _ok(8, "TI recovered under 1% noise: "
           + ", ".join(f"ti={k:g}: {v}/20" for k, v in scores.items()))


def test_c09_sensitivity_patterns():
    # small rotor: power peaks inside region II and falls off afterwards
    small = TurbineSpec(name="small", **{**REFERENCE_KWARGS,
                                         "rotor_diameter": 40.0})
    model = scale_cp(REGISTRY["dai2016"], 0.4615)
    curve = ideal_curve(small, model)
    i_peak = int(np.argmax(curve.power))
    producing = np.nonzero(curve.power)[0]
    assert curve.power[i_peak] < small.rated_power
    assert producing[0] < i_peak < producing[-1]
    assert curve.power[producing[-1]] < 0.95 * curve.power[i_peak]

    # the six parameterisations at a common cp_max tell the same story in
    # region II: pairwise RMS distance within 2% of rated.  (The pointwise
    # spread is larger near cut-in, where the minimum-rotor-speed clamp
    # punishes the narrow cp shapes; it is printed for transparency.)
    curves = {}
    for name, p in REGISTRY.items():
        spec = TurbineSpec(name=name, **REFERENCE_KWARGS)
        curves[name] = ideal_curve(spec, scale_cp(p, 0.4615))
    grid = next(iter(curves.values())).wind_grid
    stack = np.vstack([c.power for c in curves.values()])
    knee_v = grid[rated_knee(curves["dai2016"], 2000.0)]
    region2 = (grid >= REFERENCE_KWARGS["cut_in"]) & (grid <= knee_v)
    worst_rms = 0.0
    for i in range(len(stack)):
        for j in range(i + 1, len(stack)):
            rms = math.sqrt(np.mean((stack[i][region2] - stack[j][region2]) ** 2))
            worst_rms = max(worst_rms, rms / 2000.0)
    pointwise = np.max(stack[:, region2].max(axis=0) - stack[:, region2].min(axis=0))
    assert worst_rms <= 0.02
    _ok(9, f"40 m rotor peaks mid-curve at {curve.power[i_peak]:.0f} kW; "
           f"six parameterisations agree to {100 * worst_rms:.2f}% of rated "
           f"RMS in region II (pointwise max {100 * pointwise / 2000:.2f}%)")


def test_c10_pipeline_matches_naive_reimplementation():
    rng = np.random.default_rng(42)
    names = sorted(REGISTRY)
    for trial in range(10):
        d = float(rng.uniform(40.0, 120.0))
        spec = TurbineSpec(
            name=f"rand{trial}",
            rotor_diameter=d,
            rated_power=float(rng.uniform(1500.0, 2500.0)),
            cut_in=float(rng.uniform(2.0, 4.5)),
            cut_out=float(rng.uniform(20.0, 30.0)),
            omega_min=float(rng.uniform(4.0, 12.0)),
            omega_max=float(rng.uniform(17.0, 35.0)),
            cp_max=float(rng.uniform(0.30, 0.50)),
            hub_height=float(d / 2.0 * rng.uniform(1.2, 2.0)),
        )
        env = EnvironmentConditions(
            ti=float(rng.uniform(0.0, 0.12)),
            rho=float(rng.uniform(1.1, 1.35)),
            shear_alpha=float(rng.uniform(0.0, 0.4)),
            veer_rate=float(rng.uniform(0.0, 0.75)),
        )
        name = names[int(rng.integers(0, len(names)))]
        curve, _ = synthesize(spec, env, cp_model=name)
        expect = naive_power_curve(spec, env.ti, env.rho, env.shear_alpha,
                                   env.veer_rate, REGISTRY[name])
        np.testing.assert_allclose(curve.power, expect, rtol=1e-9, atol=1e-9,
                                   err_msg=f"trial {trial} ({name})")
    elapsed = time.monotonic() - _T0
    assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f} s"
    _ok(10, f"10 random specs match the naive per-point pipeline to 1e-9; "
            f"suite wall time {elapsed:.1f} s")
