import io
import math

import numpy as np
import pytest

from windcurve import (PowerCurve, TurbineSpec, get_parameterisation,
                       ideal_curve, make_wind_grid, raw_power, rotor_speed,
                       scale_cp, tsr)
from windcurve.curve_engine import POWER_CURVE_CSV_HEADER, read_curve_csv
from windcurve.cp_models import REGISTRY

from conftest import REFERENCE_KWARGS, rated_knee
from oracles import brute_lambda_opt, cp_direct

# Frozen oracle values (independent arithmetic evaluation).
RAW_POWER_REF = 1354.654752   # kW at v=10, cp=0.44, rho=1.225, D=80
OMEGA_EXAMPLE_RPM = 19.098593  # 2 rad/s


class TestRotorSpeed:
    def test_lower_clamp_at_standstill(self, reference_spec):
        assert rotor_speed(0.0, reference_spec, 8.0) == reference_spec.omega_min

    def test_tracking_region(self, reference_spec):
        assert rotor_speed(10.0, reference_spec, 8.0) == pytest.approx(
            OMEGA_EXAMPLE_RPM, abs=1e-6)

    def test_upper_clamp(self, reference_spec):
        assert rotor_speed(100.0, reference_spec, 8.0) == reference_spec.omega_max


class TestTsr:
    def test_inverse_of_rotor_speed_example(self):
        assert tsr(10.0, OMEGA_EXAMPLE_RPM, 80.0) == pytest.approx(8.0, abs=1e-6)

    def test_zero_rotation(self):
        assert tsr(5.0, 0.0, 80.0) == 0.0

    def test_homogeneity(self):
        assert tsr(14.0, 24.0, 80.0) == pytest.approx(tsr(7.0, 12.0, 80.0))

    def test_zero_wind_raises(self):
        with pytest.raises(ZeroDivisionError):
            tsr(0.0, 10.0, 80.0)


class TestRawPower:
    def test_zero_cp(self):
        assert raw_power(12.0, 0.0, 1.225, 80.0) == 0.0

    def test_reference_point(self):
        assert raw_power(10.0, 0.44, 1.225, 80.0) == pytest.approx(
            RAW_POWER_REF, abs=1e-4)
        # live independent re-evaluation of the same arithmetic
        direct = 0.5 * 1.225 * (math.pi * 80.0 ** 2 / 4.0) * 1e3 * 0.44 / 1e3
        assert raw_power(10.0, 0.44, 1.225, 80.0) == pytest.approx(direct, rel=1e-12)

    def test_cubic_law(self):
        assert raw_power(20.0, 0.4, 1.2, 90.0) == pytest.approx(
            8.0 * raw_power(10.0, 0.4, 1.2, 90.0), rel=1e-12)


class TestIdealCurve:
    def test_operating_regions(self, reference_curve):
        grid = reference_curve.wind_grid
        p = reference_curve.power
        assert p[grid < 3.5 - 1e-9].max() == 0.0          # below cut-in
        assert p[grid > 25.0 + 1e-9].max() == 0.0         # above cut-out
        assert p[int(round(20.0 / 0.05))] == 2000.0        # rated plateau
        assert p[int(round(25.0 / 0.05))] == 2000.0        # cut-out inclusive
        assert p[int(round(3.5 / 0.05))] > 0.0             # cut-in inclusive

    def test_cap_and_positivity(self, reference_curve):
        assert np.all(reference_curve.power >= 0.0)
        assert np.all(reference_curve.power <= 2000.0)

    def test_region_two_is_monotone_while_unclamped(self, reference_curve,
                                                    reference_model):
        # between the speed where omega_min stops binding and the knee the
        # turbine tracks lambda_opt, so power grows with the cube
        grid = reference_curve.wind_grid
        radius = 40.0
        v_free = 10.0 * (2 * math.pi / 60) * radius / reference_model.lambda_opt
        v_hi = grid[rated_knee(reference_curve, 2000.0)]
        zone = (grid >= v_free) & (grid <= v_hi)
        assert np.all(np.diff(reference_curve.power[zone]) > 0)

    def test_density_linearity_below_cap(self, defaults_spec):
        model = scale_cp(get_parameterisation("dai2016"), defaults_spec.cp_max)
        low = ideal_curve(defaults_spec, model, rho=1.15)
        high = ideal_curve(defaults_spec, model, rho=1.30)
        both = (low.power > 0) & (low.power < 2000) & (high.power < 2000)
        ratio = high.power[both] / low.power[both]
        assert np.max(np.abs(ratio - 1.30 / 1.15)) < 1e-9

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_cp_non_increasing_once_omega_max_binds(self, name):
        # force the upper clamp well below rated speed
        spec = TurbineSpec(name="clamped", **{**REFERENCE_KWARGS,
                                              "omega_max": 15.0})
        model = scale_cp(REGISTRY[name], 0.4615)
        radius = spec.rotor_diameter / 2.0
        v_clamp = spec.omega_max * (2 * math.pi / 60) * radius / model.lambda_opt
        vs = np.arange(v_clamp + 0.05, 25.0, 0.05)
        cps = model.cp_array(tsr(vs, rotor_speed(vs, spec, model.lambda_opt),
                                 spec.rotor_diameter))
        assert np.all(np.diff(cps) <= 1e-12)

    def test_operating_state_invariants(self, reference_spec, reference_model):
        vs = np.linspace(0.5, 30.0, 60)
        omega = rotor_speed(vs, reference_spec, reference_model.lambda_opt)
        lam = tsr(vs, omega, reference_spec.rotor_diameter)
        cp = reference_model.cp_array(lam)
        assert np.all((reference_spec.omega_min <= omega)
                      & (omega <= reference_spec.omega_max))
        assert np.all(lam > 0.0)
        assert np.all(cp >= 0.0)

    def test_matches_naive_reimplementation_on_random_specs(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            d = rng.uniform(40, 120)
            spec = TurbineSpec(
                name="rand",
                rotor_diameter=d,
                rated_power=rng.uniform(1500, 2500),
                cut_in=rng.uniform(2.0, 4.5),
                cut_out=rng.uniform(20.0, 30.0),
                omega_min=rng.uniform(4.0, 12.0),
                omega_max=rng.uniform(17.0, 35.0),
                cp_max=rng.uniform(0.3, 0.5),
            )
            name = sorted(REGISTRY)[rng.integers(0, 6)]
            rho = rng.uniform(1.1, 1.35)
            model = scale_cp(REGISTRY[name], spec.cp_max)
            curve = ideal_curve(spec, model, rho=rho)

            lam_opt, raw = brute_lambda_opt(REGISTRY[name])
            scale = spec.cp_max / raw
            radius = d / 2.0
            area = math.pi * d ** 2 / 4.0
            expect = np.zeros_like(curve.wind_grid)
            for i, v in enumerate(curve.wind_grid):
                if v <= 0 or v < spec.cut_in - 1e-9 or v > spec.cut_out + 1e-9:
                    continue
                omega = min(spec.omega_max,
                            max(spec.omega_min, lam_opt * v / radius * 60 / (2 * math.pi)))
                lam = omega * 2 * math.pi / 60 * radius / v
                cp = cp_direct(lam, 0.0, REGISTRY[name]) * scale if 0.5 <= lam <= 25 else 0.0
                expect[i] = min(spec.rated_power, 0.5 * rho * area * v ** 3 * cp / 1000)
            np.testing.assert_allclose(curve.power, expect, rtol=1e-9, atol=1e-9)

    def test_incomplete_spec_rejected(self):
        model = scale_cp(get_parameterisation("dai2016"), 0.44)
        with pytest.raises(ValueError, match="incomplete"):
            ideal_curve(TurbineSpec(rotor_diameter=80, rated_power=2000), model)


class TestPowerCurveType:
    def test_grid_must_be_uniform(self):
        with pytest.raises(ValueError):
            PowerCurve(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    @pytest.mark.parametrize("grid", [[0.0, math.inf], [-math.inf, 0.0],
                                      [0.0, 1.0, math.inf], [0.0, 1.0, math.nan],
                                      [math.nan, 1.0, 2.0]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="finite"):
            PowerCurve(np.array(grid), np.zeros(len(grid)))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            PowerCurve(np.linspace(0, 1, 5), np.zeros(4))

    def test_make_wind_grid_rejects_misaligned_step(self):
        with pytest.raises(ValueError):
            make_wind_grid(40.0, 0.03)
        grid = make_wind_grid(40.0, 0.05)
        assert len(grid) == 801
        assert grid[0] == 0.0 and grid[-1] == 40.0

    def test_csv_round_trip(self, reference_curve, tmp_path):
        path = tmp_path / "curve.csv"
        reference_curve.write_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == POWER_CURVE_CSV_HEADER
        ws, power = read_curve_csv(path)
        assert len(ws) == len(reference_curve.wind_grid)
        # 6 significant digits survive the round trip
        np.testing.assert_allclose(power, reference_curve.power, rtol=1e-5, atol=1e-4)

    def test_csv_is_deterministic(self, reference_curve):
        a, b = io.StringIO(), io.StringIO()
        reference_curve.write_csv(a)
        reference_curve.write_csv(b)
        assert a.getvalue() == b.getvalue()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("speed,power\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_curve_csv(path)
