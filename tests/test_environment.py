import numpy as np
import pytest

from windcurve import (EnvironmentConditions, PowerCurve, TurbineSpec, environment,
                       apply_shear_veer, apply_turbulence, band_areas,
                       ideal_curve, make_wind_grid, rews)
from windcurve.environment import (BLOCK_TAPS, _BLOCK_ROWS, _blocks, _row_plan, _smoothed,
                                   turbulent_power)

from conftest import REFERENCE_KWARGS, rated_knee
from oracles import convolve_reference, rews_banded

# Frozen oracle values: 1e4-band midpoint discretization, D=80, hub 60 m.
REWS_SHEAR_02 = 9.952081132   # u=10, alpha=0.2, veer=0
REWS_VEER_075 = 9.672795368   # u=10, alpha=0, veer=0.75 deg/m


class TestEnvironmentConditions:
    def test_ti_band(self):
        with pytest.raises(ValueError):
            EnvironmentConditions(ti=1.0)
        with pytest.raises(ValueError):
            EnvironmentConditions(ti=-0.1)

    def test_rho_positive(self):
        with pytest.raises(ValueError):
            EnvironmentConditions(rho=0.0)

    def test_unusual_rho_warns(self):
        with pytest.warns(UserWarning, match="air density"):
            EnvironmentConditions(rho=0.7)

    def test_rho_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="air density") as record:
            EnvironmentConditions(rho=0.7)
        assert record[0].filename == __file__


class TestBandAreas:
    def test_single_band_is_the_disc(self):
        _, areas = band_areas(80.0, 1)
        assert len(areas) == 1
        assert areas[0] == pytest.approx(np.pi * 80.0 ** 2 / 4.0, rel=1e-12)

    def test_two_bands_halve_the_disc(self):
        _, areas = band_areas(80.0, 2)
        np.testing.assert_allclose(areas, np.pi * 40.0 ** 2 / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7, 100, 999])
    def test_partition_of_the_disc(self, n):
        heights, areas = band_areas(80.0, n)
        disc = np.pi * 80.0 ** 2 / 4.0
        assert abs(areas.sum() - disc) / disc < 1e-9
        # symmetric about the hub
        np.testing.assert_allclose(areas, areas[::-1], rtol=1e-9)
        np.testing.assert_allclose(heights, -heights[::-1], atol=1e-9)

    def test_ground_strike(self):
        with pytest.raises(ValueError):
            band_areas(80.0, 0)

    def test_underflowing_areas_rejected(self):
        with pytest.raises(ValueError, match="band areas must be positive"):
            band_areas(1e-200, 10)


class TestRews:
    @pytest.fixture
    def spec(self):
        return TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)

    def test_uniform_flow_identity(self, spec):
        for u in (0.0, 3.0, 10.0, 24.0):
            assert rews(u, spec, 0.0, 0.0, 100) == pytest.approx(u, abs=1e-9)

    def test_veer_always_reduces(self, spec):
        for u in (2.0, 10.0, 25.0):
            assert rews(u, spec, 0.0, 0.75, 100) < u

    def test_shear_case_against_fine_oracle(self, spec):
        got = rews(10.0, spec, 0.2, 0.0, 100)
        oracle = rews_banded(10.0, 80.0, 60.0, 0.2, 0.0, 10_000)
        assert oracle == pytest.approx(REWS_SHEAR_02, abs=1e-6)
        assert abs(got - oracle) / oracle < 1e-4
        # shear barely moves the effective speed
        assert abs(got - 10.0) / 10.0 < 0.02

    def test_veer_case_against_fine_oracle(self, spec):
        got = rews(10.0, spec, 0.0, 0.75, 100)
        oracle = rews_banded(10.0, 80.0, 60.0, 0.0, 0.75, 10_000)
        assert oracle == pytest.approx(REWS_VEER_075, abs=1e-6)
        assert abs(got - oracle) / oracle < 1e-4

    def test_band_refinement_converges(self, spec):
        oracle = rews_banded(10.0, 80.0, 60.0, 0.3, 0.5, 10_000)
        errors = [abs(rews(10.0, spec, 0.3, 0.5, n) - oracle)
                  for n in (5, 20, 100)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] / oracle < 1e-4

    def test_veer_monotonicity(self, spec):
        rates = np.linspace(0.0, 0.75, 16)
        values = [rews(12.0, spec, 0.1, r, 100) for r in rates]
        assert np.all(np.diff(values) < 0)

    def test_negative_hub_speed_rejected(self, spec):
        with pytest.raises(ValueError):
            rews(-1.0, spec, 0.0, 0.0)


class TestApplyTurbulence:
    def test_zero_ti_is_bit_identical(self, reference_curve):
        out = apply_turbulence(reference_curve, 0.0, cut_out=25.0)
        assert out.power.tobytes() == reference_curve.power.tobytes()
        assert out.wind_grid.tobytes() == reference_curve.wind_grid.tobytes()

    def test_plateau_is_reproduced_exactly(self, reference_curve):
        # at 20 m/s the kernel support (ti=0.04 -> +-4 m/s) sees only rated
        out = apply_turbulence(reference_curve, 0.04, cut_out=25.0)
        i = int(round(20.0 / 0.05))
        assert out.power[i] == 2000.0

    @pytest.mark.parametrize("ti", [0.02, 0.05, 0.1, 0.15])
    def test_constant_windows_are_exact(self, reference_curve, ti):
        # a window padded by two grid points that sees only rated power, or
        # only the zeros below cut-in, returns that value exactly
        grid, dv = reference_curve.wind_grid, reference_curve.dv
        out = apply_turbulence(reference_curve, ti, cut_out=25.0)
        v_rated = grid[rated_knee(reference_curve, 2000.0)]
        past_rated = (grid * (1 - 5 * ti) - 2 * dv >= v_rated) & (grid <= 25.0)
        below_cut_in = grid * (1 + 5 * ti) + 2 * dv < 3.5
        assert below_cut_in.sum() > 30
        assert np.all(out.power[past_rated] == 2000.0)
        assert np.all(out.power[below_cut_in] == 0.0)

    @staticmethod
    def _plan_inputs(curve):
        """The window k for cut-out 25, the sigma of TI 0.05 and an extended
        power that is constant at rated past the grid end."""
        grid = curve.wind_grid
        ext_power = np.concatenate([curve.power, np.full(200, 2000.0)])
        return int(np.sum(grid <= 25.0)), 0.05 * grid, ext_power

    def test_constant_windows_cost_no_taps(self, reference_curve):
        grid, dv = reference_curve.wind_grid, reference_curve.dv
        k, sigma, ext_power = self._plan_inputs(reference_curve)
        rows, lo, hi = _row_plan(k, sigma, dv, ext_power)
        assert int((hi - lo).sum()) > 0
        # of the window's rows with sigma >= dv/2, exactly those whose padded
        # window holds more than one value are planned
        eligible = np.flatnonzero((grid <= 25.0) & (sigma >= dv / 2))
        half = np.floor(5.0 * sigma[eligible] / dv).astype(int) + 2
        windows = [ext_power[max(i - h, 0):i + h + 1] for i, h in zip(eligible, half)]
        constant = np.array([np.all(w == w[0]) for w in windows])
        assert np.array_equal(rows, eligible[~constant])
        # both kinds of constant row occur: wholly below cut-in and past rated
        assert set(ext_power[eligible[constant]]) == {0.0, 2000.0}
        rows, lo, hi = _row_plan(k, sigma, dv, np.full(len(ext_power), 7.5))
        assert int((hi - lo).sum()) == 0 and len(rows) == 0

    def test_row_plan_keeps_to_its_candidates(self, reference_curve):
        # the kernel plans every row and smooths only the candidates, each to
        # the value the full run gives it
        grid, power = reference_curve.wind_grid, reference_curve.power
        every = _smoothed(reference_curve, 0.05, 25.0, np.ones(len(grid), dtype=bool))
        candidates = np.zeros(len(grid), dtype=bool)
        candidates[[100, 101, 200, 350, 450, 700]] = True
        some = _smoothed(reference_curve, 0.05, 25.0, candidates)
        assert np.array_equal(some[candidates], every[candidates])
        # 100, 101 and 200 move; 350 has a constant window, 700 lies past cut-out
        moved = some != np.where(grid <= 25.0, power, 0.0)
        assert np.flatnonzero(moved).tolist() == [100, 101, 200]
        # rows past cut-out are never planned
        k, sigma, ext_power = self._plan_inputs(reference_curve)
        rows, _, _ = _row_plan(k, sigma, reference_curve.dv, ext_power)
        assert rows.max() < k

    @pytest.mark.parametrize("ti, dv, cut_out, edge", [
        (0.05, 0.01, 25.0, None),
        (0.021, 0.05, 25.0, "rows"),    # narrow windows
        (0.119, 0.05, 25.0, "exact"),   # a rectangle of exactly BLOCK_TAPS
        (0.3, 0.005, 35.0, "wide"),     # rows wider than BLOCK_TAPS
    ])
    def test_blocks_are_the_longest_runs_within_the_bounds(self, ti, dv, cut_out, edge,
                                                           reference_model, monkeypatch):
        plans = []
        monkeypatch.setattr(environment, "_row_plan",
                            lambda *args: plans.append(_row_plan(*args)) or plans[-1])
        spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=cut_out))
        curve = ideal_curve(spec, reference_model, v_max=dv * round(40.0 / dv), dv=dv)
        _smoothed(curve, ti, cut_out, np.ones(len(curve.wind_grid), dtype=bool))
        ((rows, lo, hi),) = plans
        blocks = list(_blocks(lo, hi))
        assert [b[0] for b in blocks] == [0, *(b[1] for b in blocks[:-1])]
        assert blocks[-1][1] == len(rows)
        areas = []
        for first, last, c0, c1 in blocks:
            assert (c0, c1) == (lo[first:last].min(), hi[first:last].max())
            count, area = last - first, (last - first) * (c1 - c0)
            assert count <= _BLOCK_ROWS and (area <= BLOCK_TAPS or count == 1)
            if last < len(rows) and count < _BLOCK_ROWS:
                # one more row would pass the bound
                wider = min(c0, lo[last]), hi[last]
                assert (count + 1) * (wider[1] - wider[0]) > BLOCK_TAPS
            areas.append((count, area))
        if edge == "rows":
            assert all(count == _BLOCK_ROWS for count, _ in areas[:-1])
        if edge == "exact":
            assert (32, BLOCK_TAPS) in areas
        if edge == "wide":
            assert any(area > BLOCK_TAPS for _, area in areas)

    @pytest.mark.parametrize("ti", [0.0, 0.05, 0.3])
    def test_turbulent_power_is_np_interp_of_the_full_curve(self, reference_curve, ti):
        grid = reference_curve.wind_grid
        full = apply_turbulence(reference_curve, ti, cut_out=25.0).power
        for wind in (np.array([]),
                     np.array([-np.inf, np.inf, np.nan, 0.0]),
                     grid[::37],
                     np.array([25.0 - 1e-9, 25.0, 25.0 + 1e-9]),
                     np.array([grid[-1], grid[-1] + 1e-9, 41.0, 45.0]),
                     np.linspace(3.0, 30.0, 24).reshape(4, 6),
                     np.linspace(-1.0, 45.0, 3 * len(grid))):  # numpy's precomputed slopes
            np.testing.assert_array_equal(
                turbulent_power(reference_curve, ti, wind, cut_out=25.0),
                np.interp(wind, grid, full))

    def test_turbulent_power_rejects_negative_ti(self, reference_curve):
        with pytest.raises(ValueError, match="turbulence intensity"):
            turbulent_power(reference_curve, -0.01, np.array([5.0]), cut_out=25.0)

    def test_knee_drops_below_rated(self, reference_curve):
        knee = rated_knee(reference_curve, 2000.0)
        out = apply_turbulence(reference_curve, 0.10, cut_out=25.0)
        assert out.power[knee] < 2000.0

    def test_monotone_in_ti_at_the_knee(self, reference_curve):
        knee = rated_knee(reference_curve, 2000.0)
        values = [apply_turbulence(reference_curve, ti, cut_out=25.0).power[knee]
                  for ti in (0.0, 0.025, 0.05, 0.075, 0.10)]
        assert np.all(np.diff(values) < 0)

    def test_bounds_preserved(self, reference_curve):
        out = apply_turbulence(reference_curve, 0.12, cut_out=25.0)
        assert np.all(out.power >= 0.0)
        assert np.all(out.power <= 2000.0 + 1e-9)

    def test_cut_out_stays_sharp(self, reference_curve):
        i = int(round(25.0 / 0.05))
        for ti in (0.025, 0.05, 0.10):
            out = apply_turbulence(reference_curve, ti, cut_out=25.0)
            assert out.power[i] == pytest.approx(2000.0, abs=1e-6)
            assert out.power[i + 1] == 0.0

    def test_smooths_the_cut_in_toe(self, reference_curve):
        # turbulence produces some power slightly below cut-in: gusts above
        # cut-in within the averaging window
        out = apply_turbulence(reference_curve, 0.10, cut_out=25.0)
        just_below = int(round(3.4 / 0.05))
        assert reference_curve.power[just_below] == 0.0
        assert out.power[just_below] > 0.0

    def test_matches_reference_convolution(self, reference_curve):
        for ti in (0.03, 0.10):
            out = apply_turbulence(reference_curve, ti, cut_out=25.0)
            oracle = convolve_reference(reference_curve.wind_grid,
                                        reference_curve.power, ti, 25.0)
            np.testing.assert_allclose(out.power, oracle, rtol=1e-12, atol=1e-9)

    def test_grid_refinement_agrees(self, reference_spec, reference_model):
        # pattern check against the same smoothing on a 5x finer grid
        knee_v = 11.25
        coarse = apply_turbulence(
            ideal_curve(reference_spec, reference_model), 0.10, cut_out=25.0)
        fine_ideal = ideal_curve(reference_spec, reference_model, dv=0.01)
        fine = convolve_reference(fine_ideal.wind_grid, fine_ideal.power, 0.10, 25.0)
        i_c = int(round(knee_v / 0.05))
        i_f = int(round(knee_v / 0.01))
        assert coarse.power[i_c] == pytest.approx(fine[i_f], rel=5e-3)

    def test_bare_curve_with_explicit_window(self, reference_curve):
        bare = PowerCurve(reference_curve.wind_grid, reference_curve.power)
        out = apply_turbulence(bare, 0.05, cut_out=25.0)
        assert out.power.max() <= 2000.0 + 1e-9

    def test_negative_ti_rejected(self, reference_curve):
        with pytest.raises(ValueError):
            apply_turbulence(reference_curve, -0.01, cut_out=25.0)


class TestKernelWeights:
    def test_normalisation(self):
        # the weights sum to one: a constant comes back unchanged
        grid = make_wind_grid()
        flat = apply_turbulence(PowerCurve(grid, np.full(grid.shape, 1234.5)), 0.1,
                                cut_out=40.0)
        assert np.all(flat.power == 1234.5)
        # and vanish past 5 sigma (0.5 u at TI 0.1): rows that far from a
        # step at 11 m/s see one side of it only
        step = np.where(grid >= 11.0, 1234.5, 0.0)
        out = apply_turbulence(PowerCurve(grid, step), 0.1, cut_out=40.0)
        far = np.abs(grid - 11.0) > 0.5 * grid
        assert far.sum() > 500
        np.testing.assert_allclose(out.power[far], step[far], rtol=1e-12, atol=0.0)


class TestApplyShearVeer:
    def test_identity_when_uniform(self, reference_curve, reference_spec):
        out = apply_shear_veer(reference_curve, reference_spec, 0.0, 0.0)
        np.testing.assert_allclose(out.power, reference_curve.power,
                                   rtol=1e-9, atol=1e-9)

    def test_veer_reduces_region_two(self, reference_curve, reference_spec):
        out = apply_shear_veer(reference_curve, reference_spec, 0.0, 0.75)
        assert np.all(out.power <= reference_curve.power + 1e-9)
        knee = rated_knee(reference_curve, 2000.0)
        assert out.power[knee] < reference_curve.power[knee]

    def test_cut_out_gate_uses_hub_speed(self, reference_curve, reference_spec):
        out = apply_shear_veer(reference_curve, reference_spec, 0.0, 0.75)
        i = int(round(25.0 / 0.05))
        # rotor-equivalent speed is below cut-out here, yet the hub gate wins
        assert out.power[i + 1] == 0.0
        assert out.power[i] > 0.0

    def test_cut_out_position_unchanged(self, reference_curve, reference_spec):
        for alpha, veer in ((0.4, 0.0), (0.0, 0.75), (0.2, 0.3)):
            out = apply_shear_veer(reference_curve, reference_spec, alpha, veer)
            last_in = int(np.nonzero(out.power)[0][-1])
            last_ref = int(np.nonzero(reference_curve.power)[0][-1])
            assert last_in == last_ref

    def test_requires_hub_height(self, reference_curve):
        spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, cut_in=3.5,
                           cut_out=25.0, omega_min=10.0, omega_max=30.0,
                           cp_max=0.4615)
        with pytest.raises(ValueError, match="hub_height"):
            apply_shear_veer(reference_curve, spec, 0.2, 0.0)

    def test_requires_cut_out(self, reference_curve):
        spec = TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)
        with pytest.raises(ValueError, match="spec incomplete"):
            apply_shear_veer(reference_curve, spec, 0.2, 0.0)
