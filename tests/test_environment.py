import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from windcurve import (EnvironmentConditions, MissingMandatoryField, PowerCurve, TurbineSpec,
                       environment, apply_shear_veer, apply_turbulence, ideal_curve,
                       make_wind_grid, rews_factor)
from windcurve.curve_engine import GRID_EPS
from windcurve.environment import (BAND_CENTRES, BAND_WEIGHTS, BLOCK_TAPS, KERNEL_REACH,
                                   N_BANDS, _blocks, _row_plan, _smoothed, turbulent_power)

from conftest import REFERENCE_KWARGS, rated_knee, run_ids
from oracles import _segment_area, convolve_reference, kernel_half_widths, rews_banded

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
    def test_partition_of_the_disc(self):
        # the unit disc's bands: shares that sum to 1, each the area between
        # its edges, symmetric about the hub like the centres
        assert len(BAND_WEIGHTS) == len(BAND_CENTRES) == N_BANDS
        assert abs(BAND_WEIGHTS.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(BAND_WEIGHTS, BAND_WEIGHTS[::-1], rtol=1e-13)
        np.testing.assert_allclose(BAND_CENTRES, -BAND_CENTRES[::-1], rtol=0, atol=1e-15)
        edges = np.linspace(-1.0, 1.0, N_BANDS + 1).tolist()
        areas = [_segment_area(1.0, h0, h1) / math.pi for h0, h1 in zip(edges, edges[1:])]
        np.testing.assert_allclose(BAND_WEIGHTS, areas, rtol=1e-14, atol=0)


class TestRews:
    @pytest.fixture
    def spec(self):
        return TurbineSpec(rotor_diameter=80.0, rated_power=2000.0, hub_height=60.0)

    def test_uniform_flow_identity(self, spec):
        for u in (0.0, 3.0, 10.0, 24.0):
            assert u * rews_factor(spec, 0.0, 0.0) == pytest.approx(u, abs=1e-9)

    def test_veer_always_reduces(self, spec):
        for u in (2.0, 10.0, 25.0):
            assert u * rews_factor(spec, 0.0, 0.75) < u

    def test_shear_case_against_fine_oracle(self, spec):
        got = 10.0 * rews_factor(spec, 0.2, 0.0)
        oracle = rews_banded(10.0, 80.0, 60.0, 0.2, 0.0, 10_000)
        assert oracle == pytest.approx(REWS_SHEAR_02, abs=1e-6)
        assert abs(got - oracle) / oracle < 1e-4
        # shear barely moves the effective speed
        assert abs(got - 10.0) / 10.0 < 0.02

    def test_veer_case_against_fine_oracle(self, spec):
        got = 10.0 * rews_factor(spec, 0.0, 0.75)
        oracle = rews_banded(10.0, 80.0, 60.0, 0.0, 0.75, 10_000)
        assert oracle == pytest.approx(REWS_VEER_075, abs=1e-6)
        assert abs(got - oracle) / oracle < 1e-4

    def test_shear_and_veer_case_against_fine_oracle(self, spec):
        oracle = rews_banded(10.0, 80.0, 60.0, 0.3, 0.5, 10_000)
        assert abs(10.0 * rews_factor(spec, 0.3, 0.5) - oracle) / oracle < 1e-4

    def test_veer_monotonicity(self, spec):
        rates = np.linspace(0.0, 0.75, 16)
        values = [12.0 * rews_factor(spec, 0.1, r) for r in rates]
        assert np.all(np.diff(values) < 0)

    def test_negative_hub_speed_rejected(self, reference_spec):
        # the grid increases, so its first speed is its smallest: one line
        # naming it, however many speeds are negative
        grid = np.arange(-10, 401) * 0.1
        with pytest.raises(ValueError) as err:
            apply_shear_veer(PowerCurve(grid, np.zeros_like(grid)), reference_spec, 0.2, 0.1)
        assert str(err.value) == "wind grid must start at or above 0 m/s, got -1.0"
        # a grid from 0 m/s, or from any speed above it, is taken
        for start in (0.0, 5e-324, 7.5):
            grid = start + np.arange(400) * 0.1
            apply_shear_veer(PowerCurve(grid, np.zeros_like(grid)), reference_spec, 0.2, 0.1)

    @pytest.mark.parametrize("diameter", [1e-200, 1e300])
    def test_extreme_diameters_give_a_finite_factor(self, diameter):
        # the shares are the unit disc's, so no rotor size underflows them
        spec = TurbineSpec(rotor_diameter=diameter, rated_power=2000.0,
                           hub_height=diameter)
        kappa = rews_factor(spec, 0.2, 0.0)
        assert math.isfinite(kappa) and 0.9 < kappa < 1.0

    def test_factor_is_one_float_either_side_of_one(self, spec):
        # (z / hub)^(3 alpha) is convex past alpha = 1/3: shear lifts the rotor
        # mean above the hub speed there and lowers it below; veer only lowers it
        kappa = rews_factor(spec, 0.4, 0.0)
        assert type(kappa) is float
        assert kappa > 1.0 > rews_factor(spec, 0.2, 0.0) > rews_factor(spec, 0.2, 0.3)


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
        # a window that sees only rated power, or only the zeros below
        # cut-in, with two grid points to spare, returns that value exactly
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
        """The window k for cut-out 25, the grid's origin r0 and the slack in steps."""
        return int(np.sum(curve.wind_grid <= 25.0)), 0.0, GRID_EPS / curve.dv

    def test_constant_windows_cost_no_taps(self, reference_curve):
        grid, dv, power = reference_curve.wind_grid, reference_curve.dv, reference_curve.power
        k, r0, slack = self._plan_inputs(reference_curve)
        rows, planned = _row_plan(k, 0.05, r0, slack, run_ids(power[:k]))
        assert len(rows) > 0
        # of the window's rows with sigma >= dv/2, exactly those whose window,
        # decided exactly, holds more than one value of the plateau-extended
        # input are planned, each with that window
        extended = np.concatenate([power[:k], np.full(len(grid), power[k - 1])])
        half = kernel_half_widths(0.05, grid[:k], dv, GRID_EPS)
        eligible = np.array([i for i, h in enumerate(half) if h is not None])
        windows = [extended[max(i - half[i], 0):i + half[i] + 1] for i in eligible]
        constant = np.array([np.all(w == w[0]) for w in windows])
        assert np.array_equal(rows, eligible[~constant])
        assert planned.tolist() == [half[i] for i in rows]
        # both kinds of constant row occur: wholly below cut-in and past rated
        assert set(extended[eligible[constant]]) == {0.0, 2000.0}
        rows, planned = _row_plan(k, 0.05, r0, slack, run_ids(np.full(k, 7.5)))
        assert len(rows) == 0 and len(planned) == 0

    def test_an_edge_on_a_grid_point_is_inside_the_window(self, reference_curve):
        # at TI 0.1, 5 sigma at 10 m/s is 5 m/s, 100 grid steps exactly
        k, r0, slack = self._plan_inputs(reference_curve)
        rows, half = _row_plan(k, 0.1, r0, slack, run_ids(reference_curve.power[:k]))
        (at,) = np.flatnonzero(rows == 200)
        assert half[at] == 100

    @pytest.mark.parametrize("dv", [0.1, 0.05, 0.04, 0.025, 0.01])
    def test_half_widths_in_grid_steps_are_the_exact_rule(self, dv):
        # on every make_wind_grid grid, the plan's rows and half-widths from
        # ti * r in grid steps are the rule decided exactly on the grid's
        # speeds; a rising power leaves no window constant, so none is pruned
        curve = PowerCurve(make_wind_grid(40.0, dv), np.arange(int(round(40.0 / dv)) + 1.0))
        k = len(curve.wind_grid)
        for ti in (0.001, 0.005, 0.01, 0.02, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3,
                   0.5, 0.9):
            rows, half = _row_plan(k, ti, curve.wind_grid[0] / curve.dv, GRID_EPS / curve.dv,
                                   run_ids(curve.power))
            exact = kernel_half_widths(ti, curve.wind_grid, curve.dv, GRID_EPS)
            assert rows.tolist() == [r for r, h in enumerate(exact) if h is not None]
            assert half.tolist() == [h for h in exact if h is not None]

    @pytest.mark.parametrize("dv", [0.05, 0.01])
    @pytest.mark.parametrize("j", [1, 37, 200])
    def test_a_grid_from_another_speed_keeps_its_origin(self, reference_spec,
                                                        reference_model, dv, j):
        # the curve from grid point j on: each row whose window stays inside
        # it is the same row of the whole curve, sigma taken at its own speed
        whole = ideal_curve(reference_spec, reference_model, dv=dv)
        grid = whole.wind_grid
        part = PowerCurve(grid[j:], whole.power[j:])
        smoothed = 0
        for ti in (0.02, 0.1, 0.15):
            half = [h or 0 for h in kernel_half_widths(ti, grid, dv, GRID_EPS)]
            inside = [i - j for i in range(j, len(grid)) if i - half[i] >= j]
            np.testing.assert_allclose(
                apply_turbulence(part, ti, cut_out=25.0).power[inside],
                apply_turbulence(whole, ti, cut_out=25.0).power[[i + j for i in inside]],
                rtol=0.0, atol=1e-11)
            smoothed += sum(half[i + j] > 0 and grid[i + j] <= 25.0 for i in inside)
        assert smoothed > 100

    @pytest.mark.parametrize("dv", [0.05, 0.01])
    def test_a_grid_moved_by_round_off_gives_the_same_curve(self, reference_spec,
                                                           reference_model, dv):
        # the same powers on np.linspace's grid and on (i * 40) / n, which
        # differ by at most 7.1e-15 m/s: each edge on a grid point stays inside
        n = int(round(40.0 / dv))
        power = ideal_curve(reference_spec, reference_model, dv=dv).power
        spaced = PowerCurve(np.linspace(0.0, 40.0, n + 1), power)
        scaled = PowerCurve(np.arange(n + 1) * 40.0 / n, power)
        assert 0 < np.abs(spaced.wind_grid - scaled.wind_grid).max() <= 7.2e-15
        for ti in (0.02, 0.1, 0.15):
            np.testing.assert_allclose(apply_turbulence(spaced, ti, cut_out=25.0).power,
                                       apply_turbulence(scaled, ti, cut_out=25.0).power,
                                       rtol=0.0, atol=1e-11)

    def test_row_plan_keeps_to_its_candidates(self, reference_curve):
        # the kernel plans every row and smooths only the candidates, each to
        # the value the full run gives it
        grid, power = reference_curve.wind_grid, reference_curve.power
        every = _smoothed(reference_curve, [0.05], 25.0, np.ones(len(grid), dtype=bool))[0]
        candidates = np.zeros(len(grid), dtype=bool)
        candidates[[100, 101, 200, 350, 450, 700]] = True
        some = _smoothed(reference_curve, [0.05], 25.0, candidates)[0]
        assert np.array_equal(some[candidates], every[candidates])
        # 100, 101 and 200 move; 350 has a constant window, 700 lies past cut-out
        moved = some != np.where(grid <= 25.0, power, 0.0)
        assert np.flatnonzero(moved).tolist() == [100, 101, 200]
        # rows past cut-out are never planned
        k, r0, slack = self._plan_inputs(reference_curve)
        rows, _ = _row_plan(k, 0.05, r0, slack, run_ids(power[:k]))
        assert rows.max() < k

    @pytest.mark.parametrize("ti, dv, cut_out, edge", [
        (0.05, 0.01, 25.0, None),
        (0.021, 0.05, 25.0, "rows"),     # narrow windows: more rows than columns
        (0.1197, 0.04, 25.0, "exact"),   # a block of exactly BLOCK_TAPS
        (0.3, 0.0025, 28.0, "wide"),     # rows wider than BLOCK_TAPS
        (0.203, 0.05, 25.0, "clipped"),  # windows cut at column 0 beside whole ones
    ])
    def test_blocks_are_the_longest_runs_within_the_bounds(self, ti, dv, cut_out, edge,
                                                           reference_model, monkeypatch):
        plans = []
        monkeypatch.setattr(environment, "_row_plan",
                            lambda *args: plans.append(_row_plan(*args)) or plans[-1])
        spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=cut_out))
        curve = ideal_curve(spec, reference_model, v_max=dv * round(40.0 / dv), dv=dv)
        _smoothed(curve, [ti], cut_out, np.ones(len(curve.wind_grid), dtype=bool))
        ((rows, half),) = plans
        blocks = list(_blocks(half))
        assert [b[0] for b in blocks] == [0, *(b[1] for b in blocks[:-1])]
        assert blocks[-1][1] == len(rows)
        shapes = []
        for first, last, wide in blocks:
            count = last - first
            assert wide == half[first:last].max()
            assert count * wide <= BLOCK_TAPS or count == 1
            if last < len(rows):
                # one more row would pass the bound
                assert (count + 1) * max(wide, half[last]) > BLOCK_TAPS
            shapes.append((count, wide))
        if edge == "rows":
            assert any(count > wide for count, wide in shapes)
        if edge == "exact":
            assert (64, 256) in shapes and 64 * 256 == BLOCK_TAPS
        if edge == "wide":
            assert any(wide > BLOCK_TAPS for _, wide in shapes)
        if edge == "clipped":
            # some block holds rows whose window reaches past column 0 (h > r)
            # and rows whose window does not
            assert any(0 < (half[first:last] > rows[first:last]).sum() < last - first
                       for first, last, _ in blocks)

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
                turbulent_power(reference_curve, [ti], wind, cut_out=25.0)[0],
                np.interp(wind, grid, full))

    def test_on_grid_samples_smooth_one_row_each(self, reference_curve, monkeypatch):
        masks = []

        def recording(curve, tis, cut_out, candidates):
            masks.append(candidates.copy())
            return _smoothed(curve, tis, cut_out, candidates)

        monkeypatch.setattr(environment, "_smoothed", recording)
        grid = reference_curve.wind_grid
        # a manufacturer curve every 0.25 m/s after its %.6g round trip, then
        # the same speeds off the grid
        on = np.array([float(f"{0.25 * i:.6g}") for i in range(121)])
        for wind in (on, on + 0.01):
            turbulent_power(reference_curve, [0.1], wind, cut_out=25.0)
        on_rows, off_rows = masks
        # one row per sample, 121 in all, where bracketing each would take 242
        np.testing.assert_array_equal(np.flatnonzero(on_rows), np.searchsorted(grid, on))
        j = np.searchsorted(grid, on + 0.01, "right") - 1
        assert off_rows[j].all() and off_rows[j + 1].all()

    def test_turbulent_power_rejects_negative_ti(self, reference_curve):
        with pytest.raises(ValueError, match="turbulence intensity"):
            turbulent_power(reference_curve, [-0.01], np.array([5.0]), cut_out=25.0)

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
        # a cut-out below the grid's first point leaves an empty window: all zero
        grid = reference_curve.wind_grid
        for ti in (0.0, 0.025, 0.05, 0.10, 0.5):
            assert not apply_turbulence(reference_curve, ti, cut_out=-1.0).power.any()
            assert not turbulent_power(reference_curve, [ti], grid, cut_out=-1.0).any()

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

    def test_left_sums_are_masked_only_past_column_0(self, reference_curve, monkeypatch):
        # a block sums its left weights apart (np.where zeroes row 0's empty
        # segment) only when a computed row's window passes the grid's first
        # column, h > r, which at TI < 0.2 on a grid from 0 m/s none does;
        # elsewhere each row's left sum is its right one
        want = {ti: apply_turbulence(reference_curve, ti, cut_out=25.0).power
                for ti in (0.05, 0.15, 0.25)}
        masked = []

        class Numpy:
            def __getattr__(self, attr):
                if attr == "where":
                    masked.append(attr)
                return getattr(np, attr)

        monkeypatch.setattr(environment, "np", Numpy())
        for ti, power in want.items():
            got = apply_turbulence(reference_curve, ti, cut_out=25.0).power
            assert got.tobytes() == power.tobytes()
            assert bool(masked) == (ti == 0.25), ti

    @pytest.mark.parametrize("dv", [0.05, 0.01])
    @pytest.mark.parametrize("ti", [0.05, 0.15, 0.3])
    @pytest.mark.parametrize("taps", [2 ** 6, 2 ** 10, 2 ** 12])
    def test_a_row_does_not_depend_on_its_block(self, reference_spec, reference_model,
                                                monkeypatch, dv, ti, taps):
        # each row sums its own window alone, so cutting the rows into other
        # blocks moves no byte
        curve = ideal_curve(reference_spec, reference_model, dv=dv)
        want = apply_turbulence(curve, ti, cut_out=25.0).power
        monkeypatch.setattr(environment, "BLOCK_TAPS", taps)
        assert apply_turbulence(curve, ti, cut_out=25.0).power.tobytes() == want.tobytes()

    def test_a_window_with_no_left_column(self, reference_curve):
        # on a grid from 2 m/s (r0 = 40) at TI 0.3, row 0's window reaches
        # h = 60 steps left of it, where the grid has no column: its left
        # sum is empty, not its first weight
        grid = 2.0 + 0.05 * np.arange(601)
        curve = PowerCurve(grid, reference_curve.power[40:641])
        k = int(np.sum(grid <= 25.0))
        rows, half = _row_plan(k, 0.3, grid[0] / curve.dv, GRID_EPS / curve.dv,
                               run_ids(curve.power[:k]))
        assert rows[0] == 0 and half[0] == 60
        out = apply_turbulence(curve, 0.3, cut_out=25.0).power
        assert out[0] > 0.0
        np.testing.assert_allclose(out, convolve_reference(grid, curve.power, 0.3, 25.0),
                                   rtol=1e-12, atol=1e-9)
        np.testing.assert_array_equal(turbulent_power(curve, [0.3], grid, cut_out=25.0)[0], out)

    @pytest.mark.parametrize("dv", [0.05, 0.01, 1e-9])
    def test_warns_about_nothing(self, reference_spec, reference_model, dv):
        # sigma is 0 at 0 m/s: a weight computed for a row outside the plan
        # would divide by it, and a step below 2 * GRID_EPS must not plan row 0
        curve = (PowerCurve(np.arange(11) * dv, np.arange(11.0)) if dv < 2 * GRID_EPS
                 else ideal_curve(reference_spec, reference_model, dv=dv))
        wind = np.concatenate([curve.wind_grid[::7], curve.wind_grid[::7] + dv / 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ti, cut_out in itertools.product((0.02, 0.15, 0.3, 0.9), (25.0, -1.0)):
                apply_turbulence(curve, ti, cut_out=cut_out)
                turbulent_power(curve, [ti], wind, cut_out=cut_out)
            for cut_out in (25.0, -1.0):
                turbulent_power(curve, [0.3, 0.0, 0.9, 0.02, 0.15, 0.02], wind, cut_out=cut_out)


class TestTurbulenceBatch:
    """The kernel takes a sequence of TIs and gives one row per TI."""

    @staticmethod
    def _recording(monkeypatch, name):
        calls = []
        stage = getattr(environment, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return stage(*args, **kwargs)

        monkeypatch.setattr(environment, name, recorded)
        return calls

    @staticmethod
    def _numpy_lookups(monkeypatch):
        # every numpy name the environment module looks up
        lookups = []

        class Numpy:
            def __getattr__(self, attr):
                lookups.append(attr)
                return getattr(np, attr)

        monkeypatch.setattr(environment, "np", Numpy())
        return lookups

    @pytest.mark.parametrize("shape", [(0,), (7,), (4, 6)])
    def test_rows_follow_the_tis_and_keep_the_shape_of_wind(self, reference_curve, shape):
        tis = [0.1, 0.0, 0.25, 0.1]
        wind = np.linspace(0.0, 30.0, int(np.prod(shape))).reshape(shape)
        batch = turbulent_power(reference_curve, tis, wind, cut_out=25.0)
        assert batch.shape == (len(tis), *shape)
        for row, ti in zip(batch, tis):
            np.testing.assert_array_equal(
                row, turbulent_power(reference_curve, [ti], wind, cut_out=25.0)[0])
        assert turbulent_power(reference_curve, [], wind, cut_out=25.0).shape == (0, *shape)
        every = np.ones(len(reference_curve.wind_grid), dtype=bool)
        assert _smoothed(reference_curve, np.array(tis), 25.0, every).shape == (
            len(tis), len(reference_curve.wind_grid))

    def test_setup_is_built_once_per_call(self, reference_curve, monkeypatch):
        plans = self._recording(monkeypatch, "_row_plan")
        views = self._recording(monkeypatch, "sliding_window_view")
        lookups = self._numpy_lookups(monkeypatch)
        wind = np.arange(0.0, 30.25, 0.25)
        # a batch whose TIs are all 0 returns before anything is planned,
        # padded or allocated for the blocks
        turbulent_power(reference_curve, [0.0], wind, cut_out=25.0)
        turbulent_power(reference_curve, [0.0, -0.0, 0.0], wind, cut_out=25.0)
        turbulent_power(reference_curve, [], wind, cut_out=25.0)
        apply_turbulence(reference_curve, 0.0, cut_out=25.0)
        assert plans == [] and views == [] and "empty" not in lookups
        # each TI of a mixed batch plans its own rows, TI 0 none; the padded
        # power is viewed once, and the workspace of its two block arrays,
        # weights and paired power, is allocated once for every block of every TI
        turbulent_power(reference_curve, [0.0, 0.05, 0.3, 0.05], wind, cut_out=25.0)
        assert len(plans) == 4 and len(views) == 1 and lookups.count("empty") == 2
        assert all(len(a) == 0 for a in _row_plan(*plans[0]))
        # padded to the widest half-width of the batch, TI 0.3's at 25 m/s
        assert views[0][1] == (0.3 * 25.0 * 5.0 + GRID_EPS) // 0.05
        plans.clear()
        views.clear()
        turbulent_power(reference_curve, [0.05], wind, cut_out=25.0)
        assert len(plans) == 1 and len(views) == 1

    def test_the_workspace_carries_nothing_between_tis(self, reference_model):
        # TI 0.3 has rows wider than BLOCK_TAPS, so the workspace is wider than
        # a block of the narrower TIs that follow it through the same arrays
        spec = TurbineSpec(**dict(REFERENCE_KWARGS, cut_out=28.0))
        curve = ideal_curve(spec, reference_model, v_max=40.0, dv=0.0025)
        k = int(np.searchsorted(curve.wind_grid, 28.0 + GRID_EPS, "right"))
        assert KERNEL_REACH * 0.3 * (k - 1) > BLOCK_TAPS
        tis = [0.3, 0.02, 0.15, 0.02]
        every = np.ones(len(curve.wind_grid), dtype=bool)
        batch = _smoothed(curve, tis, 28.0, every)
        for row, ti in zip(batch, tis):
            assert row.tobytes() == _smoothed(curve, [ti], 28.0, every)[0].tobytes(), ti
        # a candidate subset, one row in 37 and the rows either side of 11 m/s,
        # gives those rows the values the full rows hold
        some = np.zeros(len(curve.wind_grid), dtype=bool)
        some[::37] = True
        some[4395:4405] = True
        subset = _smoothed(curve, tis, 28.0, some)
        assert subset[:, some].tobytes() == batch[:, some].tobytes()

    @pytest.mark.parametrize("tis", [0.05, np.float64(0.05), np.array(0.05),
                                     np.array([[0.05, 0.1]]), None, (t for t in [0.05]),
                                     "0.05", b"0.05"])
    def test_a_scalar_ti_is_refused_before_any_work(self, reference_curve, monkeypatch, tis):
        checks = self._recording(monkeypatch, "_check_ti")
        lookups = self._numpy_lookups(monkeypatch)
        with pytest.raises(ValueError, match=r"^tis must be a 1-D sequence of turbulence "):
            turbulent_power(reference_curve, tis, np.array([5.0]), cut_out=25.0)
        assert checks == [] and lookups == []

    @pytest.mark.parametrize("at", [0, 1, 3])
    @pytest.mark.parametrize("bad", [-0.01, 1.0, np.nan])
    def test_a_bad_ti_anywhere_fails_before_any_block(self, reference_curve, monkeypatch,
                                                      at, bad):
        with pytest.raises(ValueError) as single:
            turbulent_power(reference_curve, [bad], np.array([5.0]), cut_out=25.0)
        blocks = self._recording(monkeypatch, "_blocks")
        tis = [0.05, 0.0, 0.3]
        tis.insert(at, bad)
        with pytest.raises(ValueError) as batch:
            turbulent_power(reference_curve, tis, np.array([5.0]), cut_out=25.0)
        assert str(batch.value) == str(single.value)
        assert blocks == []

    def test_a_taps_cap_only_the_last_ti_passes_fails_before_any_block(self, reference_curve,
                                                                       monkeypatch):
        plans = self._recording(monkeypatch, "_row_plan")
        tis = [0.05, 0.0, 0.02, 0.1]
        turbulent_power(reference_curve, tis, np.array([5.0]), cut_out=25.0)
        taps = [int((half + np.minimum(half, rows) + 1).sum())
                for rows, half in (_row_plan(*args) for args in plans)]
        assert len(taps) == 4 and taps[1] == 0 and max(taps[:-1]) < taps[-1]
        monkeypatch.setattr(environment, "MAX_TURBULENCE_TAPS", taps[-1] - 1)
        with pytest.raises(ValueError) as single:
            turbulent_power(reference_curve, [0.1], np.array([5.0]), cut_out=25.0)
        assert str(single.value) == (f"turbulence kernel of {taps[-1]} taps at TI 0.1 "
                                     f"exceeds MAX_TURBULENCE_TAPS = {taps[-1] - 1}")
        blocks = self._recording(monkeypatch, "_blocks")
        with pytest.raises(ValueError) as batch:
            turbulent_power(reference_curve, tis, np.array([5.0]), cut_out=25.0)
        assert str(batch.value) == str(single.value)
        assert blocks == []


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

    def test_requires_rotor_diameter(self, reference_curve):
        # the message complete_spec and invert_cp give, not a TypeError
        spec = TurbineSpec(cut_out=25.0, hub_height=100.0)
        message = r"^turbine: missing mandatory field\(s\): rotor_diameter$"
        with pytest.raises(MissingMandatoryField, match=message):
            rews_factor(spec, 0.2, 0.0)
        with pytest.raises(MissingMandatoryField, match=message):
            apply_shear_veer(reference_curve, spec, 0.2, 0.0)


@pytest.mark.parametrize("repeat", [1, 3])
def test_np_interp_returns_fp_on_a_grid_point_unread_neighbours(repeat):
    # turbulent_power leaves row j + 1 unsmoothed for a speed on grid[j], which
    # holds only while np.interp returns fp[j] there without reading fp[j + 1].
    # repeat 1 takes numpy's direct path (len(x) <= len(xp)), repeat 3 the one
    # with precomputed slopes (len(x) > len(xp)); the inf poisons any slope.
    x = np.tile([0.0, 1.0, 2.0], repeat)
    np.testing.assert_array_equal(np.interp(x, [0.0, 1.0, 2.0], [1.0, np.inf, 3.0]),
                                  np.tile([1.0, np.inf, 3.0], repeat))


def test_np_add_reduceat_sums_each_segment_alone():
    # the turbulence kernel sums row i of a block as the segment [i * H,
    # i * H + h_i) of its flattened weights: an empty segment [i, i) gives
    # a[i], so the kernel zeroes it, and a segment's sum must not depend on
    # what precedes or follows it, which makes a row independent of its block
    rng = np.random.default_rng(3)
    a = rng.random(50)
    np.testing.assert_array_equal(np.add.reduceat(a, [0, 0, 7, 7, 20]),
                                  [a[0], a[:7].sum(), a[7], a[7:20].sum(), a[20:].sum()])
    for length in (1, 7, 8, 9, 127, 128, 129, 1000, 4097):
        segment = rng.random(length)
        alone = np.add.reduceat(segment, [0])[0]
        for before, after in ((0, 1), (3, 5), (17, length), (64, 4 * length)):
            a = rng.random(before + length + after)
            a[before:before + length] = segment
            got = np.add.reduceat(a, [before, before + length])[0]
            assert got.tobytes() == alone.tobytes(), (length, before, after)


def test_kernel_sums_without_blas():
    # BLAS rounds a row by its block's shape, which would break the bit
    # identity of turbulent_power with np.interp over apply_turbulence
    source = Path(__file__).resolve().parents[1] / "src" / "windcurve" / "environment.py"
    blas = {"dot", "matmul", "einsum", "inner", "tensordot"}
    found = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in blas:
                found.append(f"line {node.lineno}: {name}()")
    assert found == []
