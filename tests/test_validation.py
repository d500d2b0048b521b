import dataclasses
import io
import json

import numpy as np
import pytest

from windcurve import (BETZ_LIMIT, EnvironmentConditions, MeasuredCurve,
                       MissingMandatoryField, TurbineSpec, betz_screen,
                       complete_spec, invert_cp, match_over_ti, synthesize,
                       turbulent_power, validate_directory)
from windcurve import validation
from windcurve.cp_models import REGISTRY
from windcurve.validation import (SUMMARY_CSV_HEADER, write_report_json,
                                  write_summary_csv)


def sample_curve(curve, winds):
    return np.interp(winds, curve.wind_grid, curve.power)


@pytest.fixture
def synthetic_measured(defaults_spec):
    """Measured curve taken verbatim from the model itself at ti=0."""
    curve, _ = synthesize(defaults_spec, EnvironmentConditions(ti=0.0))
    winds = np.arange(0.0, 30.5, 0.5)
    return MeasuredCurve(turbine=defaults_spec, wind=winds,
                         power=sample_curve(curve, winds))


class TestMeasuredCurve:
    def test_needs_enough_samples(self, defaults_spec):
        with pytest.raises(ValueError, match="4 samples"):
            MeasuredCurve(defaults_spec, np.array([1.0, 2.0, 3.0]), np.zeros(3))

    def test_winds_strictly_increasing(self, defaults_spec):
        with pytest.raises(ValueError, match="increasing"):
            MeasuredCurve(defaults_spec, np.array([1.0, 2.0, 2.0, 3.0]), np.zeros(4))

    def test_powers_non_negative(self, defaults_spec):
        with pytest.raises(ValueError, match=">= 0"):
            MeasuredCurve(defaults_spec, np.arange(4.0), np.array([0, 1, -2, 1.0]))


class TestInvertCp:
    def test_round_trip_recovers_cp_max(self, synthetic_measured):
        # below rated and away from the rotation-speed clamps the model sits
        # exactly at its peak power coefficient
        _, cp_max = invert_cp(synthetic_measured, rho=1.225)
        assert cp_max == pytest.approx(0.44, abs=1e-6)

    def test_all_zero_powers(self, defaults_spec):
        m = MeasuredCurve(defaults_spec, np.arange(1.0, 6.0), np.zeros(5))
        _, cp_max = invert_cp(m)
        assert cp_max == 0.0

    def test_zero_wind_sample_ignored(self, defaults_spec):
        m = MeasuredCurve(defaults_spec, np.array([0.0, 5.0, 6.0, 7.0]),
                          np.array([0.0, 100.0, 160.0, 250.0]))
        cp, cp_max = invert_cp(m)
        assert np.isnan(cp[0])
        assert cp_max > 0

    def test_betz_breaking_sample_flagged(self, defaults_spec):
        area = np.pi * 80.0 ** 2 / 4.0
        v = np.array([5.0, 6.0, 7.0, 8.0])
        limit_power = 0.5 * 1.225 * area * v ** 3 * BETZ_LIMIT / 1000.0
        m = MeasuredCurve(defaults_spec, v, limit_power * 1.05)
        _, cp_max = invert_cp(m)
        assert cp_max > BETZ_LIMIT
        assert betz_screen(cp_max)

    def test_missing_diameter(self):
        spec = TurbineSpec(name="bare", rated_power=2000.0)
        m = MeasuredCurve(spec, np.arange(4.0, 8.0), np.ones(4))
        with pytest.raises(MissingMandatoryField,
                           match="^bare: missing mandatory field\\(s\\): rotor_diameter$"):
            invert_cp(m)


class TestBetzScreen:
    def test_threshold(self):
        assert not betz_screen(0.44)
        assert not betz_screen(BETZ_LIMIT)      # boundary is inclusive-valid
        assert betz_screen(0.62)
        assert betz_screen(BETZ_LIMIT + 1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            betz_screen(-0.1)


class TestMatchOverTi:
    def test_integer_ti_scored_as_float(self, defaults_spec):
        curve, _ = synthesize(defaults_spec)
        winds = np.arange(0.0, 30.5, 0.5)
        result = match_over_ti(MeasuredCurve(defaults_spec, winds, sample_curve(curve, winds)),
                               [0])
        assert type(result.best_ti) is float
        assert [type(ti) for ti in result.rmse_by_ti] == [float]

    def test_self_consistency_round_trip(self, defaults_spec):
        curve, _ = synthesize(defaults_spec, EnvironmentConditions(ti=0.05))
        winds = np.arange(0.0, 30.5, 0.5)
        m = MeasuredCurve(defaults_spec, winds, sample_curve(curve, winds))
        result = match_over_ti(m)
        assert result.best_ti == 0.05
        assert result.rmse_best < 1e-9
        assert set(result.rmse_by_ti) == {0.0, 0.025, 0.05, 0.075, 0.10}
        assert not result.betz_violation
        assert not result.shape_anomaly

    def test_noisy_recovery_single_seed(self, defaults_spec):
        # grid-dense sampling; the 20-seed recovery-rate experiment lives in
        # the acceptance suite
        curve, _ = synthesize(defaults_spec, EnvironmentConditions(ti=0.075))
        winds = np.arange(0.0, 30.0 + 1e-9, 0.05)
        rng = np.random.default_rng(7)
        noisy = sample_curve(curve, winds) * (1 + 0.01 * rng.standard_normal(len(winds)))
        m = MeasuredCurve(defaults_spec, winds, np.maximum(noisy, 0.0))
        assert match_over_ti(m).best_ti == 0.075

    def test_partial_spec_is_completed_and_reported(self):
        partial = TurbineSpec(name="partial", rotor_diameter=80.0, rated_power=2000.0)
        completed, _ = complete_spec(partial)
        curve, _ = synthesize(completed, EnvironmentConditions(ti=0.025))
        winds = np.arange(0.0, 30.5, 0.5)
        m = MeasuredCurve(partial, winds, sample_curve(curve, winds))
        result = match_over_ti(m)
        assert result.best_ti == 0.025
        assert {d["field"] for d in result.filled_defaults} == {
            "cut_in", "cut_out", "cp_max", "omega_min", "omega_max"}

    def test_degenerate_zero_curve_is_deterministic(self, defaults_spec):
        winds = np.arange(0.0, 30.5, 0.5)
        m = MeasuredCurve(defaults_spec, winds, np.zeros(len(winds)))
        first = match_over_ti(m)
        second = match_over_ti(m)
        assert first.best_ti == second.best_ti
        assert all(r > 0 for r in first.rmse_by_ti.values())
        assert first.shape_anomaly

    def test_tie_breaks_to_smallest_ti(self, synthetic_measured):
        # below sigma = dv/2 at every grid point a TI changes nothing, so the
        # two candidates tie exactly; the smaller must win
        result = match_over_ti(synthetic_measured, ti_grid=[1e-6, 0.05, 0.0])
        assert result.rmse_by_ti[1e-6] == result.rmse_by_ti[0.0]
        assert result.best_ti == 0.0

    def test_synthesized_once_and_each_distinct_ti_smoothed_once(self, synthetic_measured,
                                                                 monkeypatch):
        synthesized, smoothed = [], []

        def counting_synthesize(spec, env, **kwargs):
            synthesized.append(env.ti)
            return synthesize(spec, env, **kwargs)

        def counting_power(curve, ti, wind, **kwargs):
            smoothed.append(ti)
            return turbulent_power(curve, ti, wind, **kwargs)

        monkeypatch.setattr(validation, "synthesize", counting_synthesize)
        monkeypatch.setattr(validation, "turbulent_power", counting_power)
        result = match_over_ti(synthetic_measured, ti_grid=[0.05, 0.05, 0.05])
        assert synthesized == [0.0]
        assert smoothed == [0.05]
        assert list(result.rmse_by_ti) == [0.05]
        synthesized.clear()
        smoothed.clear()
        match_over_ti(synthetic_measured, ti_grid=[0.1, 0.0, 0.1, 0, 0.05])
        assert synthesized == [0.0]
        assert smoothed == [0.0, 0.05, 0.1]

    @pytest.mark.parametrize("ti_grid", [validation.DEFAULT_TI_GRID, (0.1, 0, 0.05, 0.1, 0.13)])
    @pytest.mark.parametrize("cp_model", sorted(REGISTRY))
    def test_scores_match_one_synthesis_per_ti(self, cp_model, ti_grid):
        rho = 1.1
        spec = TurbineSpec(name="oracle", rotor_diameter=90.0, rated_power=2500.0)
        truth, _ = synthesize(spec, EnvironmentConditions(ti=0.06, rho=rho), cp_model=cp_model)
        wind = np.arange(0.0, 30.0, 0.37)
        power = np.interp(wind, truth.wind_grid, truth.power) * (1.0 + 0.02 * np.sin(wind))
        m = MeasuredCurve(spec, wind, power)

        # the scores as every TI's own synthesis, sampled by np.interp, gives them
        completed, report = complete_spec(spec)
        _, cp_max = invert_cp(m, rho)
        mask = (wind >= completed.cut_in) & (wind <= 0.95 * completed.cut_out)
        rmse = {}
        for ti in sorted({float(t) for t in ti_grid}):
            curve, _ = synthesize(completed, EnvironmentConditions(ti=ti, rho=rho),
                                  cp_model=cp_model)
            model_p = np.interp(wind[mask], curve.wind_grid, curve.power)
            rmse[ti] = float(np.sqrt(np.mean((model_p - power[mask]) ** 2))
                             / completed.rated_power)
        best = min(rmse, key=rmse.get)
        expected = {
            "name": "oracle", "cp_max_extracted": cp_max,
            "betz_violation": cp_max > BETZ_LIMIT, "best_ti": best,
            "rmse_by_ti": {f"{ti:g}": r for ti, r in rmse.items()}, "rmse_best": rmse[best],
            "shape_anomaly": rmse[best] > validation.SHAPE_ANOMALY_NRMSE,
            "filled_defaults": report,
        }
        result = match_over_ti(m, ti_grid, rho=rho, cp_model=cp_model)
        assert result.to_dict() == expected

    def test_comparison_range_excludes_cut_out_vicinity(self, defaults_spec):
        # corrupt the measured data above 0.95*cut_out only; the score must
        # not see it
        curve, _ = synthesize(defaults_spec, EnvironmentConditions(ti=0.05))
        winds = np.arange(0.0, 30.5, 0.5)
        power = sample_curve(curve, winds)
        power[winds > 0.95 * 25.0] = 0.0
        m = MeasuredCurve(defaults_spec, winds, power)
        result = match_over_ti(m)
        assert result.best_ti == 0.05
        assert result.rmse_best < 1e-9

    def test_empty_ti_grid(self, synthetic_measured):
        with pytest.raises(ValueError):
            match_over_ti(synthetic_measured, ti_grid=[])


class TestBatchValidation:
    @pytest.fixture
    def batch_dir(self, tmp_path, defaults_spec):
        winds = np.arange(0.0, 30.5, 0.5)
        for name, ti in (("alpha", 0.05), ("beta", 0.10)):
            spec = TurbineSpec(name=name, rotor_diameter=80.0, rated_power=2000.0)
            completed, _ = complete_spec(spec)
            curve, _ = synthesize(completed, EnvironmentConditions(ti=ti))
            power = sample_curve(curve, winds)
            csv_path = tmp_path / f"{name}.csv"
            with csv_path.open("w") as fh:
                fh.write("wind_speed_ms,power_kw\n")
                for w, p in zip(winds, power):
                    fh.write(f"{w:.6g},{p:.6g}\n")
            (tmp_path / f"{name}.json").write_text(json.dumps(dataclasses.asdict(spec)))
        return tmp_path

    def test_directory_run(self, batch_dir):
        results = validate_directory(batch_dir)
        assert [r.name for r in results] == ["alpha", "beta"]
        assert results[0].best_ti == 0.05
        assert results[1].best_ti == 0.10

    @pytest.mark.parametrize("ti_grid, kwargs, match", [
        ([], {}, "ti_grid must not be empty"),
        ([0.05], {"cp_model": 5}, "cp_model must be of type str"),
        ([False, "0.05"], {}, "^ti must be of type Real, got False$"),
        ([0.05, "0.05"], {}, "^ti must be of type Real, got '0.05'$")])
    def test_bad_settings_rejected_without_pairs(self, tmp_path, ti_grid, kwargs, match):
        with pytest.raises(ValueError, match=match):
            validate_directory(tmp_path, ti_grid, **kwargs)

    def test_missing_sidecar(self, batch_dir):
        (batch_dir / "gamma.csv").write_text("wind_speed_ms,power_kw\n1,0\n")
        with pytest.raises(FileNotFoundError):
            validate_directory(batch_dir)

    def test_duplicate_tis_write_the_same_bytes(self, batch_dir):
        def written(ti_grid):
            results = validate_directory(batch_dir, ti_grid)
            report, summary = io.StringIO(), io.StringIO()
            write_report_json(results, report)
            write_summary_csv(results, summary)
            return report.getvalue(), summary.getvalue()

        assert written([0.1, 0.05, 0.1, 0.0, 0.05, 0.0]) == written([0.0, 0.05, 0.1])

    def test_report_writers(self, batch_dir, tmp_path):
        results = validate_directory(batch_dir)
        js = io.StringIO()
        write_report_json(results, js)
        payload = json.loads(js.getvalue())
        assert len(payload) == 2
        assert payload[0]["name"] == "alpha"
        assert "rmse_by_ti" in payload[0]

        cs = io.StringIO()
        write_summary_csv(results, cs)
        lines = cs.getvalue().splitlines()
        assert lines[0] == SUMMARY_CSV_HEADER
        assert lines[1].startswith("alpha,")
        assert ",false," in lines[1]
