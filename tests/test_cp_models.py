import math

import numpy as np
import pytest

from windcurve import (BETZ_LIMIT, REGISTRY, CpParameterisation, NoPositiveCp,
                       ScaledCpModel, UnknownParameterisation, cp_general_array,
                       get_parameterisation, lambda_opt, registry_to_json,
                       scale_cp)

from oracles import brute_lambda_opt, cp_direct, cp_mp

# Frozen oracle values: mpmath evaluation of the family for the dai2016 row,
# and exhaustive argmax at grid step 1e-5 over [0.5, 25].
CP_DAI2016_AT_8 = 0.45848047738060696
BRUTE_OPT = {
    "slootweg2003": (6.90774, 0.4411993813),
    "heier2014": (7.95403, 0.4109631035),
    "thongam2009": (8.10012, 0.4800119028),
    "dekooning2013": (6.76841, 0.4405431638),
    "ochieng2014": (7.20931, 0.6350038184),
    "dai2016": (9.94950, 0.5000139362),
}


def _params(**kw) -> CpParameterisation:
    base = dict(name="adhoc", c1=0, c2=0, c3=0, c4=0, c5=0, c6=0, c7=0, c8=0,
                c9=0, c10=0, x=1.0)
    base.update(kw)
    return CpParameterisation(**base)


def _cp(lam: float, beta: float, p: CpParameterisation) -> float:
    return float(cp_general_array(np.array([lam]), beta, p)[0])


class TestCpGeneral:
    def test_zero_coefficients_give_zero(self):
        assert _cp(7.0, 0.0, _params()) == 0.0

    def test_pure_linear_term(self):
        assert _cp(5.0, 0.0, _params(c8=0.1)) == pytest.approx(0.5, abs=1e-15)

    def test_dai2016_matches_high_precision_oracle(self):
        p = get_parameterisation("dai2016")
        got = _cp(8.0, 0.0, p)
        assert got == pytest.approx(CP_DAI2016_AT_8, abs=1e-12)
        # and the frozen constant matches a live arbitrary-precision run
        assert float(cp_mp(8.0, 0.0, p)) == pytest.approx(CP_DAI2016_AT_8, abs=1e-15)

    def test_negative_values_clamp_to_zero(self):
        # heier2014 turns negative shortly before its pole near lambda 28.6
        assert _cp(28.0, 0.0, get_parameterisation("heier2014")) == 0.0

    def test_degenerate_lambda_raises(self):
        # past the pole, at zero and below, cp is masked to 0
        assert _cp(30.0, 0.0, get_parameterisation("heier2014")) == 0.0
        assert _cp(0.0, 0.0, get_parameterisation("heier2014")) == 0.0
        assert _cp(-1.0, 0.0, get_parameterisation("dai2016")) == 0.0

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0, 5.0])
    def test_array_agrees_with_scalar(self, name, beta):
        p = REGISTRY[name]
        lams = np.linspace(0.2, 30.0, 313)
        vec = cp_general_array(lams, beta, p)
        for lam, v in zip(lams, vec):
            assert v == pytest.approx(cp_direct(float(lam), beta, p), abs=1e-14)

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            _params(c2=float("inf"))

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_pole_of_pitch_term_raises(self, name):
        # shifted pitch b = -1 zeroes b**3 + 1
        p = REGISTRY[name]
        with pytest.raises(ValueError, match=f"{name}: cp is not real and finite"):
            cp_general_array(np.array([7.0]), -1.0 - p.beta_offset, p)

    def test_negative_pitch_with_fractional_exponent_raises(self):
        # b**x is complex for b < 0 and a non-integer x (slootweg2003: x = 2.14)
        with pytest.raises(ValueError, match="slootweg2003: cp is not real and finite"):
            cp_general_array(np.array([7.0]), -2.0, get_parameterisation("slootweg2003"))
        assert np.isrealobj(cp_general_array(np.array([7.0]), -2.0,
                                             get_parameterisation("heier2014")))

    def test_zero_pitch_with_negative_exponent_raises(self):
        with pytest.raises(ValueError, match="adhoc: cp is not real and finite"):
            cp_general_array(np.array([7.0]), 0.0, _params(c5=0.1, x=-1.0))


class TestLambdaOpt:
    def test_linear_objective_hits_upper_bound(self):
        lam, cp = lambda_opt(_params(c8=0.1))
        assert lam == 25.0
        assert cp == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("name", ["dai2016", "heier2014"])
    def test_matches_brute_force_grid(self, name):
        lam, cp = lambda_opt(REGISTRY[name])
        lam_ref, cp_ref = BRUTE_OPT[name]
        assert lam == pytest.approx(lam_ref, abs=1e-4)
        assert cp == pytest.approx(cp_ref, abs=1e-8)

    def test_frozen_table_matches_live_brute_force(self):
        # guards the frozen constants themselves
        for name, (lam_ref, cp_ref) in BRUTE_OPT.items():
            lam, cp = brute_lambda_opt(REGISTRY[name], dl=1e-4)
            assert lam == pytest.approx(lam_ref, abs=2e-4)
            assert cp == pytest.approx(cp_ref, abs=1e-7)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_refined_peak_dominates_search_grid(self, name):
        p = REGISTRY[name]
        lam, cp = lambda_opt(p)
        grid = np.linspace(0.5, 25.0, 2451)
        assert cp >= cp_general_array(grid, 0.0, p).max() - 1e-12

    def test_unusable_parameterisation(self):
        with pytest.raises(NoPositiveCp):
            lambda_opt(_params())

    def test_cache_is_bounded(self):
        # callers may build arbitrary coefficient sets, so it must not grow forever
        assert lambda_opt.cache_info().maxsize is not None

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_cached_equals_fresh(self, name):
        p = REGISTRY[name]
        lambda_opt(p)
        assert lambda_opt(p) == lambda_opt.__wrapped__(p)


class TestScaleCp:
    def test_identity_scaling(self):
        p = get_parameterisation("heier2014")
        lam, raw = lambda_opt(p)
        model = scale_cp(p, raw)
        assert model.scale == pytest.approx(1.0, abs=1e-15)
        for l in (4.0, 7.0, 9.5):
            assert model.cp_array(np.array([l]))[0] == _cp(l, 0.0, p)

    @pytest.mark.parametrize("cp_max", [0.44, 0.4615])
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_scaled_peak_equals_cp_max(self, name, cp_max):
        model = scale_cp(REGISTRY[name], cp_max)
        assert model.cp_array(np.array([model.lambda_opt]))[0] == pytest.approx(
            cp_max, abs=1e-9)
        grid = np.linspace(0.5, 25.0, 2451)
        assert model.cp_array(grid).max() == pytest.approx(cp_max, abs=1e-6)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_scaling_does_not_move_the_argmax(self, name):
        p = REGISTRY[name]
        lam_base, _ = lambda_opt(p)
        model = scale_cp(p, 0.3)
        grid = np.linspace(0.5, 25.0, 24501)
        assert grid[np.argmax(model.cp_array(grid))] == pytest.approx(lam_base, abs=2e-3)

    def test_betz_guard(self):
        p = get_parameterisation("dai2016")
        with pytest.raises(ValueError):
            scale_cp(p, 0.6)
        with pytest.raises(ValueError):
            scale_cp(p, 0.0)
        with pytest.raises(ValueError):
            ScaledCpModel(base=p, cp_max=BETZ_LIMIT + 1e-6, lambda_opt=9.9,
                          raw_cp_at_opt=0.5)
        # the limit itself is allowed
        assert scale_cp(p, BETZ_LIMIT).cp_max == BETZ_LIMIT

    def test_propagates_no_positive_cp(self):
        with pytest.raises(NoPositiveCp):
            scale_cp(_params(), 0.44)


class TestRegistry:
    def test_six_distinct_parameterisations(self):
        assert len(REGISTRY) == 6
        assert len({p.name for p in REGISTRY.values()}) == 6
        assert len({tuple(getattr(p, f"c{i}") for i in range(1, 11))
                    for p in REGISTRY.values()}) == 6

    def test_case_insensitive_lookup(self):
        assert get_parameterisation("Dai2016").name == "dai2016"
        assert get_parameterisation(" HEIER2014 ").name == "heier2014"

    def test_unknown_name(self):
        with pytest.raises(UnknownParameterisation):
            get_parameterisation("nosuchmodel")

    @pytest.mark.parametrize("name", [5, None])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ValueError, match=f"^cp_model must be of type str, got {name}$"):
            get_parameterisation(name)

    def test_json_export(self):
        import json
        rows = json.loads(registry_to_json())
        assert len(rows) == 6
        for row in rows:
            assert set(row) == {"name", "c1", "c2", "c3", "c4", "c5", "c6",
                                "c7", "c8", "c9", "c10", "x", "beta_offset",
                                "provenance"}
            assert row["provenance"]

    def test_all_raw_shapes_single_peaked_on_domain(self):
        # every bundled set rises to one peak and falls after it (where
        # positive), which the clamped-rotor reasoning relies on
        grid = np.linspace(0.5, 25.0, 2451)
        for p in REGISTRY.values():
            cps = cp_general_array(grid, 0.0, p)
            i = int(np.argmax(cps))
            rising = cps[: i + 1]
            falling = cps[i:]
            assert np.all(np.diff(rising) >= -1e-12)
            pos = falling > 0
            run = falling[: int(np.argmin(pos)) if not pos.all() else len(falling)]
            assert np.all(np.diff(run) <= 1e-12)
