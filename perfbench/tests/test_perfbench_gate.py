from pathlib import Path

import numpy as np
import pytest

from wcbench import hostref
from wcbench.gate import Case
from wcbench.stats import percentile
from wcbench.workloads import FleetLaminar, _synthesize, make

ROOT = Path(__file__).resolve().parents[2]


CASES = {
    "laminar": Case({"name": "g", "rotor_diameter": 90.0, "rated_power": 2500.0,
                     "hub_height": 80.0}, "heier2014", rho=1.2, shear_alpha=0.2, veer_rate=0.3),
    "turbulent": Case({"name": "g", "rotor_diameter": 60.0, "rated_power": 900.0,
                       "cut_in": 3.5, "cut_out": 22.0, "omega_min": 12.0, "omega_max": 24.0,
                       "cp_max": 0.45}, "dai2016", ti=0.08, rho=1.15),
}


def _plant(power, grid, kind, rated, cut_out):
    bad = power.copy()
    if kind == "nan":
        bad[200] = np.nan
    elif kind == "above_rated":
        bad[np.argmax(bad)] = rated + 1e-3
    elif kind == "past_cut_out":
        bad[np.nonzero(grid > cut_out + 1e-9)[0][0]] = 1.0
    elif kind == "drift":
        # 1e-6 kW where the power is small enough for rtol not to hide it
        bad[np.nonzero((bad > 10.0) & (bad < 100.0))[0][0]] += 1e-6
    return bad


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_output_passes(gate, case):
    curve = _synthesize(CASES[case])
    assert gate.curve_problems(CASES[case], curve.wind_grid, curve.power) == []


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", ["nan", "above_rated", "past_cut_out", "drift"])
def test_planted_bad_output_fails(gate, case, kind):
    c = CASES[case]
    curve = _synthesize(c)
    cut_out = c.spec.get("cut_out", 25.0)
    bad = _plant(curve.power, curve.wind_grid, kind, c.spec["rated_power"], cut_out)
    assert gate.curve_problems(c, curve.wind_grid, bad)


class _Corrupting(FleetLaminar):
    def execute(self, op):
        curve = super().execute(op)
        if op.index % self.block_size == 5:
            curve.power[300] = np.nan
        return curve


def test_bad_outputs_count_as_failed_ops(tmp_path, gate, runner):
    wl = _Corrupting(3, tmp_path, ROOT)
    res = runner.measure(wl, gate, wl.block(0), 0.0)
    assert res["attempted"] >= runner.MIN_OPS
    assert res["failed"] == res["attempted"] // wl.block_size
    assert "non-finite power" in res["problems"][0]


def test_every_latency_is_scaled_by_the_reference_around_it(tmp_path, gate, runner):
    wl = make("fleet_laminar", 3, tmp_path, ROOT)
    res = runner.measure(wl, gate, wl.block(0), 0.0)
    n = res["attempted"]
    assert len(res["latencies_ns"]) == len(res["scaled_ns"]) == len(res["reference_ns"]) == n
    assert res["failed"] == 0
    slowdown = [lat / s for lat, s in zip(res["latencies_ns"], res["scaled_ns"])]
    # each factor is the mean of the two reference runs around the op
    assert all(0.2 < f < 20.0 for f in slowdown)
    assert slowdown[-1] * hostref.REF_NS == pytest.approx(
        (res["reference_ns"][-2] + res["reference_ns"][-1]) / 2)


def test_scaled_reads_wall_time_at_the_reference_speed():
    assert hostref.scaled(1e6, hostref.REF_NS, hostref.REF_NS) == pytest.approx(1e6)
    assert hostref.scaled(1e6, 2 * hostref.REF_NS, 2 * hostref.REF_NS) == pytest.approx(5e5)
    assert hostref.scaled(1e6, hostref.REF_NS, 3 * hostref.REF_NS) == pytest.approx(5e5)
    assert hostref.timed_reference() > 0


def test_probes_are_all_taken(tmp_path, gate, runner):
    wl = make("fleet_laminar", 3, tmp_path, ROOT)
    calls = []
    runner.measure(wl, gate, wl.block(0), 0.0, probe=lambda: calls.append(1), probes=4)
    assert len(calls) == 4


def test_validation_verdicts_match_the_planted_truth(tmp_path, gate):
    wl = make("validate_fleet", 5, tmp_path, ROOT)
    for op in wl.block(0):
        assert wl.check(op, wl.execute(op), gate) == []


def test_p90_is_refused_below_100_samples():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 0.9)
    assert percentile(list(range(100)), 0.9) == 89
    assert percentile(list(range(100)), 0.5) == 49
