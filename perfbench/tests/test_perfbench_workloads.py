import json
from pathlib import Path

import pytest

from wcbench import tracing
from wcbench.workloads import WORKLOADS, make

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_ops(tmp_path, name):
    first = make(name, 7, tmp_path, ROOT).block(2)
    again = make(name, 7, tmp_path, ROOT).block(2)
    assert first == again
    assert len(first) == WORKLOADS[name].block_size


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_gives_other_ops(tmp_path, name):
    assert make(name, 7, tmp_path, ROOT).block(2) != make(name, 8, tmp_path, ROOT).block(2)


def test_blocks_keep_their_mix(tmp_path):
    fleet = make("fleet_laminar", 1, tmp_path, ROOT).block(0)
    assert {(op.case.cp_model, "cp_max" in op.case.spec, op.case.shear_alpha > 0) for op in fleet} \
        == {(cp, full, sheared) for cp in {op.case.cp_model for op in fleet}
            for full in (True, False) for sheared in (True, False)}
    site = make("site_turbulent", 1, tmp_path, ROOT).block(0)
    assert [op.case.dv for op in site].count(0.01) == 4
    assert all(0.02 <= op.case.ti <= 0.15 for op in site)
    planted = make("validate_fleet", 1, tmp_path, ROOT).block(0)
    assert sorted(op.truth["kind"] for op in planted).count("clean") == 6


def test_benchmark_json_matches_the_harness(runner):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH.name]
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOAD_NAMES)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()}
