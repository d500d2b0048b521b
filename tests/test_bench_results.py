"""Every committed benchmark result is a whole run: each workload BENCHMARK.json
declares, untraced, correct, with no failed op and every end-to-end metric."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULTS = sorted(ROOT.glob("BENCH_*.json"))


def test_results_are_committed():
    assert RESULTS


@pytest.mark.parametrize("path", RESULTS, ids=[p.name for p in RESULTS])
def test_a_result_is_a_whole_untraced_correct_run(path):
    runs = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(runs) == sorted(w["name"] for w in BENCHMARK["workloads"])
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, run in runs.items():
        assert run["run_metadata"]["workload"] == name
        assert run["run_metadata"]["trace"] == 0, name
        assert run["result"]["correct"] is True and run["result"]["failed"] == 0, name
        assert metrics <= set(run["result"]["metrics"]), name
