#!/usr/bin/env python3
"""windcurve benchmark: one seeded workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload site_turbulent --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout that holds ``src/windcurve`` and
``tests/oracles.py``.  The next op starts only when the previous one has
returned; every output is checked off the clock.  The run lasts about
``--seconds``, ends on a block boundary so the mix is exact, and times at
least 100 distinct ops, each once.  Timings are reported at the speed of a
host-speed reference timed around every op (``wcbench/hostref.py``); the
plain wall-clock figures are in the run metadata.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones; the line before it is the run's metadata.
``--workload all`` runs each workload untraced in a fresh process and prints
a table.  Spans and full results go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from wcbench import hostref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 100
# Set-ups measured in fresh processes, spread over the run, besides the run's own.
SETUP_PROBES = 8
# A set-up lasts hundreds of ms: time the reference a few times on each side.
SETUP_REFERENCE_RUNS = 3
IMPORT_SAMPLES = 7
# The workloads BENCHMARK.json lists.
WORKLOAD_NAMES = ("fleet_laminar", "site_turbulent", "validate_fleet", "cli_batch")
E2E_UNITS = {"ops_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def _child(*args: str, timeout: float = 170.0) -> str:
    """Run this script with ``args`` in a fresh interpreter; its last stdout line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    The host reference then always runs on the core the op ran on, CLI
    children included; the cores of a shared host are contended unequally.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup(workload: str, seed: int, workdir: Path, trace: bool):
    """Import the program, generate the first block and run one warm-up op.

    Returns the set-up time at the reference speed and as wall time, in
    seconds, the workload and its first block.
    """
    before = hostref.timed_reference(SETUP_REFERENCE_RUNS)
    t0 = time.perf_counter_ns()
    sys.path.insert(0, str(SRC))
    from wcbench import workloads
    extra = {"in_process": True} if trace and workload == "cli_batch" else {}
    wl = workloads.make(workload, seed, workdir, ROOT, **extra)
    wl.execute(wl.warmup())
    first = wl.block(0)
    ns = time.perf_counter_ns() - t0
    after = hostref.timed_reference(SETUP_REFERENCE_RUNS)
    return (hostref.scaled(ns, before, after) / 1e9, ns / 1e9), wl, first


def _timed(wl, op):
    t0 = time.perf_counter_ns()
    try:
        out = wl.execute(op)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return None, time.perf_counter_ns() - t0, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter_ns() - t0, None


def _timed_traced(wl, op, tracer):
    tracer.install()
    try:
        with tracer.op(op.index):
            return _timed(wl, op)
    finally:
        tracer.uninstall()


def measure(wl, gate, first, seconds: float, tracer=None, probe=None,
            probes: int = 0) -> dict:
    """Closed loop over blocks of distinct ops, each executed once.

    Blocks run until ``seconds`` have passed and MIN_OPS ops are done, so a
    run ends on a block boundary.  A block's ops run back to back, as a
    caller looping over them would, with the host reference timed before
    each op and after the last; their outputs are checked after the block,
    off the clock.  ``latencies_ns`` holds each untraced execution's wall
    time, ``scaled_ns`` the same at the reference speed.  Traced runs
    execute each op twice, traced and untraced, alternating which goes first
    by block, and require identical outputs.  ``probe`` is called ``probes``
    times between blocks, at evenly spaced points of the run, so that what
    it measures sees the same states of the host as the ops do.
    """
    latencies, scaled, refs, problems = [], [], [], []
    busy_ns = {False: 0, True: 0}
    attempted = failed = 0
    marks = [seconds * (k + 0.5) / probes for k in range(probes)]
    start = time.perf_counter()
    block, b = first, 0
    while True:
        order = (False,) if tracer is None else ((False, True) if b % 2 == 0 else (True, False))
        done = []
        before = hostref.timed_reference()
        for op in block:
            results = {}
            for traced in order:
                out, ns, err = _timed_traced(wl, op, tracer) if traced else _timed(wl, op)
                busy_ns[traced] += ns
                digest = None if err or tracer is None else wl.digest(op, out)
                results[traced] = (out, err, digest, ns)
            after = hostref.timed_reference()
            ns = results[False][3]
            latencies.append(ns)
            scaled.append(hostref.scaled(ns, before, after))
            refs.append(after)
            before = after
            done.append((op, results))
        for op, results in done:
            attempted += 1
            out, _, digest, _ = results[False]
            errs = [err for _, err, _, _ in results.values() if err]
            if not errs and tracer is not None and results[True][2] != digest:
                errs.append("traced output differs from the untraced output")
            errs = errs or wl.check(op, out, gate)
            if errs:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"op {op.index} ({op.kind}): {'; '.join(errs)}")
        if marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            probe()
        b += 1
        if time.perf_counter() - start >= seconds and attempted >= MIN_OPS:
            break
        block = wl.block(b)
    for _ in marks:  # a run that ends early still takes every probe
        probe()
    return {"latencies_ns": latencies, "scaled_ns": scaled, "reference_ns": refs,
            "busy_ns": busy_ns, "attempted": attempted, "failed": failed,
            "problems": problems, "blocks": b, "wall_s": time.perf_counter() - start}


def import_ms() -> float:
    """``import windcurve.cli`` in a fresh interpreter, less a bare interpreter start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, into in (("pass", bare), ("import windcurve.cli", loaded)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            into.append(time.perf_counter() - t0)
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3


def run(args) -> int:
    for need in (SRC / "windcurve" / "__init__.py", TESTS / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from the root of a "
                  "windcurve checkout", file=sys.stderr)
            return 2
    pin_to_one_cpu()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_s, wl, first = setup(args.workload, args.seed, workdir, bool(args.trace))
        from wcbench import gate, stats, tracing
        from windcurve import REGISTRY

        setup_samples = [setup_s]

        def probe():
            setup_samples.append(json.loads(_child("--setup-probe", "--workload", args.workload,
                                                   "--seed", str(args.seed))))

        table = json.loads(_child("--lambda-table"))
        checker = gate.Gate(gate.load_oracles(TESTS, table), REGISTRY)
        tracer = tracing.Tracer() if args.trace else None
        if args.trace:
            res = measure(wl, checker, first, args.seconds, tracer)
        else:
            res = measure(wl, checker, first, args.seconds, None, probe, SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": wl.why, "generator": wl.params,
        "load": "closed loop, one caller in one process",
        "machine": stats.machine(), "percentile_rule": stats.PERCENTILE_RULE,
        "attempted": res["attempted"], "failed": res["failed"],
        "fail_ratio": res["failed"] / res["attempted"], "problems": res["problems"],
        "blocks": res["blocks"], "wall_s": res["wall_s"],
    }
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics["cli.import_ms"] = import_ms() if args.workload == "cli_batch" else 0.0
        # the same ops ran both ways, so throughput ratio = busy-time ratio
        metrics["trace.overhead_ratio"] = res["busy_ns"][False] / res["busy_ns"][True]
        units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
        meta["layer_moves"] = {n: moves for n, (_, _, moves) in tracing.LAYER_METRICS.items()}
        meta["unbound_trace_targets"] = sorted(tracer.unbound)
        meta["samples"] = {"traced_ops": sum(1 for s in tracer.spans if s[0] == "op"),
                           "spans": len(tracer.spans)}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    else:
        def timings(lat, setups):
            return {"ops_per_s": len(lat) / (sum(lat) / 1e9),
                    "latency_ms_p50": stats.percentile(lat, 0.5) / 1e6,
                    "latency_ms_p90": stats.percentile(lat, 0.9) / 1e6,
                    "setup_s": statistics.median(setups)}

        metrics = timings(res["scaled_ns"], [s for s, _ in setup_samples])
        metrics["peak_rss_mb"] = wl.peak_rss_mb()
        units = E2E_UNITS
        meta["wall_clock"] = timings(res["latencies_ns"], [w for _, w in setup_samples])
        meta["host_slowdown"] = statistics.median(res["reference_ns"]) / hostref.REF_NS
        meta["samples"] = {"ops_per_s": len(res["scaled_ns"]),
                           "latency_ms_p50": len(res["scaled_ns"]),
                           "latency_ms_p90": len(res["scaled_ns"]),
                           "setup_s": len(setup_samples), "peak_rss_mb": 1}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"run_metadata": meta, "result": result}, indent=1))
    for line in res["problems"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"run_metadata": meta}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, each in its own process; a table of the metrics."""
    ok = True
    for name in WORKLOAD_NAMES:
        lines = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
        meta, result = json.loads(lines[-2])["run_metadata"], json.loads(lines[-1])
        ok &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        print(f"  {'fail_ratio':16s} {meta['fail_ratio']:.6g} ratio")
        for metric, m in result["metrics"].items():
            print(f"  {metric:16s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--lambda-table", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.lambda_table:
        sys.path.insert(0, str(SRC))
        from wcbench import gate
        from windcurve import REGISTRY
        print(json.dumps(gate.lambda_table(gate.load_oracles(TESTS), REGISTRY)))
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        workdir = OUT / f"probe-{args.workload}-{os.getpid()}"
        try:
            print(json.dumps(setup(args.workload, args.seed, workdir, False)[0]))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
