"""Spans around the program's public functions, recorded from outside.

The tracer rebinds each function in the namespace its callers look it up in
(for example ``windcurve.validation.synthesize``), records one span per call
and restores the original bindings when it is uninstalled.  No program
source is edited.  Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, op_id, extra]`` and written out at
the end of a run; self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): each place a caller looks a function up.
# "cli.<command>" spans are named after the subcommand in the argument list.
TARGETS = (
    ("windcurve.synthesis", "synthesize", "synthesis.synthesize"),
    ("windcurve.validation", "synthesize", "synthesis.synthesize"),
    ("windcurve.cli", "synthesize", "synthesis.synthesize"),
    ("windcurve.synthesis", "complete_spec", "turbine.complete_spec"),
    ("windcurve.validation", "complete_spec", "turbine.complete_spec"),
    ("windcurve.synthesis", "scale_cp", "cp_models.scale_cp"),
    ("windcurve.cp_models", "lambda_opt", "cp_models.lambda_opt"),
    ("windcurve.synthesis", "ideal_curve", "curve_engine.ideal_curve"),
    ("windcurve.synthesis", "apply_shear_veer", "environment.apply_shear_veer"),
    ("windcurve.synthesis", "apply_turbulence", "environment.apply_turbulence"),
    ("windcurve.validation", "match_over_ti", "validation.match_over_ti"),
    ("windcurve.validation", "MeasuredCurve.from_files",
     "validation.MeasuredCurve.from_files"),
    ("windcurve.curve_engine", "PowerCurve.write_csv", "curve_engine.PowerCurve.write_csv"),
    ("windcurve.cli", "main", "cli.<command>"),
)

KERNEL_REACH = 5.0

# Per-layer metrics: name -> (unit, better, the end-to-end metrics it should
# move).  ".ms" and ".self_ms" are per call, ".calls_per_op" and "*_per_op"
# per op, ".share" is the layer's self time over op time.  A layer a workload
# does not reach reports 0.
_TI0_STAGES = ("fleet_laminar latency_ms_p50, ops_per_s; validate_fleet ops_per_s; "
               "cli_batch latency_ms_p50 (sweep); no change on site_turbulent")
_TURBULENCE = ("site_turbulent latency_ms_p50 (dv 0.05), latency_ms_p90 (dv 0.01), ops_per_s; "
               "validate_fleet ops_per_s; no change on fleet_laminar")
_VALIDATION = "validate_fleet latency_ms_p50, ops_per_s"
_CLI = "cli_batch latency_ms_p50, latency_ms_p90"
LAYER_METRICS = {
    "cp_models.lambda_opt.ms": ("ms", "lower", _TI0_STAGES),
    "cp_models.lambda_opt.calls_per_op": ("calls/op", "lower", _TI0_STAGES),
    "cp_models.lambda_opt.share": ("ratio", "lower", _TI0_STAGES),
    "cp_models.scale_cp.ms": ("ms", "lower", _TI0_STAGES),
    "cp_models.scale_cp.share": ("ratio", "lower", _TI0_STAGES),
    "curve_engine.ideal_curve.ms": ("ms", "lower", _TI0_STAGES),
    "curve_engine.ideal_curve.calls_per_op": ("calls/op", "lower", _TI0_STAGES),
    "curve_engine.ideal_curve.share": ("ratio", "lower", _TI0_STAGES),
    "environment.apply_shear_veer.ms": ("ms", "lower", _TI0_STAGES),
    "environment.apply_shear_veer.calls_per_op": ("calls/op", "lower", _TI0_STAGES),
    "environment.apply_shear_veer.share": ("ratio", "lower", _TI0_STAGES),
    "turbine.complete_spec.ms": ("ms", "lower", _TI0_STAGES),
    "turbine.complete_spec.calls_per_op": ("calls/op", "lower", _VALIDATION),
    "turbine.complete_spec.share": ("ratio", "lower", _TI0_STAGES),
    "environment.apply_turbulence.ms": ("ms", "lower", _TURBULENCE),
    "environment.apply_turbulence.calls_per_op": ("calls/op", "lower", _TURBULENCE),
    "environment.apply_turbulence.kernel_taps_per_op": ("taps/op", "lower", "none: minimal work defined by the inputs, the base for ns_per_tap"),
    "environment.apply_turbulence.ns_per_tap": ("ns/tap", "lower", _TURBULENCE + "; site_turbulent peak_rss_mb if a kernel window is materialised"),
    "environment.apply_turbulence.share": ("ratio", "lower", _TURBULENCE),
    "validation.match_over_ti.self_ms": ("ms", "lower", _VALIDATION),
    "validation.match_over_ti.share": ("ratio", "lower", _VALIDATION),
    "synthesis.synthesize.calls_per_op": ("calls/op", "lower", _VALIDATION),
    "synthesis.synthesize.self_ms": ("ms", "lower", "ops_per_s on every in-process workload (orchestration overhead)"),
    "synthesis.synthesize.share": ("ratio", "lower", "ops_per_s on every in-process workload"),
    "validation.MeasuredCurve.from_files.ms": ("ms", "lower", _VALIDATION),
    "validation.MeasuredCurve.from_files.share": ("ratio", "lower", _VALIDATION),
    "curve_engine.PowerCurve.write_csv.ms": ("ms", "lower", _CLI),
    "curve_engine.PowerCurve.write_csv.share": ("ratio", "lower", _CLI),
    "cli.generate.ms": ("ms", "lower", _CLI),
    "cli.sweep.ms": ("ms", "lower", _CLI),
    "cli.import_ms": ("ms", "lower", _CLI + ", setup_s"),
    "trace.overhead_ratio": ("ratio", "higher", "none: traced over untraced ops_per_s, the cost of tracing itself"),
}


def kernel_taps(n_points: int, dv: float, ti: float, cut_out: float) -> int:
    """Minimal smoothing work for one curve: the +-5 sigma window of each
    producing row (wind speed up to cut-out) whose kernel is wider than the
    sub-grid identity shortcut (sigma >= dv / 2)."""
    u = np.arange(n_points) * dv
    sigma = ti * u
    rows = (u <= cut_out + 1e-9) & (sigma >= dv / 2.0)
    return int(np.sum(2.0 * np.floor(KERNEL_REACH * sigma[rows] / dv + 1e-9) + 1.0))


def _turbulence_inputs(args, kwargs):
    """(n_points, dv, ti, cut_out) of an apply_turbulence call, or None."""
    try:
        curve = args[0]
        ti = args[1] if len(args) > 1 else kwargs["ti"]
        cut_out = kwargs.get("cut_out")
        if cut_out is None:
            cut_out = curve.meta["turbine"]["cut_out"]
        grid = curve.wind_grid
        return (len(grid), float(grid[1] - grid[0]), float(ti), float(cut_out))
    except (IndexError, KeyError, TypeError, AttributeError):
        return None


EXTRAS = {"environment.apply_turbulence": _turbulence_inputs}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unbound: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = -1

    def _record(self, name: str, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self._op, None]
            if name == "cli.<command>":
                rec[0] = f"cli.{args[0][0]}" if args and args[0] else "cli.main"
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if extra is not None:
                    rec[5] = extra(args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target whose module is loaded."""
        for module, path, name in TARGETS:
            owner = sys.modules.get(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                if module in sys.modules:
                    self.unbound.add(f"{module}.{path}")
                continue
            extra = EXTRAS.get(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._record(name, raw.__func__, extra))
            else:
                wrapped = self._record(name, raw, extra)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; the layer spans recorded inside hang off it."""
        rec = ["op", 0, 0, -1, op_id, None]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op,
                                     "extra": extra}) + "\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric computable from the spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        n_ops, op_ns = 0, 0
        agg: dict[str, list] = {}  # name -> [calls, inclusive ns, self ns, taps]
        for i, (name, start, end, _, _, extra) in enumerate(spans):
            if name == "op":
                n_ops += 1
                op_ns += end - start
                continue
            a = agg.setdefault(name, [0, 0, 0, 0])
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child_ns[i]
            if extra is not None:
                a[3] += kernel_taps(*extra)

        out = {}
        for metric in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            calls, incl, self_ns, taps = agg.get(layer, (0, 0, 0, 0))
            if stat == "ms":
                out[metric] = incl / calls / 1e6 if calls else 0.0
            elif stat == "self_ms":
                out[metric] = self_ns / calls / 1e6 if calls else 0.0
            elif stat == "calls_per_op":
                out[metric] = calls / n_ops if n_ops else 0.0
            elif stat == "share":
                out[metric] = self_ns / op_ns if op_ns else 0.0
            elif stat == "kernel_taps_per_op":
                out[metric] = taps / n_ops if n_ops else 0.0
            elif stat == "ns_per_tap":
                out[metric] = incl / taps if taps else 0.0
        return out
