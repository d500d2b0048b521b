from pathlib import Path

import numpy as np

from windcurve import cp_models, synthesis, validation
from wcbench.tracing import Tracer, kernel_taps
from wcbench.workloads import make

ROOT = Path(__file__).resolve().parents[2]


def _traced(wl, op):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(op.index):
            out = wl.execute(op)
    finally:
        tracer.uninstall()
    return tracer, out


def test_fleet_op_counts_and_neutrality(tmp_path):
    wl = make("fleet_laminar", 3, tmp_path, ROOT)
    op = next(op for op in wl.block(0) if op.case.shear_alpha > 0)
    originals = (synthesis.apply_turbulence, cp_models.lambda_opt,
                 vars(validation.MeasuredCurve)["from_files"])
    tracer, traced = _traced(wl, op)
    assert (synthesis.apply_turbulence, cp_models.lambda_opt,
            vars(validation.MeasuredCurve)["from_files"]) == originals
    assert wl.digest(op, traced) == wl.digest(op, wl.execute(op))
    m = tracer.layer_metrics()
    assert m["cp_models.lambda_opt.calls_per_op"] == 1
    assert m["environment.apply_shear_veer.calls_per_op"] == 1
    assert m["environment.apply_turbulence.calls_per_op"] == 1
    assert m["environment.apply_turbulence.kernel_taps_per_op"] == 0
    assert 0 < m["synthesis.synthesize.share"] < 1


def test_validate_op_synthesizes_once_per_ti(tmp_path):
    wl = make("validate_fleet", 3, tmp_path, ROOT)
    tracer, _ = _traced(wl, wl.block(0)[0])
    m = tracer.layer_metrics()
    assert m["synthesis.synthesize.calls_per_op"] == 5
    assert m["cp_models.lambda_opt.calls_per_op"] == 5
    assert m["validation.MeasuredCurve.from_files.ms"] > 0


def test_kernel_taps_count_the_truncated_windows():
    grid = np.linspace(0.0, 40.0, 801)
    dv, ti, cut_out = 0.05, 0.1, 25.0
    ext = np.concatenate([grid, grid[-1] + dv * np.arange(1, 200)])
    brute = sum(int(np.count_nonzero(np.abs(ext - u) <= 5 * ti * u))
                for u in grid if u <= cut_out and ti * u >= dv / 2)
    # grid points exactly on the +-5 sigma edge may fall either way in floating point
    assert abs(kernel_taps(len(grid), dv, ti, cut_out) - brute) <= 1e-3 * brute
