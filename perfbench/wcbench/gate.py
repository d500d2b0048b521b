"""Correctness gate: each op's output is checked off the clock.

A synthesized curve must be finite, lie in [0, rated], be zero past cut-out
and below the production window, and match the per-point reference pipeline
of ``tests/oracles.py`` at the tolerance of acceptance criterion c10.  The
oracle module is imported read-only from the checkout.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

RTOL = 1e-9
ATOL_KW = 1e-9
GRID_EPS = 1e-9
V_MAX = 40.0
BETZ_LIMIT = 16.0 / 27.0

# Statistical defaults as the README documents them.  The gate completes
# partial specs itself, so a change to the program's defaults shows as a
# failed op rather than moving the reference along with it.
DOCUMENTED_DEFAULTS = {"cut_in": 3.0, "cut_out": 25.0, "cp_max": 0.44}
OMEGA_MIN_FIT = (1046.558, -1.0911)
OMEGA_MAX_FIT = (705.406, -0.8349)


@dataclass(frozen=True)
class Case:
    """One synthesis input: turbine fields handed to the program, site, grid.

    ``spec`` holds only the fields the caller supplies; absent fields are
    left for the program to default.
    """

    spec: dict
    cp_model: str
    ti: float = 0.0
    rho: float = 1.225
    shear_alpha: float = 0.0
    veer_rate: float = 0.0
    dv: float = 0.05


def complete(spec: dict) -> SimpleNamespace:
    """The spec with every absent field filled from the documented defaults."""
    d = spec["rotor_diameter"]
    full = dict(DOCUMENTED_DEFAULTS, hub_height=None,
                omega_min=OMEGA_MIN_FIT[0] * d ** OMEGA_MIN_FIT[1],
                omega_max=OMEGA_MAX_FIT[0] * d ** OMEGA_MAX_FIT[1])
    full.update(spec)
    return SimpleNamespace(**full)


def load_oracles(tests_dir: Path, lambda_table: dict | None = None):
    """Import ``oracles`` from the checkout's tests directory.

    ``oracles.brute_lambda_opt`` scans 2.45 million points per call and
    allocates about 150 MB doing it, which would swamp ``peak_rss_mb``.  When
    ``lambda_table`` (parameterisation name -> (lambda, cp), as
    :func:`lambda_table` returns it) is given, the oracle reads its results
    from the table instead; the table is computed by the same function in a
    separate process.
    """
    if str(tests_dir) not in sys.path:
        sys.path.append(str(tests_dir))
    oracles = importlib.import_module("oracles")
    if lambda_table is not None:
        oracles.brute_lambda_opt = lambda p: tuple(lambda_table[p.name])
    return oracles


def lambda_table(oracles, registry) -> dict:
    return {name: list(oracles.brute_lambda_opt(p)) for name, p in registry.items()}


class Gate:
    def __init__(self, oracles, registry):
        self.oracles = oracles
        self.registry = registry

    def reference(self, case: Case) -> np.ndarray:
        """The oracle curve: naive per-point pipeline, then reference smoothing."""
        spec = complete(case.spec)
        p = self.registry[case.cp_model]
        base = self.oracles.naive_power_curve(spec, 0.0, case.rho, case.shear_alpha,
                                              case.veer_rate, p, v_max=V_MAX, dv=case.dv)
        if case.ti == 0.0:
            return base
        grid = np.linspace(0.0, V_MAX, len(base))
        return self.oracles.convolve_reference(grid, base, case.ti, spec.cut_out)

    def curve_problems(self, case: Case, wind_grid, power) -> list[str]:
        """Every way the curve breaks the output contract; empty when correct."""
        spec = complete(case.spec)
        grid = np.linspace(0.0, V_MAX, int(round(V_MAX / case.dv)) + 1)
        wind_grid = np.asarray(wind_grid, dtype=np.float64)
        power = np.asarray(power, dtype=np.float64)
        if wind_grid.shape != grid.shape or power.shape != grid.shape \
                or not np.allclose(wind_grid, grid, rtol=0.0, atol=1e-12):
            return [f"grid is not the uniform {case.dv} m/s grid up to {V_MAX} m/s"]
        if not np.all(np.isfinite(power)):
            return ["non-finite power"]

        problems = []
        if np.any(power < 0.0):
            problems.append(f"negative power {power.min():.6g} kW")
        if np.any(power > spec.rated_power + ATOL_KW):
            problems.append(f"power {power.max():.9g} kW above rated {spec.rated_power:.9g}")
        if np.any(power[grid > spec.cut_out + GRID_EPS] != 0.0):
            problems.append("nonzero power past cut-out")
        if power[0] != 0.0:
            problems.append("nonzero power at zero wind")
        if case.ti == 0.0:
            # Without turbulence nothing spreads power below the production
            # window except the rotor-equivalent remap, which reads the ideal
            # curve at v * factor (interpolating from the last idle grid point).
            factor = 1.0
            if case.shear_alpha != 0.0 or case.veer_rate != 0.0:
                factor = self.oracles.naive_rews_factor(
                    spec.rotor_diameter, spec.hub_height, case.shear_alpha,
                    case.veer_rate, 100)
            first_on = grid[grid >= spec.cut_in - GRID_EPS][0]
            idle = grid * max(factor, 1.0) <= first_on - case.dv - GRID_EPS
            if np.any(power[idle] != 0.0):
                problems.append("nonzero power below cut-in")
        ref = self.reference(case)
        if not np.allclose(power, ref, rtol=RTOL, atol=ATOL_KW):
            problems.append(f"differs from the oracle by up to "
                            f"{np.max(np.abs(power - ref)):.3g} kW")
        return problems
