"""Scoring synthesized curves against measured or manufacturer curves.

Manufacturer curves rarely state the turbulence intensity they embed, so a
measured curve is compared against synthesized candidates over a grid of TI
values and the best-fitting one is reported together with the full error
map.  Curve distance is the root-mean-square error normalized by rated
power, taken over the producing range with the top 5 % below cut-out
excluded (manufacturer data may contain storm-control tapering there that
the synthesis deliberately does not model).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .cp_models import BETZ_LIMIT, DEFAULT_PARAMETERISATION
from .curve_engine import DEFAULT_RHO, read_curve_csv
from .environment import EnvironmentConditions
from .errors import MissingDiameter
from .synthesis import synthesize
from .turbine import TurbineSpec, complete_spec, load_spec

DEFAULT_TI_GRID = (0.0, 0.025, 0.05, 0.075, 0.10)

#: Fits worse than this normalized RMSE are flagged as shape anomalies
#: (curves that do not conform to the usual power-curve shape at any TI).
SHAPE_ANOMALY_NRMSE = 0.05

SUMMARY_CSV_HEADER = "name,cp_max,betz_flag,best_ti,rmse_best"


@dataclass(frozen=True)
class MeasuredCurve:
    """Measured (wind speed, power) samples plus what is known of the turbine."""

    turbine: TurbineSpec
    wind: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "wind", np.asarray(self.wind, dtype=np.float64))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=np.float64))
        if self.wind.shape != self.power.shape or self.wind.ndim != 1:
            raise ValueError("wind and power must be 1-d arrays of equal length")
        if len(self.wind) < 4:
            raise ValueError("need at least 4 samples to score a curve")
        if not np.all(np.diff(self.wind) > 0):
            raise ValueError("wind speeds must be strictly increasing")
        if np.any(self.power < 0):
            raise ValueError("powers must be >= 0")

    @classmethod
    def from_files(cls, curve_csv: str | Path, spec_json: str | Path) -> "MeasuredCurve":
        wind, power = read_curve_csv(curve_csv)
        return cls(turbine=load_spec(spec_json), wind=wind, power=power)


def invert_cp(m: MeasuredCurve, rho: float = DEFAULT_RHO) -> tuple[np.ndarray, float]:
    """Extract cp(v) from measured samples by inverting the power equation.

    Returns the per-sample cp values (NaN where v = 0) and their maximum.
    Requires the rotor diameter.
    """
    if m.turbine.rotor_diameter is None:
        raise MissingDiameter(f"{m.turbine.name}: rotor diameter needed to invert cp")
    area = math.pi * m.turbine.rotor_diameter ** 2 / 4.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cp = np.where(m.wind > 0,
                      m.power * 1000.0 / (0.5 * rho * area * m.wind ** 3),
                      np.nan)
    finite = cp[np.isfinite(cp)]
    cp_max = float(finite.max()) if finite.size else 0.0
    return cp, cp_max


def betz_screen(cp_max: float) -> bool:
    """True when an extracted cp exceeds the Betz limit (corrupt data)."""
    if cp_max < 0:
        raise ValueError(f"cp_max must be >= 0, got {cp_max}")
    return cp_max > BETZ_LIMIT


@dataclass(frozen=True)
class CurveValidation:
    """Per-curve validation outcome."""

    name: str
    cp_max_extracted: float
    betz_violation: bool
    best_ti: float
    rmse_by_ti: dict[float, float]
    shape_anomaly: bool
    filled_defaults: list[dict] = field(default_factory=list)

    @property
    def rmse_best(self) -> float:
        return self.rmse_by_ti[self.best_ti]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cp_max_extracted": self.cp_max_extracted,
            "betz_violation": self.betz_violation,
            "best_ti": self.best_ti,
            "rmse_by_ti": {f"{ti:g}": r for ti, r in self.rmse_by_ti.items()},
            "rmse_best": self.rmse_best,
            "shape_anomaly": self.shape_anomaly,
            "filled_defaults": self.filled_defaults,
        }


def match_over_ti(m: MeasuredCurve, ti_grid: Sequence[float] = DEFAULT_TI_GRID, *,
                  rho: float = DEFAULT_RHO,
                  cp_model: str = DEFAULT_PARAMETERISATION) -> CurveValidation:
    """Score a measured curve against synthesized candidates over a TI grid.

    Missing spec fields are completed with the statistical defaults.  Each
    candidate is synthesized on the default wind grid and interpolated
    linearly at the sample speeds; the comparison runs on the measured
    samples inside [cut_in, 0.95 * cut_out].  Ties in the error map resolve
    to the smallest TI.
    """
    ti_grid = sorted(float(t) for t in ti_grid)
    if not ti_grid:
        raise ValueError("ti_grid must not be empty")

    _, cp_max = invert_cp(m, rho)
    spec, report = complete_spec(m.turbine)
    lo, hi = spec.cut_in, 0.95 * spec.cut_out
    mask = (m.wind >= lo) & (m.wind <= hi)
    if not np.any(mask):
        raise ValueError(
            f"{m.turbine.name}: no samples inside the comparison range [{lo}, {hi}]")

    rmse_by_ti: dict[float, float] = {}
    best_ti, best_rmse = None, math.inf
    for ti in ti_grid:
        curve, _ = synthesize(spec, EnvironmentConditions(ti=ti, rho=rho), cp_model=cp_model)
        model_p = np.interp(m.wind[mask], curve.wind_grid, curve.power)
        rmse = float(np.sqrt(np.mean((model_p - m.power[mask]) ** 2)) / spec.rated_power)
        rmse_by_ti[ti] = rmse
        if rmse < best_rmse:
            best_ti, best_rmse = ti, rmse

    return CurveValidation(
        name=m.turbine.name,
        cp_max_extracted=cp_max,
        betz_violation=betz_screen(cp_max),
        best_ti=best_ti,
        rmse_by_ti=rmse_by_ti,
        shape_anomaly=best_rmse > SHAPE_ANOMALY_NRMSE,
        filled_defaults=report.to_list(),
    )


def validate_directory(input_dir: str | Path, ti_grid: Sequence[float] = DEFAULT_TI_GRID,
                       *, rho: float = DEFAULT_RHO,
                       cp_model: str = DEFAULT_PARAMETERISATION) -> list[CurveValidation]:
    """Validate every (curve CSV, spec JSON) pair in a directory.

    Pairs share a stem: ``foo.csv`` goes with ``foo.json``.  Results come
    back sorted by turbine name so batch runs are deterministic.
    """
    input_dir = Path(input_dir)
    results = []
    for csv_path in sorted(input_dir.glob("*.csv")):
        spec_path = csv_path.with_suffix(".json")
        if not spec_path.exists():
            raise FileNotFoundError(f"{csv_path}: no sidecar spec {spec_path.name}")
        m = MeasuredCurve.from_files(csv_path, spec_path)
        results.append(match_over_ti(m, ti_grid, rho=rho, cp_model=cp_model))
    return sorted(results, key=lambda r: r.name)


def write_report_json(results: Sequence[CurveValidation], target: IO[str]) -> None:
    json.dump([r.to_dict() for r in results], target, indent=2)
    target.write("\n")


def write_summary_csv(results: Sequence[CurveValidation], target: IO[str]) -> None:
    target.write(SUMMARY_CSV_HEADER + "\n")
    for r in results:
        target.write(f"{r.name},{r.cp_max_extracted:.6g},"
                     f"{str(r.betz_violation).lower()},{r.best_ti:.6g},"
                     f"{r.rmse_best:.6g}\n")
