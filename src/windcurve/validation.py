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

from .cp_models import BETZ_LIMIT, DEFAULT_PARAMETERISATION, get_parameterisation
from .curve_engine import DEFAULT_RHO, read_curve_csv
from .environment import EnvironmentConditions, turbulent_power
from .errors import MissingMandatoryField, NonFiniteResult
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
        if not (np.isfinite(self.wind).all() and (self.wind >= 0).all()):
            raise ValueError("wind speeds must be finite and >= 0")
        if not (np.diff(self.wind) > 0).all():
            raise ValueError("wind speeds must be strictly increasing")
        if not np.isfinite(self.power).all():
            raise ValueError("powers must be finite")
        if (self.power < 0).any():
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
        raise MissingMandatoryField(
            f"{m.turbine.name}: missing mandatory field(s): rotor_diameter")
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


def _ti_sites(ti_grid: Sequence[float],
              rho: float) -> tuple[EnvironmentConditions, list[EnvironmentConditions]]:
    """The laminar (TI 0) site, and the site of each distinct TI candidate,
    smallest TI first, so a repeated TI is scored once.  Every caller builds
    them all on this one line, so an unusual air density warns only once."""
    laminar, *sites = (EnvironmentConditions(ti=t, rho=rho) for t in (0.0, *ti_grid))
    if not sites:
        raise ValueError("ti_grid must not be empty")
    return laminar, list(dict.fromkeys(sorted(sites, key=lambda e: e.ti)))


def match_over_ti(m: MeasuredCurve, ti_grid: Sequence[float] = DEFAULT_TI_GRID, *,
                  rho: float = DEFAULT_RHO,
                  cp_model: str = DEFAULT_PARAMETERISATION) -> CurveValidation:
    """Score a measured curve against synthesized candidates over a TI grid.

    Missing spec fields are completed with the statistical defaults.  Each
    candidate is synthesized on the default wind grid and interpolated
    linearly at the sample speeds; the comparison runs on the measured
    samples inside [cut_in, 0.95 * cut_out].  The curve is synthesized once,
    laminar, and each candidate TI smooths only the grid rows that bracket
    those samples (see :func:`turbulent_power`).  Ties in the error map
    resolve to the smallest TI.
    """
    laminar_site, sites = _ti_sites(ti_grid, rho)
    _, cp_max = invert_cp(m, rho)
    spec, report = complete_spec(m.turbine)
    lo, hi = spec.cut_in, 0.95 * spec.cut_out
    mask = (m.wind >= lo) & (m.wind <= hi)
    if not mask.any():
        raise ValueError(
            f"{m.turbine.name}: no samples inside the comparison range [{lo}, {hi}]")

    laminar, _ = synthesize(spec, laminar_site, cp_model=cp_model)
    wind, measured = m.wind[mask], m.power[mask]
    rmse_by_ti: dict[float, float] = {}
    best_ti, best_rmse = None, math.inf
    for env in sites:
        ti = float(env.ti)
        model_p = turbulent_power(laminar, ti, wind, cut_out=spec.cut_out)
        rmse = float(np.sqrt(np.mean((model_p - measured) ** 2)) / spec.rated_power)
        if not math.isfinite(rmse):
            raise NonFiniteResult(f"{m.turbine.name}: RMSE at TI {ti:g} is not finite")
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
        filled_defaults=report,
    )


def validate_directory(input_dir: str | Path, ti_grid: Sequence[float] = DEFAULT_TI_GRID,
                       *, rho: float = DEFAULT_RHO,
                       cp_model: str = DEFAULT_PARAMETERISATION) -> list[CurveValidation]:
    """Validate every (curve CSV, spec JSON) pair in a directory.

    Pairs share a stem: ``foo.csv`` goes with ``foo.json``.  A summary CSV
    written by :func:`write_summary_csv` is skipped, so a directory can be
    validated again in place.  Results come back sorted by turbine name so
    batch runs are deterministic.  The settings are checked before any pair
    is read, so they are rejected in a directory that holds none.
    """
    get_parameterisation(cp_model)
    _ti_sites(ti_grid, rho)
    input_dir = Path(input_dir)
    results = []
    for csv_path in sorted(input_dir.glob("*.csv")):
        with csv_path.open() as fh:
            if fh.readline().strip() == SUMMARY_CSV_HEADER:
                continue
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
