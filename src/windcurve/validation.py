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

import csv
import errno
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .cp_models import BETZ_LIMIT, DEFAULT_PARAMETERISATION, get_parameterisation
from .curve_engine import DEFAULT_RHO, check_rho, read_curve_csv, wind_power
from .environment import EnvironmentConditions, turbulent_power
from .errors import NonFiniteResult, check_value
from .synthesis import synthesize
from .turbine import TurbineSpec, complete_spec, load_spec, naming, require_fields

DEFAULT_TI_GRID = (0.0, 0.025, 0.05, 0.075, 0.10)

#: Most TI candidates one validation scores: the kernel holds a plan and an
#: output row for each at once.  One curve over 1000 TIs peaks at 49 MB RSS
#: (30 MB over 5) and takes 0.6 s on one core of a shared 2.1 GHz Xeon.
MAX_TI_CANDIDATES = 1000

#: Fits worse than this normalized RMSE are flagged as shape anomalies
#: (curves that do not conform to the usual power-curve shape at any TI).
SHAPE_ANOMALY_NRMSE = 0.05

SUMMARY_CSV_HEADER = "name,cp_max,betz_flag,best_ti,rmse_best"


def ti_text(ti: float) -> str:
    """The text a TI is written as: its %g form when that reads back as the
    TI, else its repr, so two distinct TIs never share a text."""
    text = f"{ti:g}"
    return text if float(text) == ti else repr(float(ti))


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
        """The curve of a measured CSV and the turbine of its spec JSON; a spec
        that does not parse, load or complete (see :func:`complete_spec`), or
        a curve that breaks a rule of the class, raises naming its file:
        MissingMandatoryField as itself, the rest as ValueError."""
        wind, power = read_curve_csv(curve_csv)
        turbine = load_spec(spec_json)
        with naming(spec_json):
            complete_spec(turbine)
        with naming(curve_csv):
            return cls(turbine=turbine, wind=wind, power=power)


def invert_cp(m: MeasuredCurve, rho: float = DEFAULT_RHO) -> tuple[np.ndarray, float]:
    """Extract cp(v) from measured samples by inverting the power equation.

    Returns the per-sample cp values (NaN where v = 0) and their maximum.
    Requires the rotor diameter.
    """
    require_fields(m.turbine, "rotor_diameter")
    check_rho(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        cp = np.where(m.wind > 0,
                      m.power * 1000.0 / wind_power(m.wind, rho, m.turbine.rotor_diameter),
                      np.nan)
    finite = cp[np.isfinite(cp)]
    cp_max = float(finite.max()) if finite.size else 0.0
    return cp, cp_max


def betz_screen(cp_max: float) -> bool:
    """True when an extracted cp exceeds the Betz limit (corrupt data)."""
    check_value("cp_max", cp_max)
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
            "rmse_by_ti": {ti_text(ti): r for ti, r in self.rmse_by_ti.items()},
            "rmse_best": self.rmse_best,
            "shape_anomaly": self.shape_anomaly,
            "filled_defaults": self.filled_defaults,
        }


def _ti_sites(ti_grid: Sequence[float],
              rho: float) -> tuple[EnvironmentConditions, list[float]]:
    """The laminar (TI 0) site, and each distinct TI candidate as a float,
    smallest first, so a repeated TI is scored once and -0 is scored as 0.
    Every candidate is checked by the site built for it, all on this one
    line, so an unusual air density warns only once; a grid of more than
    MAX_TI_CANDIDATES raises ValueError before any site is built."""
    if len(ti_grid) > MAX_TI_CANDIDATES:
        raise ValueError(f"ti_grid holds {len(ti_grid)} TIs, more than "
                         f"MAX_TI_CANDIDATES = {MAX_TI_CANDIDATES}")
    laminar, *sites = (EnvironmentConditions(ti=t, rho=rho) for t in (0.0, *ti_grid))
    if not sites:
        raise ValueError("ti_grid must not be empty")
    return laminar, sorted({float(e.ti) + 0.0 for e in sites})


def match_over_ti(m: MeasuredCurve, ti_grid: Sequence[float] = DEFAULT_TI_GRID, *,
                  rho: float = DEFAULT_RHO,
                  cp_model: str = DEFAULT_PARAMETERISATION) -> CurveValidation:
    """Score a measured curve against synthesized candidates over a TI grid.

    Missing spec fields are completed with the statistical defaults.  Each
    candidate is synthesized on the default wind grid and interpolated
    linearly at the sample speeds; the comparison runs on the measured
    samples inside [cut_in, 0.95 * cut_out].  The curve is synthesized once,
    laminar, and each candidate TI smooths only the grid rows that the
    interpolation at those samples reads: one row for a sample on a grid
    point, the two that bracket it otherwise.  The distinct TIs, smallest
    first, are scored in one :func:`turbulent_power` call, which builds the
    kernel's TI-independent setup once for them all.  Ties in the error map
    resolve to the smallest TI.
    """
    laminar_site, tis = _ti_sites(ti_grid, rho)
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
    for ti, model_p in zip(tis, turbulent_power(laminar, tis, wind, cut_out=spec.cut_out)):
        rmse = float(np.sqrt(np.mean((model_p - measured) ** 2)) / spec.rated_power)
        if not math.isfinite(rmse):
            raise NonFiniteResult(f"{m.turbine.name}: RMSE at TI {ti_text(ti)} is not finite")
        rmse_by_ti[ti] = rmse

    best_ti = min(rmse_by_ti, key=rmse_by_ti.get)
    return CurveValidation(
        name=m.turbine.name,
        cp_max_extracted=cp_max,
        betz_violation=betz_screen(cp_max),
        best_ti=best_ti,
        rmse_by_ti=rmse_by_ti,
        shape_anomaly=rmse_by_ti[best_ti] > SHAPE_ANOMALY_NRMSE,
        filled_defaults=report,
    )


def _curve_pairs(input_dir: str | Path) -> list[tuple[Path, Path]]:
    """The (curve CSV, spec JSON) paths :func:`validate_directory` reads, by
    name; summary CSVs are skipped and a spec JSON may not exist."""
    pairs = []
    for csv_path in sorted(Path(input_dir).glob("*.csv")):
        with naming(csv_path), csv_path.open(encoding="utf-8") as fh:
            if fh.readline().strip() != SUMMARY_CSV_HEADER:
                pairs.append((csv_path, csv_path.with_suffix(".json")))
    return pairs


def check_settings(ti_grid: Sequence[float], rho: float, cp_model: str) -> None:
    """Raise for a TI grid, air density or cp model that match_over_ti would
    reject, so that a caller can refuse them before it reads any curve."""
    get_parameterisation(cp_model)
    _ti_sites(ti_grid, rho)


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
    check_settings(ti_grid, rho, cp_model)
    results = []
    for csv_path, spec_path in _curve_pairs(input_dir):
        if not spec_path.exists():
            raise FileNotFoundError(errno.ENOENT, f"No sidecar spec for {csv_path}",
                                    str(spec_path))
        m = MeasuredCurve.from_files(csv_path, spec_path)
        results.append(match_over_ti(m, ti_grid, rho=rho, cp_model=cp_model))
    return sorted(results, key=lambda r: r.name)


def write_report_json(results: Sequence[CurveValidation], target: IO[str]) -> None:
    json.dump([r.to_dict() for r in results], target, indent=2)
    target.write("\n")


def write_summary_csv(results: Sequence[CurveValidation], target: IO[str]) -> None:
    """One row per result under SUMMARY_CSV_HEADER, a name holding a comma
    or a quote quoted as csv reads it back."""
    target.write(SUMMARY_CSV_HEADER + "\n")
    csv.writer(target, lineterminator="\n").writerows(
        [r.name, f"{r.cp_max_extracted:.6g}", str(r.betz_violation).lower(),
         ti_text(r.best_ti), f"{r.rmse_best:.6g}"] for r in results)
