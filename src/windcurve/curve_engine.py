"""Ideal-conditions power curve: rotor-speed schedule, cp(V), capped power.

The chain per wind speed V is

    omega  = clamp(lambda_opt * V / R, omega_min, omega_max)   rotor speed
    lambda = omega * R / V                                     tip-speed ratio
    P      = min(P_rated, 0.5 * rho * A * V^3 * cp(lambda))    electric power

with the hard production window [cut_in, cut_out] applied on top.  Rotation
speeds are stored in rpm (the unit catalogues quote) and converted to rad/s
where the tip-speed ratio needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .cp_models import ScaledCpModel
from .errors import check_value
from .turbine import TurbineSpec, naming

RPM_TO_RAD_S = 2.0 * math.pi / 60.0
RAD_S_TO_RPM = 60.0 / (2.0 * math.pi)

#: Absolute slack when comparing grid speeds against cut-in/cut-out, so that
#: a grid point meant to sit exactly on the boundary is not lost to float
#: round-off.  Both boundaries are inclusive: a turbine at exactly cut-in or
#: cut-out is producing.
GRID_EPS = 1e-9

POWER_CURVE_CSV_HEADER = "wind_speed_ms,power_kw"

DEFAULT_V_MAX = 40.0
DEFAULT_DV = 0.05

#: Air density in kg/m^3 when the caller gives none: the ISA sea-level value.
DEFAULT_RHO = 1.225

#: Most points a wind grid may hold, 8 MB per float64 array: dv 4e-5 m/s over
#: the default 40 m/s, far finer than a power curve needs.
MAX_GRID_POINTS = 1_000_001


def check_rho(rho: float) -> None:
    """Raise ValueError unless the air density rho is a finite real > 0."""
    check_value("rho", rho)
    if not rho > 0.0:
        raise ValueError(f"air density must be positive, got {rho}")


def grid_points(v_max: float, dv: float) -> float:
    """The points of the wind grid [0, v_max] with step dv, v_max / dv + 1, as
    a float that may be far past any array size."""
    check_value("v_max", v_max)
    check_value("dv", dv)
    if not (v_max > 0 and dv > 0):
        raise ValueError("v_max and dv must be positive and finite")
    return v_max / dv + 1.0


def make_wind_grid(v_max: float = DEFAULT_V_MAX, dv: float = DEFAULT_DV) -> np.ndarray:
    """Uniform wind-speed grid [0, v_max] with step dv, of at most
    MAX_GRID_POINTS points.  Point i of n steps is i * v_max / n, not
    i * (v_max / n), so on decimal grids such as 0-40 m/s at dv 0.05 each
    point is the double its %.6g text reads back as.  The grid is read-only,
    so a PowerCurve built on it keeps it without a copy."""
    points = grid_points(v_max, dv)
    if not points <= MAX_GRID_POINTS:
        raise ValueError(f"wind grid of {points:.6g} points (v_max {v_max} / dv {dv} + 1) "
                         f"exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    n = int(round(v_max / dv))
    if abs(n * dv - v_max) > 1e-9:
        raise ValueError(f"v_max={v_max} is not a multiple of dv={dv}")
    grid = np.arange(n + 1) * v_max / n
    grid.flags.writeable = False
    return grid


def _read_only(grid) -> np.ndarray:
    """grid as a float64 array that no one can write: grid itself when it is
    one already, read-only and not a view of a writable array, else a
    read-only copy."""
    if (type(grid) is np.ndarray and grid.dtype == np.float64 and not grid.flags.writeable
            and (grid.base is None
                 or isinstance(grid.base, np.ndarray) and not grid.base.flags.writeable)):
        return grid
    grid = np.array(grid, dtype=np.float64)
    grid.flags.writeable = False
    return grid


def _checked_power(grid: np.ndarray, power) -> np.ndarray:
    """power as a float64 array of the 1-d grid's shape, or ValueError."""
    power = np.asarray(power, dtype=np.float64)
    if power.shape != grid.shape or grid.ndim != 1:
        raise ValueError("wind_grid and power must be 1-d arrays of equal length")
    return power


@dataclass(frozen=True)
class PowerCurve:
    """Sampled power curve on a uniform wind-speed grid.

    The grid is finite and increasing, and every step lies within
    1e-8 + 1e-9 * dv of the first one, dv.  A curve is immutable: its fields
    cannot be assigned, and its grid is a read-only float64 array (see
    make_wind_grid), copied once when it is given as anything else.  So the
    grid is tested once, when the curve is built, and :meth:`with_power`
    puts new values on it without testing it again.
    """

    wind_grid: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        grid = _read_only(self.wind_grid)
        object.__setattr__(self, "wind_grid", grid)
        object.__setattr__(self, "power", _checked_power(grid, self.power))
        if len(grid) < 2:
            raise ValueError("a power curve needs at least two grid points")
        # Every step within 1e-8 + 1e-9 * steps[0] of the first, the test
        # np.allclose(steps, steps[0], rtol=1e-9) makes, without its cost.
        # Float subtraction rounds monotonically, so the largest |step - first|
        # is hi - first or first - lo.  A grid holding inf or NaN has an inf or
        # NaN step: hi < inf rejects the one, and NaN, which min and max
        # propagate, fails both tests.
        steps = grid[1:] - grid[:-1]
        first, lo, hi = steps[0], steps.min(), steps.max()
        if not (0.0 < lo and hi < math.inf
                and max(hi - first, first - lo) <= 1e-8 + 1e-9 * first):
            raise ValueError("wind_grid must be finite, increasing and uniformly spaced")

    def with_power(self, power) -> PowerCurve:
        """The curve of the values power on this curve's grid, which is shared.
        power is checked as the constructor checks it, with its message; the
        grid, read-only and tested when this curve was built, is not tested
        again."""
        curve = object.__new__(type(self))
        object.__setattr__(curve, "wind_grid", self.wind_grid)
        object.__setattr__(curve, "power", _checked_power(self.wind_grid, power))
        return curve

    @property
    def dv(self) -> float:
        return float(self.wind_grid[1] - self.wind_grid[0])

    def csv_rows(self) -> list[str]:
        """The curve's CSV rows without line ends, `wind_speed_ms,power_kw`
        at 6 significant digits: the one format of a curve row."""
        return [f"{v:.6g},{p:.6g}" for v, p in zip(self.wind_grid.tolist(), self.power.tolist())]

    def write_csv(self, target: str | Path | IO[str]) -> None:
        """Write the header and csv_rows to a text stream, or to a path by open_output."""
        text = "".join(f"{row}\n" for row in [POWER_CURVE_CSV_HEADER, *self.csv_rows()])
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open_output(target) as fh:
                fh.write(text)


def open_output(path: str | Path) -> IO[str]:
    """The one way windcurve opens a file to write: UTF-8, LF line ends, any locale."""
    return Path(path).open("w", encoding="utf-8", newline="")


def read_curve_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a `wind_speed_ms,power_kw` CSV into two arrays.  A row that is not
    two numbers raises ValueError naming the file and the line, and a byte
    that is not UTF-8 one naming the file."""
    path = Path(path)
    with naming(path), path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != POWER_CURVE_CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        rows = [(n, line.strip().split(",")) for n, line in enumerate(fh, 2) if line.strip()]
        ws, power = [], []
        for n, r in rows:
            if len(r) != 2:
                raise ValueError(f"line {n} has {len(r)} fields, expected 2")
            try:
                ws.append(float(r[0]))
                power.append(float(r[1]))
            except ValueError:
                raise ValueError(f"line {n} holds a field that is not a number: "
                                 f"{','.join(r)!r}") from None
    return np.array(ws), np.array(power)


def rotor_speed(v: float | np.ndarray, spec: TurbineSpec, lambda_opt: float):
    """Rotor speed schedule in rpm: track lambda_opt, clamped to the limits."""
    radius = spec.rotor_diameter / 2.0
    # np.clip's result for the finite, ordered limits TurbineSpec enforces,
    # without its Python wrapper.
    return np.minimum(np.maximum(lambda_opt * v / radius * RAD_S_TO_RPM, spec.omega_min),
                      spec.omega_max)


def tsr(v: float | np.ndarray, omega: float | np.ndarray, rotor_diameter: float):
    """Tip-speed ratio from rotor speed (rpm) and wind speed (m/s)."""
    if np.equal(v, 0.0).any():
        raise ZeroDivisionError("tip-speed ratio undefined at zero wind speed")
    return omega * RPM_TO_RAD_S * (rotor_diameter / 2.0) / v


def wind_power(v: float | np.ndarray, rho: float, rotor_diameter: float):
    """Power in W of the wind through the rotor disc of area A, rho * A * v^3 / 2:
    the one power equation, which raw_power and validation.invert_cp both use."""
    area = math.pi * rotor_diameter ** 2 / 4.0
    return 0.5 * rho * area * v ** 3


def raw_power(v: float | np.ndarray, cp: float | np.ndarray, rho: float,
              rotor_diameter: float):
    """Aerodynamic power in kW: :func:`wind_power` * cp / 1000."""
    return wind_power(v, rho, rotor_diameter) * cp / 1000.0


def window_end(grid: np.ndarray, cut_out: float) -> int:
    """The end k of the production window on an increasing grid: grid[:k] are
    the speeds at or below cut_out, within GRID_EPS.  The one place the cut-out
    edge is decided; the ideal curve and every environment stage zero grid[k:]."""
    return int(np.searchsorted(grid, cut_out + GRID_EPS, side="right"))


def ideal_curve(spec: TurbineSpec, model: ScaledCpModel, rho: float = DEFAULT_RHO,
                *, v_max: float = DEFAULT_V_MAX, dv: float = DEFAULT_DV) -> PowerCurve:
    """Power curve under laminar, uniform inflow.

    Zero outside the inclusive [cut_in, cut_out] window; inside, the capped
    power chain described in the module docstring.  Tip-speed ratios outside
    the trusted cp domain evaluate to cp = 0, which prevents spurious
    production spikes just above a very low cut-in.
    """
    if not spec.is_complete():
        raise ValueError(f"{spec.name}: spec incomplete; run complete_spec first")
    check_rho(rho)
    grid = make_wind_grid(v_max, dv)
    power = np.zeros_like(grid)

    # The window is the slice [i, k): i the first speed at or above cut_in,
    # within GRID_EPS, but never grid[0] = 0 m/s, where tsr is undefined.
    i = max(int(np.searchsorted(grid, spec.cut_in - GRID_EPS)), 1)
    k = window_end(grid, spec.cut_out)
    vs = grid[i:k]
    lam = tsr(vs, rotor_speed(vs, spec, model.lambda_opt), spec.rotor_diameter)
    power[i:k] = np.minimum(spec.rated_power,
                            raw_power(vs, model.cp_array(lam), rho, spec.rotor_diameter))
    return PowerCurve(grid, power)
