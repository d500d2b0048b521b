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
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import numpy as np

from .cp_models import LAMBDA_DOMAIN, ScaledCpModel
from .turbine import TurbineSpec

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


def make_wind_grid(v_max: float = DEFAULT_V_MAX, dv: float = DEFAULT_DV) -> np.ndarray:
    """Uniform wind-speed grid [0, v_max] with step dv."""
    if not (0 < v_max < math.inf and 0 < dv < math.inf):
        raise ValueError("v_max and dv must be positive and finite")
    n = int(round(v_max / dv))
    if abs(n * dv - v_max) > 1e-9:
        raise ValueError(f"v_max={v_max} is not a multiple of dv={dv}")
    return np.linspace(0.0, v_max, n + 1)


@dataclass
class PowerCurve:
    """Sampled power curve on a uniform wind-speed grid.

    ``meta`` records the generating turbine spec, the cp model and the
    environment effects applied so far, for provenance; no computation
    reads it.
    """

    wind_grid: np.ndarray
    power: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.wind_grid = np.asarray(self.wind_grid, dtype=np.float64)
        self.power = np.asarray(self.power, dtype=np.float64)
        if self.wind_grid.shape != self.power.shape or self.wind_grid.ndim != 1:
            raise ValueError("wind_grid and power must be 1-d arrays of equal length")
        if len(self.wind_grid) < 2:
            raise ValueError("a power curve needs at least two grid points")
        steps = np.diff(self.wind_grid)
        if not np.all(steps > 0) or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("wind_grid must be uniformly spaced and increasing")

    @property
    def dv(self) -> float:
        return float(self.wind_grid[1] - self.wind_grid[0])

    def write_csv(self, target: str | Path | IO[str]) -> None:
        """Write `wind_speed_ms,power_kw` rows, 6 significant digits."""
        if hasattr(target, "write"):
            _write_curve(target, self.wind_grid, self.power)
        else:
            with Path(target).open("w", newline="") as fh:
                _write_curve(fh, self.wind_grid, self.power)


def _write_curve(fh: IO[str], ws: np.ndarray, power: np.ndarray) -> None:
    fh.write(POWER_CURVE_CSV_HEADER + "\n")
    for v, p in zip(ws, power):
        fh.write(f"{v:.6g},{p:.6g}\n")


def read_curve_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a `wind_speed_ms,power_kw` CSV into two arrays."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if header != POWER_CURVE_CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    ws = np.array([float(r[0]) for r in rows])
    power = np.array([float(r[1]) for r in rows])
    return ws, power


@dataclass(frozen=True)
class OperatingState:
    """Operating point of the turbine at one wind speed."""

    v: float          # m/s
    omega: float      # rpm
    lam: float        # tip-speed ratio
    beta: float       # deg
    cp: float


def rotor_speed(v: float | np.ndarray, spec: TurbineSpec, lambda_opt: float):
    """Rotor speed schedule in rpm: track lambda_opt, clamped to the limits."""
    radius = spec.rotor_diameter / 2.0
    return np.clip(lambda_opt * v / radius * RAD_S_TO_RPM,
                   spec.omega_min, spec.omega_max)


def tsr(v: float | np.ndarray, omega: float | np.ndarray, rotor_diameter: float):
    """Tip-speed ratio from rotor speed (rpm) and wind speed (m/s)."""
    if np.any(np.equal(v, 0.0)):
        raise ZeroDivisionError("tip-speed ratio undefined at zero wind speed")
    return omega * RPM_TO_RAD_S * (rotor_diameter / 2.0) / v


def raw_power(v: float | np.ndarray, cp: float | np.ndarray, rho: float,
              rotor_diameter: float):
    """Aerodynamic power in kW: 0.5 * rho * A * v^3 * cp."""
    area = math.pi * rotor_diameter ** 2 / 4.0
    return 0.5 * rho * area * v ** 3 * cp / 1000.0


def _operating_chain(vs: np.ndarray, spec: TurbineSpec,
                     model: ScaledCpModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """omega (rpm), lambda and cp (0 outside LAMBDA_DOMAIN) at speeds vs > 0."""
    omega = rotor_speed(vs, spec, model.lambda_opt)
    lam = tsr(vs, omega, spec.rotor_diameter)
    cp = model.cp_array(lam)
    cp[(lam < LAMBDA_DOMAIN[0]) | (lam > LAMBDA_DOMAIN[1])] = 0.0
    return omega, lam, cp


def operating_state(v: float, spec: TurbineSpec, model: ScaledCpModel) -> OperatingState:
    """Chain omega -> lambda -> cp at one wind speed (beta = 0)."""
    omega, lam, cp = _operating_chain(np.array([v], dtype=np.float64), spec, model)
    return OperatingState(v=v, omega=float(omega[0]), lam=float(lam[0]),
                          beta=0.0, cp=float(cp[0]))


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
    grid = make_wind_grid(v_max, dv)
    power = np.zeros_like(grid)

    producing = ((grid >= spec.cut_in - GRID_EPS)
                 & (grid <= spec.cut_out + GRID_EPS)
                 & (grid > 0.0))
    vs = grid[producing]
    _, _, cp = _operating_chain(vs, spec, model)
    power[producing] = np.minimum(spec.rated_power,
                                  raw_power(vs, cp, rho, spec.rotor_diameter))

    meta = {
        "turbine": spec.to_dict(),
        "cp_model": model.base.name,
        "cp_max": model.cp_max,
        "lambda_opt": model.lambda_opt,
        "rho": rho,
        "grid": {"v_max": float(v_max), "dv": float(dv)},
        "effects": {"ti": 0.0, "shear_alpha": 0.0, "veer_rate": 0.0},
    }
    return PowerCurve(grid, power, meta)
