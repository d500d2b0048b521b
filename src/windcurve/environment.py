"""Environmental corrections: turbulence smoothing and shear/veer remapping.

Turbulence intensity is folded in by convolving the curve with a Gaussian
kernel whose width scales with wind speed (standard deviation U * TI for the
output point at U).  Wind shear and wind veer enter through a rotor
equivalent wind speed: the cube-root of the area-weighted mean cubed
effective speed over horizontal rotor bands, with the band speeds taken from
a power-law vertical profile and the band directions from a linear veer
profile.

Both transformations leave the cut-out edge sharp.  Shutdown at cut-out is
triggered by the hub-height mean wind speed, not by short-term fluctuations
or the rotor-averaged speed, so the curve is extended past cut-out as a
plateau before either transformation and the hard gate is re-applied after.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .curve_engine import DEFAULT_RHO, GRID_EPS, PowerCurve
from .errors import GroundStrike
from .turbine import TurbineSpec, check_value

#: Number of horizontal rotor bands used by default; band refinement is
#: convergence-tested well below 1e-4 relative at this count.
DEFAULT_N_BANDS = 100

#: Kernel support truncated at this many standard deviations, then
#: renormalized; the discarded mass is below 1e-6.
KERNEL_REACH = 5.0


@dataclass(frozen=True)
class EnvironmentConditions:
    """Site conditions entering the power-curve synthesis.

    ti is the turbulence intensity (standard deviation of short-term wind
    speed over its mean), rho the air density in kg/m^3, shear_alpha the
    power-law exponent of the vertical wind profile, veer_rate the linear
    change of wind direction with height in degrees per metre.
    """

    ti: float = 0.0
    rho: float = DEFAULT_RHO
    shear_alpha: float = 0.0
    veer_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            check_value(f.name, getattr(self, f.name))
        if not 0.0 <= self.ti < 1.0:
            raise ValueError(f"turbulence intensity must lie in [0, 1), got {self.ti}")
        if not self.rho > 0.0:
            raise ValueError(f"air density must be positive, got {self.rho}")
        if not 0.9 <= self.rho <= 1.5:
            warnings.warn(f"air density {self.rho} kg/m^3 outside the usual "
                          "0.9-1.5 band", UserWarning, stacklevel=2)


@dataclass(frozen=True)
class RotorBands:
    """Horizontal slices of the rotor disc.

    heights are band centres relative to the hub (m), areas the exact
    circular-segment slice areas (m^2); they sum to the full disc.
    """

    heights: np.ndarray
    areas: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "heights", np.asarray(self.heights, dtype=np.float64))
        object.__setattr__(self, "areas", np.asarray(self.areas, dtype=np.float64))
        if self.heights.shape != self.areas.shape or self.heights.ndim != 1:
            raise ValueError("heights and areas must be 1-d arrays of equal length")
        if np.any(self.areas <= 0):
            raise ValueError("band areas must be positive")

    @property
    def n(self) -> int:
        return len(self.areas)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())


def band_areas(rotor_diameter: float, hub_height: float, n: int = DEFAULT_N_BANDS) -> RotorBands:
    """Slice the rotor disc into n equal-height horizontal bands.

    Band areas are computed analytically from the antiderivative of the chord
    length 2*sqrt(R^2 - h^2), so they partition the disc exactly; the band
    centre serves as the representative height.
    """
    if n < 1:
        raise ValueError(f"need at least one band, got {n}")
    radius = rotor_diameter / 2.0
    if not hub_height > radius:
        raise GroundStrike(
            f"hub height {hub_height} m does not clear the rotor radius {radius} m")
    edges = np.linspace(-radius, radius, n + 1)
    # Antiderivative of the chord length; clip guards asin against round-off.
    ratio = np.clip(edges / radius, -1.0, 1.0)
    anti = edges * np.sqrt(np.maximum(radius ** 2 - edges ** 2, 0.0)) \
        + radius ** 2 * np.arcsin(ratio)
    areas = np.diff(anti)
    centres = 0.5 * (edges[:-1] + edges[1:])
    return RotorBands(heights=centres, areas=areas)


def rews(u_hub: float | np.ndarray, spec: TurbineSpec, shear_alpha: float,
         veer_rate: float, bands: RotorBands):
    """Rotor-equivalent wind speed for a hub-height speed u_hub.

    Cube-root of the area-weighted mean of (U_i * cos(dphi_i))^3 over the
    bands, with U_i from the power-law profile anchored at the hub and
    dphi_i the linear veer angle at the band centre; u_hub may be an array.
    The veer across the rotor must stay below 90 deg (|veer_rate| * D/2 < 90),
    past which cos(dphi) < 0 reverses the band speeds; the typical range,
    0-0.75 deg/m, turns an 80 m rotor by at most 30 deg.
    """
    if np.any(np.less(u_hub, 0)):
        raise ValueError(f"u_hub must be >= 0, got {u_hub}")
    if spec.hub_height is None:
        raise ValueError(f"{spec.name}: hub_height required for shear/veer effects")
    if not abs(veer_rate) * spec.rotor_diameter / 2.0 < 90.0:
        raise ValueError(
            f"veer_rate {veer_rate} deg/m turns the wind by 90 deg or more across "
            f"a {spec.rotor_diameter} m rotor")
    z = spec.hub_height + bands.heights
    speed_ratio = (z / spec.hub_height) ** shear_alpha
    dphi = np.deg2rad(veer_rate * bands.heights)
    weights = bands.areas / bands.total_area
    return u_hub * float(np.cbrt(np.sum(weights * (speed_ratio * np.cos(dphi)) ** 3)))


def _plateau_extended(curve: PowerCurve, cut_out: float) -> tuple[np.ndarray, float]:
    """Curve values with the cut-out zeroing removed.

    Grid points beyond cut-out take the value at the cut-out point itself,
    i.e. the region-III plateau continues as if no shutdown occurred.  The
    plateau value is returned as well for extension past the grid end.
    """
    inside = curve.wind_grid <= cut_out + GRID_EPS
    if not np.any(inside):
        return curve.power.copy(), 0.0
    plateau = float(curve.power[inside][-1])
    extended = np.where(inside, curve.power, plateau)
    return extended, plateau


def kernel_weights(offsets: np.ndarray, sigma: float) -> np.ndarray:
    """Truncated, renormalized Gaussian weights over grid offsets.

    Zero outside +-KERNEL_REACH standard deviations; the surviving weights
    sum to exactly one, so a constant input is reproduced exactly.
    """
    w = np.where(np.abs(offsets) <= KERNEL_REACH * sigma,
                 np.exp(-0.5 * (offsets / sigma) ** 2), 0.0)
    return w / w.sum()


def _windowed(curve: PowerCurve, values: np.ndarray, cut_out: float,
              **effects) -> PowerCurve:
    """Zero values past the hub-height cut-out; record effects in a copy of meta."""
    values[curve.wind_grid > cut_out + GRID_EPS] = 0.0
    meta = dict(curve.meta)
    meta["effects"] = dict(meta.get("effects", {}), **effects)
    return PowerCurve(curve.wind_grid, values, meta)


def apply_turbulence(curve: PowerCurve, ti: float, *, cut_out: float) -> PowerCurve:
    """Fold turbulence intensity into a power curve.

    Each output point at wind speed U up to cut_out is the kernel-weighted
    average of the plateau-extended input, the kernel being a Gaussian
    centred at U with standard deviation U * ti (truncated and
    renormalized).  Past cut_out the output is zero, so the shutdown edge
    stays one grid step wide.  ti = 0 returns the input values unchanged
    inside the window.
    """
    if ti < 0:
        raise ValueError(f"turbulence intensity must be >= 0, got {ti}")
    if ti == 0.0:
        return _windowed(curve, curve.power.copy(), cut_out, ti=float(ti))

    grid, dv = curve.wind_grid, curve.dv
    base, plateau = _plateau_extended(curve, cut_out)

    # Extend the grid far enough to cover the widest kernel reach.
    reach = KERNEL_REACH * ti * grid[-1]
    n_extra = int(math.ceil(reach / dv)) + 1
    ext_grid = np.concatenate([grid, grid[-1] + dv * np.arange(1, n_extra + 1)])
    ext_power = np.concatenate([base, np.full(n_extra, plateau)])

    # Only rows inside the window with sigma >= dv/2 need the kernel; the rest keep base.
    sigma = ti * grid
    smoothed = base.copy()
    for i in np.flatnonzero((grid <= cut_out + GRID_EPS) & (sigma >= dv / 2.0)):
        smoothed[i] = kernel_weights(ext_grid - grid[i], sigma[i]) @ ext_power
    return _windowed(curve, smoothed, cut_out, ti=float(ti))


def apply_shear_veer(curve: PowerCurve, spec: TurbineSpec, shear_alpha: float,
                     veer_rate: float, n_bands: int = DEFAULT_N_BANDS) -> PowerCurve:
    """Remap a power curve through the rotor-equivalent wind speed.

    The output at hub speed u is the plateau-extended input interpolated
    linearly at rews(u).  The cut-out gate acts on the hub-height speed, not
    on the rotor-equivalent one, so the shutdown position is untouched.
    """
    if spec.hub_height is None:
        raise ValueError(f"{spec.name}: hub_height required for shear/veer effects")
    if spec.cut_out is None:
        raise ValueError(f"{spec.name}: spec incomplete; run complete_spec first")
    bands = band_areas(spec.rotor_diameter, spec.hub_height, n_bands)
    u_eq = rews(curve.wind_grid, spec, shear_alpha, veer_rate, bands)
    base, _ = _plateau_extended(curve, spec.cut_out)
    return _windowed(curve, np.interp(u_eq, curve.wind_grid, base), spec.cut_out,
                     shear_alpha=float(shear_alpha), veer_rate=float(veer_rate),
                     n_bands=int(n_bands))
