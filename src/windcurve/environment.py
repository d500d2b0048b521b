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
from typing import NamedTuple

import numpy as np

from .curve_engine import DEFAULT_RHO, GRID_EPS, PowerCurve
from .turbine import TurbineSpec, check_value

#: Number of horizontal rotor bands used by default; band refinement is
#: convergence-tested well below 1e-4 relative at this count.
DEFAULT_N_BANDS = 100

#: Most rotor bands band_areas slices, 8 MB per float64 array: far past
#: the 1e-4 convergence that DEFAULT_N_BANDS already reaches.
MAX_BANDS = 1_000_000

#: Kernel support truncated at this many standard deviations, then
#: renormalized; the discarded mass is below 1e-6.
KERNEL_REACH = 5.0

#: Most kernel taps the turbulence stage evaluates at once; bounds its
#: temporaries to a few hundred kB whatever the grid and TI.
BLOCK_TAPS = 8192


def _check_ti(ti: float) -> None:
    """Raise ValueError unless 0 <= ti < 1, before any work depends on ti."""
    if not 0.0 <= ti < 1.0:
        raise ValueError(f"turbulence intensity must lie in [0, 1), got {ti}")


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
        _check_ti(self.ti)
        if not self.rho > 0.0:
            raise ValueError(f"air density must be positive, got {self.rho}")
        if not 0.9 <= self.rho <= 1.5:
            # stacklevel 3 skips the dataclass-generated __init__ to the caller.
            warnings.warn(f"air density {self.rho} kg/m^3 outside the usual "
                          "0.9-1.5 band", UserWarning, stacklevel=3)


def band_areas(rotor_diameter: float,
               n: int = DEFAULT_N_BANDS) -> tuple[np.ndarray, np.ndarray]:
    """Slice the rotor disc into n equal-height horizontal bands, at most
    MAX_BANDS.

    Returns (heights, areas): the band centres relative to the hub (m), which
    serve as the representative heights, and the slice areas (m^2), computed
    analytically from the antiderivative of the chord length
    2*sqrt(R^2 - h^2), so they partition the disc exactly.
    """
    if n < 1:
        raise ValueError(f"need at least one band, got {n}")
    if n > MAX_BANDS:
        raise ValueError(f"n_bands {n} exceeds MAX_BANDS = {MAX_BANDS}")
    radius = rotor_diameter / 2.0
    edges = np.linspace(-radius, radius, n + 1)
    # Antiderivative of the chord length; clip guards asin against round-off.
    ratio = np.clip(edges / radius, -1.0, 1.0)
    anti = edges * np.sqrt(np.maximum(radius * radius - edges * edges, 0.0)) \
        + radius ** 2 * np.arcsin(ratio)
    areas = np.diff(anti)
    if not (areas > 0.0).all():  # they underflow to 0 below a diameter of ~1e-160 m
        raise ValueError("band areas must be positive")
    centres = 0.5 * (edges[:-1] + edges[1:])
    return centres, areas


def rews(u_hub: float | np.ndarray, spec: TurbineSpec, shear_alpha: float,
         veer_rate: float, n_bands: int = DEFAULT_N_BANDS):
    """Rotor-equivalent wind speed for a hub-height speed u_hub.

    Cube-root of the area-weighted mean of (U_i * cos(dphi_i))^3 over the
    n_bands bands of the spec's rotor (see :func:`band_areas`), with U_i from
    the power-law profile anchored at the hub and dphi_i the linear veer
    angle at the band centre; u_hub may be an array.
    The veer across the rotor must stay below 90 deg (|veer_rate| * D/2 < 90),
    past which cos(dphi) < 0 reverses the band speeds; the typical range,
    0-0.75 deg/m, turns an 80 m rotor by at most 30 deg.
    """
    if np.less(u_hub, 0).any():
        raise ValueError(f"u_hub must be >= 0, got {u_hub}")
    if spec.hub_height is None:
        raise ValueError(f"{spec.name}: hub_height required for shear/veer effects")
    heights, areas = band_areas(spec.rotor_diameter, n_bands)
    if not abs(veer_rate) * spec.rotor_diameter / 2.0 < 90.0:
        raise ValueError(
            f"veer_rate {veer_rate} deg/m turns the wind by 90 deg or more across "
            f"a {spec.rotor_diameter} m rotor")
    z = spec.hub_height + heights
    speed_ratio = (z / spec.hub_height) ** shear_alpha
    dphi = np.deg2rad(veer_rate * heights)
    weights = areas / areas.sum()
    return u_hub * float(np.cbrt(np.sum(weights * (speed_ratio * np.cos(dphi)) ** 3)))


def _plateau_extended(curve: PowerCurve, cut_out: float) -> tuple[int, np.ndarray, float]:
    """(k, extended, plateau): the production window is the grid prefix [0, k)
    up to cut_out (within GRID_EPS), which the callers zero past.  Past it the
    extended values take plateau, the value at the cut-out point (0 if k = 0),
    as if no shutdown occurred; so does the grid's extension past its end."""
    k = int(np.searchsorted(curve.wind_grid, cut_out + GRID_EPS, side="right"))
    plateau = float(curve.power[k - 1]) if k else 0.0
    extended = curve.power.copy()
    extended[k:] = plateau
    return k, extended, plateau


class _RowPlan(NamedTuple):
    """The turbulence rows that take the kernel, with their padded windows
    [lo, hi) on the extended grid."""

    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def taps(self) -> int:
        """Kernel taps the stage evaluates: its cost."""
        return int(self.widths.sum())


def _row_plan(k: int, sigma: np.ndarray, dv: float, ext_power: np.ndarray,
              candidates: np.ndarray | bool) -> _RowPlan:
    """Plan the turbulence rows: the candidates in the window [0, k) with
    sigma >= dv/2 whose padded window holds more than one value.

    candidates is a boolean mask over the grid, or True for every row.  Two
    points of padding absorb the floor and grid round-off, so each window
    holds every tap of the inclusive +-KERNEL_REACH*sigma mask.  A row whose
    padded window lies inside one run of equal values in ext_power averages
    that value, which it already holds, so it is left out with no taps.
    """
    rows = np.flatnonzero((candidates & (sigma >= dv / 2.0))[:k])
    half = np.floor(KERNEL_REACH * sigma[rows] / dv).astype(np.intp) + 2
    lo = np.maximum(rows - half, 0)
    hi = np.minimum(rows + half + 1, len(ext_power))
    run = np.concatenate([[0], np.cumsum(ext_power[1:] != ext_power[:-1])])
    keep = run[lo] != run[hi - 1]
    return _RowPlan(rows[keep], lo[keep], hi[keep])


def _smoothed(curve: PowerCurve, ti: float, cut_out: float,
              candidates: np.ndarray | bool) -> np.ndarray:
    """The turbulence kernel: the curve's values with the candidate rows
    smoothed (see :func:`apply_turbulence`) and zero past cut_out.

    candidates is a boolean mask over the grid, or True for every row; the
    other rows hold their plateau-extended input.
    """
    _check_ti(ti)
    check_value("cut_out", cut_out)
    grid, dv = curve.wind_grid, curve.dv
    k, smoothed, plateau = _plateau_extended(curve, cut_out)
    smoothed[k:] = 0.0
    if ti == 0.0:
        return smoothed

    # Extend the grid far enough to cover the widest kernel reach.
    reach = KERNEL_REACH * ti * grid[-1]
    n_extra = int(math.ceil(reach / dv)) + 1
    ext_grid = np.concatenate([grid, grid[-1] + dv * np.arange(1, n_extra + 1)])
    ext_power = np.concatenate([smoothed[:k], np.full(len(grid) - k + n_extra, plateau)])

    # Rows outside the plan (see _row_plan) keep their value: 0 past the window.
    sigma = ti * grid
    plan = _row_plan(k, sigma, dv, ext_power, candidates)
    rows, lo, widths = plan.rows, plan.lo, plan.widths
    ends = np.cumsum(widths)
    first = 0
    while first < len(rows):
        # The next rows holding at most BLOCK_TAPS taps together, or one wider row.
        last = max(int(np.searchsorted(ends, ends[first] - widths[first] + BLOCK_TAPS,
                                       side="right")), first + 1)
        r, counts = rows[first:last], widths[first:last]
        starts = np.cumsum(counts) - counts
        taps = np.repeat(lo[first:last] - starts, counts) + np.arange(int(counts.sum()))
        offsets = ext_grid[taps] - np.repeat(grid[r], counts)
        s = np.repeat(sigma[r], counts)
        w = np.where(np.abs(offsets) <= KERNEL_REACH * s,
                     np.exp(-0.5 * (offsets / s) ** 2), 0.0)
        smoothed[r] = np.add.reduceat(w * ext_power[taps], starts) / np.add.reduceat(w, starts)
        first = last
    return smoothed


def apply_turbulence(curve: PowerCurve, ti: float, *, cut_out: float) -> PowerCurve:
    """Fold turbulence intensity into a power curve.

    Each output point at wind speed U up to cut_out is the kernel-weighted
    average of the plateau-extended input, the kernel being a Gaussian
    centred at U with standard deviation U * ti (truncated at
    +-KERNEL_REACH standard deviations and renormalized).  Past cut_out the
    output is zero, so the shutdown edge stays one grid step wide.  ti = 0
    returns the input values unchanged inside the window.

    A row whose +-KERNEL_REACH sigma window (padded by two grid points) holds
    one constant value, such as the rows well past rated speed or wholly
    below cut-in, takes that value exactly at O(1) cost.  The other rows
    evaluate only their window, gathered in blocks of at most BLOCK_TAPS
    (8192) kernel taps, a wider row being a block of its own.  The cost is
    the taps of those remaining rows, at most rows x window, which grows as
    N^2 * ti for N grid points; the temporaries stay bounded.  It raises
    ValueError unless 0 <= ti < 1 and cut_out is finite.
    """
    return PowerCurve(curve.wind_grid, _smoothed(curve, ti, cut_out, True))


def turbulent_power(curve: PowerCurve, ti: float, wind: np.ndarray, *,
                    cut_out: float) -> np.ndarray:
    """The turbulent curve interpolated linearly at the speeds wind, a
    non-empty array.

    Exactly ``np.interp(wind, grid, apply_turbulence(curve, ti,
    cut_out=cut_out).power)``, but only the grid rows that bracket a speed,
    j and j + 1 with j = clip(searchsorted(grid, wind, "right") - 1, 0,
    n - 2), are smoothed: each row's value does not depend on which other
    rows are computed, and the interpolation on those rows picks the same
    bracket and slope.  Its cost is the taps of at most 2 * len(wind) rows.
    """
    grid = curve.wind_grid
    j = np.clip(np.searchsorted(grid, wind, "right") - 1, 0, len(grid) - 2)
    marked = np.zeros(len(grid), dtype=bool)
    marked[j] = True
    marked[j + 1] = True
    rows = np.flatnonzero(marked)
    return np.interp(wind, grid[rows], _smoothed(curve, ti, cut_out, marked)[rows])


def apply_shear_veer(curve: PowerCurve, spec: TurbineSpec, shear_alpha: float,
                     veer_rate: float, n_bands: int = DEFAULT_N_BANDS) -> PowerCurve:
    """Remap a power curve through the rotor-equivalent wind speed.

    The output at hub speed u is the plateau-extended input interpolated
    linearly at rews(u).  The cut-out gate acts on the hub-height speed, not
    on the rotor-equivalent one, so the shutdown position is untouched.
    """
    if spec.cut_out is None:
        raise ValueError(f"{spec.name}: spec incomplete; run complete_spec first")
    u_eq = rews(curve.wind_grid, spec, shear_alpha, veer_rate, n_bands)
    k, base, _ = _plateau_extended(curve, spec.cut_out)
    power = np.interp(u_eq, curve.wind_grid, base)
    power[k:] = 0.0
    return PowerCurve(curve.wind_grid, power)
