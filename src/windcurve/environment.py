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

#: Most elements in one block of the turbulence stage: its rows times the
#: columns of the extended grid they span together.  Bounds the stage's
#: temporaries to a few hundred kB whatever the grid and TI; a row wider than
#: it is a block of its own.
BLOCK_TAPS = 2 ** 14

#: Most rows in one block.  m consecutive rows span about m more columns than
#: the widest of their windows, so about m * m elements of their rectangle lie
#: outside every window; sqrt(BLOCK_TAPS) / 2 rows keep those to a quarter of it.
_BLOCK_ROWS = math.isqrt(BLOCK_TAPS) // 2
_ROW_COUNTS = np.arange(1, _BLOCK_ROWS + 1)

#: Most kernel taps the turbulence stage evaluates for one curve, checked
#: before the first: dv 0.001 m/s at TI 0.15 takes 4.7e8, 1.4 s on one core
#: of a shared Xeon.
MAX_TURBULENCE_TAPS = 500_000_000


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


def _row_plan(k: int, sigma: np.ndarray, dv: float,
              ext_power: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plan the turbulence rows: (rows, lo, hi), the rows in the window [0, k)
    with sigma >= dv/2 whose padded window [lo, hi) on the extended grid holds
    more than one value.

    Two points of padding absorb the floor and grid round-off, so each window
    holds every tap of the inclusive +-KERNEL_REACH*sigma mask.  A row whose
    padded window lies inside one run of equal values in ext_power averages
    that value, which it already holds, so it is left out with no taps.
    """
    rows = np.flatnonzero(sigma[:k] >= dv / 2.0)
    half = np.floor(KERNEL_REACH * sigma[rows] / dv).astype(np.intp) + 2
    lo = np.maximum(rows - half, 0)
    hi = np.minimum(rows + half + 1, len(ext_power))
    run = np.concatenate([[0], np.cumsum(ext_power[1:] != ext_power[:-1])])
    keep = run[lo] != run[hi - 1]
    return rows[keep], lo[keep], hi[keep]


def _blocks(lo: np.ndarray, hi: np.ndarray):
    """Split planned rows with windows [lo, hi) into blocks (first, last, c0,
    c1): from first, the longest run of at most _BLOCK_ROWS rows whose
    rectangle, the rows times the columns [c0, c1) their windows span, holds
    at most BLOCK_TAPS elements, or one wider row."""
    first = 0
    while first < len(lo):
        c0 = np.minimum.accumulate(lo[first:first + _BLOCK_ROWS])
        area = _ROW_COUNTS[:len(c0)] * (hi[first:first + _BLOCK_ROWS] - c0)
        last = first + max(int(area.searchsorted(BLOCK_TAPS, "right")), 1)
        yield first, last, int(c0[last - first - 1]), int(hi[last - 1])
        first = last


def _smoothed(curve: PowerCurve, ti: float, cut_out: float,
              candidates: np.ndarray) -> np.ndarray:
    """The turbulence kernel: the curve's values with the candidate rows, a
    boolean mask over the grid, smoothed (see :func:`apply_turbulence`) and
    zero past cut_out; the other rows hold their plateau-extended input.
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
    rows, lo, hi = _row_plan(k, sigma, dv, ext_power)
    taps = int((hi - lo).sum())
    if taps > MAX_TURBULENCE_TAPS:
        raise ValueError(f"turbulence kernel of {taps} taps at TI {ti} exceeds "
                         f"MAX_TURBULENCE_TAPS = {MAX_TURBULENCE_TAPS}")
    # The plan's candidate rows, with their centres, sigmas and reaches as
    # columns; the candidates among the plan's first i rows are r[:at[i]].
    take = candidates[rows]
    r = rows[take]
    at = [0, *np.cumsum(take).tolist()]
    u, s = grid[r, None], sigma[r, None]
    reach = KERNEL_REACH * s
    num, den = np.empty(len(r)), np.empty(len(r))
    for first, last, c0, c1 in _blocks(lo, hi):
        i, j = at[first], at[last]
        if i == j:
            continue
        off = ext_grid[c0:c1] - u[i:j]
        outside = np.abs(off) > reach[i:j]
        off /= s[i:j]
        off *= off
        off *= -0.5
        w = np.exp(off, out=off)
        np.copyto(w, 0.0, where=outside)
        w.sum(axis=1, out=den[i:j])
        w *= ext_power[c0:c1]
        w.sum(axis=1, out=num[i:j])
    smoothed[r] = num / den
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
    below cut-in, takes that value exactly at O(1) cost.  The other rows are
    cut into blocks of consecutive rows, each evaluated as one dense
    rectangle: its rows times the columns of the extended grid their windows
    span, each row weighted zero outside its own +-KERNEL_REACH sigma.  A
    block is the longest run of at most _BLOCK_ROWS (64) rows whose rectangle
    holds at most BLOCK_TAPS (16384) elements, a wider row being a block of
    its own, so the temporaries stay a few hundred kB.  The blocks are cut
    from the plan of every row, whichever rows are computed, so a row always
    sums over the same columns; that keeps :func:`turbulent_power` exact.
    The cost is the taps of the planned rows, at most rows x window, which
    grows as N^2 * ti for N grid points, plus about one column per
    neighbouring row of a block.  It raises ValueError, before the first
    block, unless 0 <= ti < 1, cut_out is finite and the planned rows hold at
    most MAX_TURBULENCE_TAPS taps.
    """
    grid = curve.wind_grid
    return PowerCurve(grid, _smoothed(curve, ti, cut_out, np.ones(len(grid), dtype=bool)))


def turbulent_power(curve: PowerCurve, ti: float, wind: np.ndarray, *,
                    cut_out: float) -> np.ndarray:
    """The turbulent curve interpolated linearly at the speeds wind.

    Exactly ``np.interp(wind, grid, apply_turbulence(curve, ti,
    cut_out=cut_out).power)``, but only the grid rows j and j + 1 with
    j = clip(searchsorted(grid, wind, "right") - 1, 0, n - 2) are smoothed:
    np.interp reads only those two rows for each speed, and each row's value
    does not depend on which other rows are computed.  Its cost is the taps
    of at most 2 * len(wind) rows.
    """
    grid = curve.wind_grid
    j = np.clip(np.searchsorted(grid, wind, "right") - 1, 0, len(grid) - 2)
    marked = np.zeros(len(grid), dtype=bool)
    marked[j] = True
    marked[j + 1] = True
    return np.interp(wind, grid, _smoothed(curve, ti, cut_out, marked))


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
