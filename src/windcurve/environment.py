"""Environmental corrections: turbulence smoothing and shear/veer remapping.

Turbulence intensity is folded in by convolving the curve with a Gaussian
kernel whose width scales with wind speed (standard deviation U * TI for the
output point at U).  Wind shear and wind veer enter through a rotor
equivalent wind speed: the cube-root of the area-weighted mean cubed
effective speed over the N_BANDS horizontal rotor bands, with the band
speeds taken from a power-law vertical profile and the band directions from
a linear veer profile.  Both profiles scale with the hub speed u, so that
speed is kappa * u for one number kappa, and the stage reads the curve there.

Both transformations leave the cut-out edge sharp.  Shutdown at cut-out is
triggered by the hub-height mean wind speed, not by short-term fluctuations
or the rotor-averaged speed, so the curve is extended past cut-out as a
plateau before either transformation and the hard gate is re-applied after.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curve_engine import DEFAULT_RHO, GRID_EPS, PowerCurve, check_rho, window_end
from .errors import check_value
from .turbine import TurbineSpec, require_fields

#: Number of horizontal rotor bands in the rotor-equivalent wind speed; the
#: band sum is within 1e-4 relative of the 1e4-band sum at this count.
N_BANDS = 100

# The N_BANDS equal-height bands of the unit disc, edges _e from -1 to 1: the
# steps of the chord's antiderivative e*sqrt(1 - e^2) + asin(e) are their areas.
_e = np.linspace(-1.0, 1.0, N_BANDS + 1)
_areas = np.diff(_e * np.sqrt(1.0 - _e * _e) + np.arcsin(_e))
#: The band centres in radii from the hub.
BAND_CENTRES = 0.5 * (_e[:-1] + _e[1:])
#: The bands' shares of the disc's area, which sum to 1.
BAND_WEIGHTS = _areas / _areas.sum()

#: Kernel support truncated at this many standard deviations, then
#: renormalized; the discarded mass is below 1e-6.
KERNEL_REACH = 5.0

#: Most elements in one block of the turbulence stage: its rows times the
#: half-width of its last, the widest; a row wider than it is a block of its
#: own.  It bounds the stage's workspace, max(BLOCK_TAPS, widest half-width)
#: elements, and no value: a row sums its own window alone.
BLOCK_TAPS = 2 ** 14

#: Most window taps one curve's plan may hold at one TI, sum(h + min(h, r) + 1)
#: over the rows r whose window holds more than one value, checked before the
#: first block; the kernel evaluates about half as many weights, one exp per +-m
#: pair.  dv 0.001 m/s at TI 0.15 plans 4.7e8, 1.4 s on a shared 2.1 GHz Xeon core.
MAX_TURBULENCE_TAPS = 500_000_000


def _check_ti(ti: float) -> None:
    """Raise ValueError unless ti is a finite real in [0, 1), before any work depends on it."""
    check_value("ti", ti)
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
        check_rho(self.rho)
        if not 0.9 <= self.rho <= 1.5:
            # stacklevel 3 skips the dataclass-generated __init__ to the caller.
            warnings.warn(f"air density {self.rho} kg/m^3 outside the usual "
                          "0.9-1.5 band", UserWarning, stacklevel=3)


def rews_factor(spec: TurbineSpec, shear_alpha: float, veer_rate: float) -> float:
    """kappa, the rotor-equivalent wind speed over the hub-height speed.

    Cube-root of the area-weighted mean of (s_i * cos(dphi_i))^3 over the
    N_BANDS bands of the unit disc scaled by the rotor radius (BAND_CENTRES,
    BAND_WEIGHTS), with s_i the power-law speed ratio to the hub and dphi_i
    the linear veer angle at the band centre.  A spec without rotor_diameter
    raises MissingMandatoryField, one without hub_height ValueError.
    The veer across the rotor must stay below 90 deg (|veer_rate| * D/2 < 90),
    past which cos(dphi) < 0 reverses the band speeds; the typical range,
    0-0.75 deg/m, turns an 80 m rotor by at most 30 deg.
    """
    require_fields(spec, "rotor_diameter")
    if spec.hub_height is None:
        raise ValueError(f"{spec.name}: hub_height required for shear/veer effects")
    check_value("shear_alpha", shear_alpha)
    check_value("veer_rate", veer_rate)
    if not abs(veer_rate) * spec.rotor_diameter / 2.0 < 90.0:
        raise ValueError(
            f"veer_rate {veer_rate} deg/m turns the wind by 90 deg or more across "
            f"a {spec.rotor_diameter} m rotor")
    heights = spec.rotor_diameter / 2.0 * BAND_CENTRES
    speed_ratio = ((spec.hub_height + heights) / spec.hub_height) ** shear_alpha
    dphi = np.deg2rad(veer_rate * heights)
    return float(np.cbrt(np.sum(BAND_WEIGHTS * (speed_ratio * np.cos(dphi)) ** 3)))


def _row_plan(k: int, ti: float, r0: float, slack: float,
              run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plan TI ti's turbulence rows in grid steps: (rows, half), the rows r
    of the window [0, k) with x = ti * (r0 + r) > 0 and x + slack >= 1/2
    whose window holds more than one run id, and their half-widths
    h = floor(KERNEL_REACH * x + slack).  x is sigma / dv, r0 = grid[0] / dv
    the grid's origin in steps and slack = GRID_EPS / dv; run[i] counts the
    value changes of the plateau-extended input up to column i.  A row with
    x = 0, at 0 m/s or at TI 0, is never planned, even when slack >= 1/2.

    Row r's window is [max(r - h, 0), r + h + 1): both tests take the slack,
    so an edge meant to lie on a grid point is inside, as <= says.  x never
    falls along the rows, so neither does half.  A row whose window lies in
    one run averages the value it already holds: it is left out, with no taps.
    """
    x = ti * (r0 + np.arange(k, dtype=np.float64))
    rows = np.flatnonzero((x > 0.0) & (x + slack >= 0.5))
    half = np.floor(KERNEL_REACH * x[rows] + slack).astype(np.intp)
    keep = run[np.maximum(rows - half, 0)] != run[np.minimum(rows + half, k - 1)]
    return rows[keep], half[keep]


def _blocks(half: np.ndarray):
    """Split the computed rows with half-widths half, which never fall, into
    blocks (first, last, H): from first, the longest run of rows whose count
    times H, the half-width of its last row, is at most BLOCK_TAPS, or one
    wider row.  A row's value does not depend on its block."""
    first = 0
    while first < len(half):
        # H >= half[first], so no run longer than BLOCK_TAPS // half[first]
        # fits; the one row more keeps a wider first row in its own block.
        h = half[first:first + 1 + BLOCK_TAPS // int(half[first])]
        area = np.arange(1, len(h) + 1) * h
        last = first + max(int(area.searchsorted(BLOCK_TAPS, "right")), 1)
        yield first, last, int(half[last - 1])
        first = last


def _smoothed(curve: PowerCurve, tis: Sequence[float], cut_out: float,
              candidates: np.ndarray | None = None) -> np.ndarray:
    """The turbulence kernel: one row per TI in tis, (len(tis), n), each the
    curve's values with the candidate rows, a boolean mask over the grid
    (None for every row), smoothed (see :func:`apply_turbulence`) and zero
    past cut_out; the other rows hold their input.  Row i is bit-identical
    to the batch [tis[i]].  The setup that does not depend on TI is made
    once per batch: the checks, the window [0, k), its plateau power[k - 1]
    and run ids, r0 and the slack (the only terms in dv, see
    :func:`_row_plan`), the padded power and its view, padded to the widest
    half-width, the squared offsets and the blocks' workspace.  Every TI is
    planned and checked against MAX_TURBULENCE_TAPS before the workspace is
    made; each TI's computed rows alone are cut into blocks.  A batch whose
    TIs are all 0, an empty one included, returns the windowed input in
    every row before any mask, plan, padding or workspace.
    """
    for t in tis:
        _check_ti(t)
    check_value("cut_out", cut_out)
    k = window_end(curve.wind_grid, cut_out)
    # Rows outside the plan keep their value: 0 past the window.
    out = curve.power[None].repeat(len(tis), 0)
    out[:, k:] = 0.0
    if not any(tis):
        return out

    if candidates is None:
        candidates = np.ones(len(curve.wind_grid), dtype=bool)
    plateau = float(curve.power[k - 1]) if k else 0.0
    r0, slack = curve.wind_grid[0] / curve.dv, GRID_EPS / curve.dv
    inside = curve.power[:k]
    run = np.concatenate([[0], np.cumsum(inside[1:] != inside[:-1])])
    plans, pad = [], 0
    for t in tis:
        rows, half = _row_plan(k, t, r0, slack, run)
        taps = int((half + np.minimum(half, rows) + 1).sum())
        if taps > MAX_TURBULENCE_TAPS:
            raise ValueError(f"turbulence kernel of {taps} taps at TI {t} exceeds "
                             f"MAX_TURBULENCE_TAPS = {MAX_TURBULENCE_TAPS}")
        plans.append((t, rows, half))
        if len(half):
            pad = max(pad, int(half[-1]))
    # The power at the columns -pad .. k + pad - 1: zeros before the grid, the
    # plateau past the window.  view[c + pad] holds the pad columns from c on,
    # so row r reads p_{r+m} at after[r, m - 1] and p_{r-m} at before[r, H - m].
    ext_power = np.concatenate([np.zeros(pad), inside, np.full(pad, plateau)])
    view = sliding_window_view(ext_power, pad)
    centre, after = ext_power[pad:], view[pad + 1:]
    # The squares of the offsets m = 1 .. pad in grid steps, float64 for speed.
    squares = np.arange(1, pad + 1, dtype=np.float64) ** 2
    # One workspace of the most elements a block's rows times H hold (see
    # _blocks): each block's weights and paired power are views of it.
    size = max(BLOCK_TAPS, pad)
    weights, paired = np.empty(size), np.empty(size)
    for smoothed, (t, rows, half) in zip(out, plans):
        # Only the candidate rows are computed, cut into blocks of their own.
        pick = candidates[rows].nonzero()[0]
        picked, reach = rows[pick], half[pick]
        # Row r's weights exp(m^2 * scale_r), scale_r = -0.5 / x_r^2: x_r > 0 on planned rows.
        scale = -0.5 / (t * (r0 + picked)) ** 2
        clipped = reach > picked
        for first, last, wide in _blocks(reach):
            r, h, n = picked[first:last], reach[first:last], last - first
            # Consecutive rows read the view through basic slices, with no copy.
            at = slice(r[0], r[-1] + 1) if r[-1] - r[0] == n - 1 else r
            cells = n * wide
            w = weights[:cells].reshape(n, wide)
            np.multiply(squares[:wide], scale[first:last, None], out=w)
            np.exp(w, out=w)
            before = view[pad - wide:]
            both = paired[:cells].reshape(n, wide)
            np.add(after[at, :wide], before[at, wide - 1::-1], out=both)
            both *= w
            # Row i sums its own window alone, the segment [i * H, i * H + h_i)
            # of the flattened block; the last ends at the block's end (h = H).
            bounds = np.arange(0, cells, wide).repeat(2)
            bounds[1::2] += h
            right = np.add.reduceat(weights[:cells], bounds[:-1])[::2]
            total = np.add.reduceat(paired[:cells], bounds[:-1])[::2]
            # A row whose window passes the grid's first column (h > r, TI > 0.2)
            # sums only its min(h, r) weights on the left; reduceat gives an
            # empty segment its first element, so row 0's left sum is made 0.
            left = right
            if clipped[first:last].any():
                bounds[1::2] += np.minimum(h, r) - h
                cut = bounds if bounds[-1] < cells else bounds[:-1]
                left = np.where(r > 0, np.add.reduceat(weights[:cells], cut)[::2], 0.0)
            smoothed[at] = (centre[at] + total) / (1.0 + right + left)
    return out


def apply_turbulence(curve: PowerCurve, ti: float, *, cut_out: float) -> PowerCurve:
    """Fold turbulence intensity into a power curve.

    Each output point at wind speed U up to cut_out is the kernel-weighted
    average of the plateau-extended input, the kernel being a Gaussian
    centred at U with standard deviation U * ti (truncated at
    +-KERNEL_REACH standard deviations and renormalized).  Past cut_out the
    output is zero, so the shutdown edge stays one grid step wide.  ti = 0
    returns the input values unchanged inside the window.

    The kernel works in grid steps: row r's sigma is x_r = ti * (r0 + r)
    steps, with r0 = grid[0] / dv, 0 on every make_wind_grid grid (a grid from
    another speed is taken, not refused).  Its window is the columns within
    h = floor(KERNEL_REACH * x_r + GRID_EPS / dv) steps, decided once by
    :func:`_row_plan`, so an edge on a grid point is inside whatever the
    grid's round-off.  A row whose window holds one constant value, such as
    the rows well past rated speed or wholly below cut-in, takes that value
    exactly at O(1) cost.  The other rows sum their window outward from the
    centre, row r being (p_r + sum_m w_m (p_{r+m} + p_{r-m})) / (1 + sum_m w_m
    (1 + [r >= m])) over m = 1..h, with w_m = exp(m^2 c_r) and c_r = -0.5 /
    x_r^2 computed once per row, so one multiply and one exp per +-m pair; a
    window that passes the grid's first column (TI > 0.2) reads zeros there
    and leaves those weights out of its sum.  The computed rows are cut into
    blocks, each the longest run of rows whose count times H, its last row's
    half-width, is at most BLOCK_TAPS (16384), or one wider row; a block is
    one dense array over zero-copy views of the power on both sides, in one
    workspace per call of max(BLOCK_TAPS, pad) elements, pad the widest
    half-width.  Each row sums its own h columns alone, one np.add.reduceat
    segment, so its value depends neither on its block nor on which rows are
    computed; that keeps :func:`turbulent_power` exact.  The cost is half
    the taps of the planned rows, at most rows x window, which grows as
    N^2 * ti for N grid points.  It raises ValueError, before the first
    block, unless 0 <= ti < 1, cut_out is finite and the planned rows hold
    at most MAX_TURBULENCE_TAPS taps.  This is the kernel's one single-TI
    front: :func:`turbulent_power` takes a batch of TIs.
    """
    return curve.with_power(_smoothed(curve, (ti,), cut_out)[0])


def turbulent_power(curve: PowerCurve, tis: Sequence[float], wind: np.ndarray, *,
                    cut_out: float) -> np.ndarray:
    """The turbulent curve of each TI in tis, interpolated linearly at the
    speeds wind: an array of shape (len(tis), *wind.shape).

    Row i is exactly ``np.interp(wind, grid, apply_turbulence(curve, tis[i],
    cut_out=cut_out).power)`` and bit-identical to the batch [tis[i]]; the
    kernel's TI-independent setup is made once for the batch (see
    :func:`_smoothed`).  Only the grid rows that np.interp reads are
    smoothed, and a row's value does not depend on which other rows are
    computed.  For j = clip(searchsorted(grid, wind, "right") - 1, 0, n - 2)
    those are row j, and row j + 1 unless the speed is grid[j] itself: there
    np.interp returns fp[j] without reading fp[j + 1].  So the cost is the
    taps of one row for each speed on a grid point, as a manufacturer curve
    tabulated every 0.25 m/s is on the default grid, and two otherwise.
    """
    if isinstance(tis, (str, bytes)) or not hasattr(tis, "__len__") or getattr(tis, "ndim", 1) != 1:
        raise ValueError(f"tis must be a 1-D sequence of turbulence intensities, got {tis!r}")
    grid = curve.wind_grid
    j = np.minimum(np.maximum(np.searchsorted(grid, wind, "right") - 1, 0), len(grid) - 2)
    marked = np.zeros(len(grid), dtype=bool)
    marked[j] = True
    marked[(j + 1)[grid[j] != wind]] = True
    power = _smoothed(curve, tis, cut_out, marked)
    return np.array([np.interp(wind, grid, row) for row in power]).reshape(
        len(power), *np.shape(wind))


def apply_shear_veer(curve: PowerCurve, spec: TurbineSpec, shear_alpha: float,
                     veer_rate: float) -> PowerCurve:
    """Remap a power curve through the rotor-equivalent wind speed.

    The output at hub speed u is the input over the window grid[:k] (see
    window_end) interpolated linearly at kappa * u (see :func:`rews_factor`),
    which holds the window's last value as a plateau past its end.  The
    cut-out gate acts on the hub-height speed, so grid[k:] is zero.
    """
    if spec.cut_out is None:
        raise ValueError(f"{spec.name}: spec incomplete; run complete_spec first")
    grid = curve.wind_grid
    if grid[0] < 0.0:
        raise ValueError(f"wind grid must start at or above 0 m/s, got {grid[0]}")
    kappa = rews_factor(spec, shear_alpha, veer_rate)
    k = window_end(grid, spec.cut_out)
    power = np.zeros(len(grid))  # np.interp refuses an empty window
    if k:
        power[:k] = np.interp(grid[:k] * kappa, grid[:k], curve.power[:k])
    return curve.with_power(power)
