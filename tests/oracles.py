"""Independent reference implementations used as test oracles.

Everything here is written as plain per-point arithmetic (or arbitrary
precision via mpmath), deliberately sharing no code with the package, so the
vectorised engine can be checked against a second, simple-minded path.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# Power coefficient
# ---------------------------------------------------------------------------

def cp_direct(lam: float, beta: float, p) -> float:
    """Plain-float evaluation of the cp family; degenerate points -> 0."""
    b = beta + p.beta_offset
    shifted = lam + p.c9 * b
    if lam <= 0.0 or shifted <= 0.0:
        return 0.0
    inv = 1.0 / shifted - p.c10 / (b ** 3 + 1.0)
    if inv <= 0.0:
        return 0.0
    li = 1.0 / inv
    cp = (p.c1 * (p.c2 / li - p.c3 * b - p.c4 * li * b - p.c5 * b ** p.x - p.c6)
          * math.exp(-p.c7 / li) + p.c8 * lam)
    return cp if cp > 0.0 else 0.0


def cp_mp(lam, beta, p) -> mp.mpf:
    """Arbitrary-precision evaluation of the cp family (no clamping)."""
    lam = mp.mpf(lam)
    b = mp.mpf(beta) + mp.mpf(p.beta_offset)
    inv = 1 / (lam + mp.mpf(p.c9) * b) - mp.mpf(p.c10) / (b ** 3 + 1)
    li = 1 / inv
    return (mp.mpf(p.c1) * (mp.mpf(p.c2) / li - mp.mpf(p.c3) * b
                            - mp.mpf(p.c4) * li * b
                            - mp.mpf(p.c5) * b ** mp.mpf(p.x) - mp.mpf(p.c6))
            * mp.e ** (-mp.mpf(p.c7) / li) + mp.mpf(p.c8) * lam)


def brute_lambda_opt(p, dl: float = 1e-5, lo: float = 0.5, hi: float = 25.0):
    """Exhaustive argmax of cp(lambda, 0) on a dense grid."""
    n = int(round((hi - lo) / dl))
    lams = np.linspace(lo, hi, n + 1)
    b = p.beta_offset
    shifted = lams + p.c9 * b
    inv = np.where(shifted > 0, 1.0 / np.where(shifted > 0, shifted, 1.0), -1.0) \
        - p.c10 / (b ** 3 + 1.0)
    ok = (shifted > 0) & (inv > 0)
    inv_safe = np.where(ok, inv, 1.0)
    cp = (p.c1 * (p.c2 * inv_safe - p.c3 * b - p.c5 * b ** p.x - p.c6)
          * np.exp(-p.c7 * inv_safe) + p.c8 * lams)
    cp = np.where(ok, np.maximum(cp, 0.0), 0.0)
    i = int(np.argmax(cp))
    return float(lams[i]), float(cp[i])


# ---------------------------------------------------------------------------
# Rotor-equivalent wind speed
# ---------------------------------------------------------------------------

def rews_banded(u_hub: float, rotor_diameter: float, hub_height: float,
                shear_alpha: float, veer_rate: float, n: int) -> float:
    """Band-discretized rotor-equivalent speed with midpoint-rule areas.

    Unlike the package (exact circular-segment areas) this approximates each
    band area by chord-at-centre times band height, which converges to the
    same limit as n grows; at n = 1e4 it serves as the reference value.
    """
    radius = rotor_diameter / 2.0
    edges = np.linspace(-radius, radius, n + 1)
    centres = 0.5 * (edges[:-1] + edges[1:])
    areas = 2.0 * np.sqrt(np.maximum(radius ** 2 - centres ** 2, 0.0)) * np.diff(edges)
    z = hub_height + centres
    u = u_hub * (z / hub_height) ** shear_alpha
    dphi = np.deg2rad(veer_rate * centres)
    return float(np.cbrt(np.sum(areas / areas.sum() * (u * np.cos(dphi)) ** 3)))


# ---------------------------------------------------------------------------
# Naive per-point pipeline
# ---------------------------------------------------------------------------

def _segment_area(radius: float, h0: float, h1: float) -> float:
    def anti(h: float) -> float:
        r = min(max(h / radius, -1.0), 1.0)
        return h * math.sqrt(max(radius * radius - h * h, 0.0)) + radius ** 2 * math.asin(r)
    return anti(h1) - anti(h0)


def naive_rews_factor(rotor_diameter: float, hub_height: float,
                      shear_alpha: float, veer_rate: float, n_bands: int) -> float:
    radius = rotor_diameter / 2.0
    dh = 2.0 * radius / n_bands
    # pin the outer edges exactly on the rim: asin is ill-conditioned there,
    # so a 1-ulp overshoot in the accumulated edge would visibly perturb the
    # outermost band areas
    edges = [-radius + j * dh for j in range(n_bands + 1)]
    edges[0], edges[-1] = -radius, radius
    total_area = 0.0
    acc = 0.0
    for j in range(n_bands):
        h0, h1 = edges[j], edges[j + 1]
        hc = 0.5 * (h0 + h1)
        a = _segment_area(radius, h0, h1)
        ratio = ((hub_height + hc) / hub_height) ** shear_alpha
        phi = math.radians(veer_rate * hc)
        acc += a * (ratio * math.cos(phi)) ** 3
        total_area += a
    return (acc / total_area) ** (1.0 / 3.0)


def _interp(x: float, xs: np.ndarray, ys: np.ndarray) -> float:
    """Linear interpolation, clamped to the end values."""
    if x <= xs[0]:
        return float(ys[0])
    if x >= xs[-1]:
        return float(ys[-1])
    j = int(np.searchsorted(xs, x, side="right"))
    x0, x1 = float(xs[j - 1]), float(xs[j])
    y0, y1 = float(ys[j - 1]), float(ys[j])
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


def naive_power_curve(spec, ti: float, rho: float, shear_alpha: float,
                      veer_rate: float, p, *, v_max: float = 40.0,
                      dv: float = 0.05, n_bands: int = 100) -> np.ndarray:
    """Per-point reimplementation of the whole synthesis pipeline.

    Mirrors the documented semantics (rotor-speed clamp, cp domain window,
    rated cap, inclusive gates, plateau-extended remap and smoothing, hub
    gated cut-out) with simple loops; spec must be complete.
    """
    lam_opt, raw = brute_lambda_opt(p)
    scale = spec.cp_max / raw
    radius = spec.rotor_diameter / 2.0
    area = math.pi * spec.rotor_diameter ** 2 / 4.0
    grid = np.linspace(0.0, v_max, int(round(v_max / dv)) + 1)
    eps = 1e-9

    ideal = np.zeros(len(grid))
    for i, v in enumerate(grid):
        if v <= 0.0 or v < spec.cut_in - eps or v > spec.cut_out + eps:
            continue
        omega = min(spec.omega_max, max(spec.omega_min,
                                        lam_opt * v / radius * 60.0 / (2.0 * math.pi)))
        lam = omega * 2.0 * math.pi / 60.0 * radius / v
        cp = cp_direct(lam, 0.0, p) * scale if 0.5 <= lam <= 25.0 else 0.0
        ideal[i] = min(spec.rated_power, 0.5 * rho * area * v ** 3 * cp / 1000.0)

    current = ideal

    # Shear/veer remap through the rotor-equivalent speed (hub-gated).
    if shear_alpha != 0.0 or veer_rate != 0.0:
        factor = naive_rews_factor(spec.rotor_diameter, spec.hub_height,
                                   shear_alpha, veer_rate, n_bands)
        inside = grid <= spec.cut_out + eps
        plateau = float(current[inside][-1])
        extended = np.where(inside, current, plateau)
        remapped = np.zeros(len(grid))
        for i, v in enumerate(grid):
            if v > spec.cut_out + eps:
                continue
            remapped[i] = _interp(v * factor, grid, extended)
        current = remapped

    # Turbulence smoothing with per-point Gaussian kernels.
    if ti > 0.0:
        inside = grid <= spec.cut_out + eps
        plateau = float(current[inside][-1])
        extended = np.where(inside, current, plateau)
        n_extra = int(math.ceil(5.0 * ti * grid[-1] / dv)) + 1
        ext_grid = np.concatenate([grid, grid[-1] + dv * np.arange(1, n_extra + 1)])
        ext_power = np.concatenate([extended, np.full(n_extra, plateau)])
        smoothed = np.zeros(len(grid))
        # the rows past cut-out stay 0
        for i, half in enumerate(kernel_half_widths(ti, grid[inside], dv, eps)):
            u = grid[i]
            if half is None:
                smoothed[i] = extended[i]
                continue
            sigma = ti * u
            ws, vals = [], []
            for k in range(max(i - half, 0), i + half + 1):
                ws.append(math.exp(-0.5 * ((ext_grid[k] - u) / sigma) ** 2))
                vals.append(float(ext_power[k]))
            total = sum(ws)
            smoothed[i] = sum(w * val for w, val in zip(ws, vals)) / total
        current = smoothed

    return current


def kernel_half_widths(ti: float, grid: np.ndarray, dv: float, eps: float) -> list:
    """The smoothing window of each row of grid, decided in exact arithmetic
    on the float inputs: the most whole grid steps m with m * dv <=
    5 * ti * u + eps for the row at speed u, or None when ti * u + eps <
    dv / 2 and the row keeps its value.  The slack eps puts an edge meant to
    lie on a grid point inside.

    Each float is the exact ratio of two integers (float.as_integer_ratio),
    ti = a/b, dv = c/d, eps = e/f and u = g/h, so both tests are taken on
    integers, with every denominator multiplied out: sigma + eps =
    (a g f + e b h) / (b h f)."""
    (a, b), (c, d), (e, f) = (float(x).as_integer_ratio() for x in (ti, dv, eps))
    halves = []
    for u in grid.tolist():
        g, h = u.as_integer_ratio()
        sigma, slack, den = a * g * f, e * b * h, b * h * f
        halves.append(None if 2 * d * (sigma + slack) < c * den
                      else d * (5 * sigma + slack) // (c * den))
    return halves


def convolve_reference(grid: np.ndarray, power: np.ndarray, ti: float,
                       cut_out: float) -> np.ndarray:
    """Stand-alone smoothing oracle on an arbitrary uniform grid."""
    dv = float(grid[1] - grid[0])
    eps = 1e-9
    inside = grid <= cut_out + eps
    plateau = float(power[inside][-1])
    extended = np.where(inside, power, plateau)
    n_extra = int(math.ceil(5.0 * ti * grid[-1] / dv)) + 1
    ext_grid = np.concatenate([grid, grid[-1] + dv * np.arange(1, n_extra + 1)])
    ext_power = np.concatenate([extended, np.full(n_extra, plateau)])
    out = np.zeros(len(grid))
    # the rows past cut-out stay 0
    for i, half in enumerate(kernel_half_widths(ti, grid[inside], dv, eps)):
        u = grid[i]
        if half is None:
            out[i] = extended[i]
            continue
        sigma = ti * u
        window = slice(max(i - half, 0), i + half + 1)
        w = np.exp(-0.5 * ((ext_grid[window] - u) / sigma) ** 2)
        out[i] = float(np.sum(w * ext_power[window]) / np.sum(w))
    return out
