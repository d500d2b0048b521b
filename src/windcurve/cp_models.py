"""Parametric rotor power-coefficient models cp(lambda, beta).

All bundled parameterisations are instances of one analytic family that is
widespread in the turbine-control literature::

    cp(lambda, beta) = c1*(c2/li - c3*b - c4*li*b - c5*b**x - c6)*exp(-c7/li)
                       + c8*lambda

    1/li = 1/(lambda + c9*b) - c10/(b**3 + 1)

with ``lambda`` the tip-speed ratio, ``b = beta + beta_offset`` the blade
pitch angle in degrees (some published fits evaluate the family at a shifted
pitch), and ``li`` an intermediate mixed variable.  Negative values are
clamped to zero: the rotor does not extract negative power when operated in
its partial-load region.

The module also provides the argmax search for the optimal tip-speed ratio
and the rescaling of a raw cp surface to a prescribed peak value, which is
how the curve engine decouples the *shape* of a parameterisation from the
aerodynamic efficiency actually reached by a given turbine.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import NoPositiveCp, UnknownParameterisation, check_value

#: Betz limit, the hard physical ceiling for any power coefficient.
BETZ_LIMIT = 16.0 / 27.0

#: Tip-speed-ratio interval, inclusive, on which the analytic family is
#: trusted.  The argmax search runs on it and ScaledCpModel.cp_array is zero
#: outside it, which suppresses spurious positive tails (the ``c8*lambda``
#: term of some fits grows without bound).
LAMBDA_DOMAIN = (0.5, 25.0)

# 2**-1024, the largest float whose reciprocal overflows to inf.
_RECIPROCAL_OVERFLOW = 2.0 ** -1024

#: Most points a tip-speed-ratio grid may hold: step 1.95e-4 over the default
#: 0.5-20 cp-table range, whose text holds one row per point, model and pitch.
MAX_LAMBDA_POINTS = 100_001


@dataclass(frozen=True)
class CpParameterisation:
    """One coefficient set of the analytic cp family.

    ``beta_offset`` is added to the pitch angle before evaluation; it is zero
    for all sets except the one whose published form operates on a shifted
    pitch.  ``provenance`` records where the numbers were transcribed from.
    """

    name: str
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    x: float
    beta_offset: float = 0.0
    provenance: str = ""

    def __post_init__(self) -> None:
        for f in fields(self)[1:-1]:  # every field but name and provenance
            check_value(f"{self.name}: {f.name}", getattr(self, f.name))


def cp_general_array(lams: np.ndarray, beta: float, p: CpParameterisation) -> np.ndarray:
    """Evaluate the cp family on an array of tip-speed ratios at pitch beta (deg).

    cp is clamped to >= 0, nan to 0.  Points where lambda <= 0, lambda + c9*b
    <= 0 or 1/li <= 0 lie outside the range where the parameterisation is
    meaningful and evaluate to 0, the treatment the curve engine needs.  A
    pitch at which the family is not real and finite raises ValueError: a
    non-finite beta, a shifted pitch b = -1 (where b**3 + 1 = 0), b < 0 with a
    non-integer exponent x (where b**x is complex), or b = 0 with x < 0.
    """
    check_value("pitch angle beta", beta)
    lams = np.asarray(lams, dtype=np.float64)
    b = beta + p.beta_offset
    pitch_term = b ** 3 + 1.0
    if (pitch_term == 0.0 or (b < 0.0 and not float(p.x).is_integer())
            or (b == 0.0 and p.x < 0.0)):
        raise ValueError(f"{p.name}: cp is not real and finite at pitch beta = {beta} deg "
                         f"(shifted pitch {b}, exponent x = {p.x})")
    # Each term of the family that is an exact zero is skipped.  Where the mask
    # keeps a point, such a term could only flip the sign of a zero cp, which
    # cp > 0 drops, so the result is bit-identical.  Two terms are zero only
    # where their array factor is finite: c4 * li * b with c4 = 0 is nan where
    # 1/inv_li overflows, 0 < inv_li <= _RECIPROCAL_OVERFLOW, which the mask then
    # drops instead; c8 * lambda with c8 = 0 is nan at lambda = inf, which
    # inv_li <= 0 masks unless c10 / (b**3 + 1) < 0, where the term is kept.
    c9b = p.c9 * b
    shifted = lams + c9b if c9b else lams
    # Evaluated everywhere, masked once: outside the domain it may be inf or nan.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c3b, c5bx, c10t = p.c3 * b, p.c5 * b ** p.x, p.c10 / pitch_term
        inv_li = 1.0 / shifted
        if c10t:
            inv_li -= c10t
        cp = p.c2 * inv_li
        if c3b:
            cp -= c3b
        if p.c4:
            cp -= p.c4 * (1.0 / inv_li) * b
        if c5bx:
            cp -= c5bx
        cp -= p.c6
        cp *= p.c1
        cp *= np.exp(-p.c7 * inv_li)
        if p.c8 or c10t < 0.0:
            cp += p.c8 * lams
    keep = (lams > 0.0) & (inv_li > (0.0 if p.c4 else _RECIPROCAL_OVERFLOW)) & (cp > 0.0)
    if shifted is not lams:
        keep &= shifted > 0.0
    return np.where(keep, cp, 0.0)


def lambda_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Tip-speed ratios from lo to hi inclusive, evenly spaced about step
    apart, at most MAX_LAMBDA_POINTS of them."""
    for name, value in (("lo", lo), ("hi", hi), ("step", step)):
        check_value(f"tip-speed-ratio grid {name}", value)
    count = (hi - lo) / step if step > 0 else math.nan
    if not (lo < hi and math.isfinite(count)):
        raise ValueError(f"tip-speed-ratio grid needs finite bounds lo < hi and a step > 0 "
                         f"giving a finite point count, got {lo}, {hi}, step {step}")
    if not count + 1.0 <= MAX_LAMBDA_POINTS:
        raise ValueError(f"tip-speed-ratio grid of {count + 1.0:.6g} points ({lo} to {hi}, "
                         f"step {step}) exceeds MAX_LAMBDA_POINTS = {MAX_LAMBDA_POINTS}")
    return np.linspace(lo, hi, int(round(count)) + 1)


@functools.lru_cache(maxsize=64)
def lambda_opt(p: CpParameterisation) -> tuple[float, float]:
    """Locate the tip-speed ratio maximising cp(lambda, beta=0).

    Three scans of ``cp_general_array``: step 0.01 over ``LAMBDA_DOMAIN``,
    which decides the peak, then step 1e-4 and step 1e-6 over one step of
    the previous scan either side of its best point (clipped to the domain).
    Each scan keeps its first maximum, so among equal maxima the smallest
    lambda wins and the result is deterministic.  The result depends only on
    the frozen parameterisation, so it is cached per parameterisation
    (bounded, since callers may build arbitrary coefficient sets).

    Returns
    -------
    (lambda_opt, raw_cp_at_opt) : tuple of float
        Arg max and the unscaled peak power coefficient.

    Raises
    ------
    NoPositiveCp
        If cp never exceeds zero on the search interval.
    """
    lo, hi = a, b = LAMBDA_DOMAIN
    for step in (1e-2, 1e-4, 1e-6):
        lams = lambda_grid(a, b, step)
        cps = cp_general_array(lams, 0.0, p)
        i = int(np.argmax(cps))
        if cps[i] <= 0.0:
            raise NoPositiveCp(f"{p.name}: cp <= 0 everywhere on lambda in {LAMBDA_DOMAIN}")
        a, b = max(lo, lams[i] - step), min(hi, lams[i] + step)
    return float(lams[i]), float(cps[i])


@dataclass(frozen=True)
class ScaledCpModel:
    """A cp parameterisation rescaled so its peak equals ``cp_max``.

    Rescaling separates the shape of the published fit from the aerodynamic
    efficiency a specific turbine actually reaches: the same shape serves any
    turbine once its peak is pinned to the turbine's maximum power
    coefficient.
    """

    base: CpParameterisation
    cp_max: float
    lambda_opt: float
    raw_cp_at_opt: float

    def __post_init__(self) -> None:
        for name in ("cp_max", "lambda_opt", "raw_cp_at_opt"):
            check_value(name, getattr(self, name))
        if not 0.0 < self.cp_max <= BETZ_LIMIT:
            raise ValueError(
                f"cp_max={self.cp_max} outside (0, {BETZ_LIMIT:.6f}]; the Betz "
                "limit caps any physically meaningful power coefficient")
        if self.raw_cp_at_opt <= 0.0:
            raise ValueError("raw_cp_at_opt must be positive")
        if self.lambda_opt <= 0.0:
            raise ValueError("lambda_opt must be positive")

    @property
    def scale(self) -> float:
        return self.cp_max / self.raw_cp_at_opt

    def cp_array(self, lams: np.ndarray) -> np.ndarray:
        """Scaled cp at beta = 0 on an array of tip-speed ratios: +0.0 outside
        the inclusive ``LAMBDA_DOMAIN`` and at the family's degenerate points."""
        lams = np.asarray(lams, dtype=float)
        cp = cp_general_array(lams, 0.0, self.base) * self.scale
        return np.where((lams < LAMBDA_DOMAIN[0]) | (lams > LAMBDA_DOMAIN[1]), 0.0, cp)


def scale_cp(p: CpParameterisation, cp_max: float) -> ScaledCpModel:
    """Build a :class:`ScaledCpModel` whose peak at beta=0 equals ``cp_max``.

    ``cp_max`` must lie in (0, 16/27]; the search for the raw peak may raise
    :class:`NoPositiveCp` for unusable coefficient sets.
    """
    check_value("cp_max", cp_max)
    lam, raw = lambda_opt(p)
    return ScaledCpModel(base=p, cp_max=float(cp_max), lambda_opt=lam, raw_cp_at_opt=raw)


# ---------------------------------------------------------------------------
# Bundled registry
# ---------------------------------------------------------------------------
# Coefficients transcribed from the original publications (and, for the
# Thongam set, the identical numbers shipped with the MATLAB/Simulink wind
# turbine block).  Raw peak values at beta=0, for orientation:
#
#   slootweg2003   0.441 at lambda 6.91
#   heier2014      0.411 at lambda 7.95
#   thongam2009    0.480 at lambda 8.10
#   dekooning2013  0.441 at lambda 6.77
#   ochieng2014    0.635 at lambda 7.21   (raw shape only; always rescaled)
#   dai2016        0.500 at lambda 9.95

_REGISTRY_ROWS = (
    CpParameterisation(
        name="slootweg2003",
        c1=0.73, c2=151.0, c3=0.58, c4=0.0, c5=0.002, c6=13.2, c7=18.4,
        c8=0.0, c9=-0.02, c10=0.003, x=2.14,
        provenance=("Slootweg, de Haan, Polinder & Kling (2003), IEEE Trans. "
                    "Power Systems 18(1), general variable-speed turbine model"),
    ),
    CpParameterisation(
        name="heier2014",
        c1=0.5, c2=116.0, c3=0.4, c4=0.0, c5=0.0, c6=5.0, c7=21.0,
        c8=0.0, c9=0.08, c10=0.035, x=1.0,
        provenance=("Heier, Grid Integration of Wind Energy, 3rd ed. (2014), "
                    "Wiley; the classic textbook approximation"),
    ),
    CpParameterisation(
        name="thongam2009",
        c1=0.5176, c2=116.0, c3=0.4, c4=0.0, c5=0.0, c6=5.0, c7=21.0,
        c8=0.0068, c9=0.08, c10=0.035, x=1.0,
        provenance=("Thongam, Bouchard, Ezzaidi & Ouhrouche (2009), IEEE "
                    "IEMDC; peak cp 0.48 at tip-speed ratio 8.1"),
    ),
    CpParameterisation(
        name="dekooning2013",
        c1=0.77, c2=151.0, c3=0.0, c4=0.0, c5=0.0, c6=13.65, c7=18.4,
        c8=0.0, c9=0.0, c10=0.003, x=1.0,
        provenance=("De Kooning, Gevaert, Vandoorn, Van de Vyver & Vandevelde "
                    "(2013), fixed-pitch small-turbine cp curve"),
    ),
    CpParameterisation(
        name="ochieng2014",
        c1=0.5, c2=116.0, c3=0.4, c4=0.0, c5=0.0, c6=5.0, c7=16.5,
        c8=0.0, c9=0.08, c10=0.035, x=1.0,
        provenance=("Ochieng, Manyonge & Oduor (2014), Int. J. Mathematics "
                    "and Soft Computing 4(1), tip-speed-ratio analysis"),
    ),
    CpParameterisation(
        name="dai2016",
        c1=0.645, c2=116.0, c3=0.4, c4=0.0, c5=0.0, c6=5.0, c7=21.0,
        c8=0.0058824, c9=0.08, c10=0.035, x=1.0, beta_offset=2.5,
        provenance=("Dai, Liu, Wen & Long (2016), Renewable Energy 86, "
                    "SCADA-based power-coefficient study; the published fit "
                    "evaluates the family at pitch + 2.5 deg"),
    ),
)

REGISTRY: dict[str, CpParameterisation] = {row.name: row for row in _REGISTRY_ROWS}

#: Parameterisation used when the caller does not pick one.
DEFAULT_PARAMETERISATION = "dai2016"


def get_parameterisation(name: str) -> CpParameterisation:
    """Case-insensitive registry lookup."""
    if not isinstance(name, str):
        raise ValueError(f"cp_model must be of type str, got {name!r}")
    key = name.strip().lower()
    try:
        return REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownParameterisation(
            f"unknown cp parameterisation {name!r}; bundled sets: {known}") from None


def registry_to_json() -> str:
    """Serialise the bundled registry as a JSON array."""
    return json.dumps([asdict(row) for row in _REGISTRY_ROWS], indent=2)
