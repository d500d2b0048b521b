"""Turbine catalogue data and statistical defaults for missing fields.

Only two characteristics are mandatory for curve synthesis: rotor diameter
and rated power.  Everything else can be filled from fleet statistics (most
frequent values across a large commercial turbine database) or, for the
rotation-speed limits, from power-law fits against rotor diameter.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .cp_models import BETZ_LIMIT
from .errors import MissingMandatoryField

# Fleet-statistics defaults: modal maximum power coefficient, modal cut-in /
# cut-out speeds, and power-law fits of the rotation-speed limits vs rotor
# diameter (rpm as a function of metres).
DEFAULT_CP_MAX = 0.44
DEFAULT_CUT_IN = 3.0
DEFAULT_CUT_OUT = 25.0
OMEGA_MIN_FIT = (1046.558, -1.0911)
OMEGA_MAX_FIT = (705.406, -0.8349)

RULE_CP_MAX = "fleet-modal-cp-max"
RULE_CUT_IN = "fleet-modal-cut-in"
RULE_CUT_OUT = "fleet-modal-cut-out"
RULE_OMEGA_MIN = "rpm-diameter-fit-min"
RULE_OMEGA_MAX = "rpm-diameter-fit-max"


def check_value(name: str, value, kind: type = numbers.Real) -> None:
    """Raise ValueError naming the field unless value is a kind, and finite
    if a real number.  A bool never passes, though Python counts it an int,
    nor does an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if kind is not numbers.Real:
        return
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large "
                         "for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")


def flat_record(data) -> dict:
    """The flat record held by a parsed JSON value: the object itself, the
    ``config`` object of a ``generate`` sidecar or the ``spec`` object of a
    ``defaults`` output."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    for key in ("config", "spec"):
        if isinstance(data.get(key), dict):
            return data[key]
    return data


@dataclass(frozen=True)
class TurbineSpec:
    """Catalogue characteristics of one turbine; unknown fields are None.

    Units: rotor_diameter and hub_height in m, rated_power in kW, cut_in and
    cut_out in m/s, omega_min and omega_max in rpm, cp_max dimensionless.
    """

    name: str = "turbine"
    rotor_diameter: float | None = None
    rated_power: float | None = None
    cut_in: float | None = None
    cut_out: float | None = None
    omega_min: float | None = None
    omega_max: float | None = None
    cp_max: float | None = None
    hub_height: float | None = None

    def __post_init__(self) -> None:
        def bad(msg: str) -> ValueError:
            return ValueError(f"{self.name}: {msg}")

        check_value("name", self.name, str)
        for f in fields(self)[1:]:
            if getattr(self, f.name) is not None:
                check_value(f"{self.name}: {f.name}", getattr(self, f.name))
        if self.rotor_diameter is not None and not self.rotor_diameter > 0:
            raise bad(f"rotor_diameter must be > 0, got {self.rotor_diameter}")
        if self.rated_power is not None and not self.rated_power > 0:
            raise bad(f"rated_power must be > 0, got {self.rated_power}")
        if self.cut_in is not None and self.cut_in < 0:
            raise bad(f"cut_in must be >= 0, got {self.cut_in}")
        if self.cut_in is not None and self.cut_out is not None \
                and not self.cut_in < self.cut_out:
            raise bad(f"cut_in {self.cut_in} must be below cut_out {self.cut_out}")
        if self.omega_min is not None and self.omega_min < 0:
            raise bad(f"omega_min must be >= 0, got {self.omega_min}")
        if self.omega_min is not None and self.omega_max is not None \
                and self.omega_min > self.omega_max:
            raise bad(f"omega_min {self.omega_min} exceeds omega_max {self.omega_max}")
        if self.cp_max is not None and not 0.0 < self.cp_max <= BETZ_LIMIT:
            raise bad(f"cp_max must lie in (0, {BETZ_LIMIT:.6f}], got {self.cp_max}")
        if (self.hub_height is not None and self.rotor_diameter is not None
                and not self.hub_height > self.rotor_diameter / 2.0):
            raise bad(f"hub_height {self.hub_height} does not clear the rotor "
                      f"radius {self.rotor_diameter / 2.0}")

    def is_complete(self) -> bool:
        """True when every field needed for curve synthesis is present
        (hub_height stays optional; it only matters for shear and veer)."""
        return None not in (self.rotor_diameter, self.rated_power, self.cut_in,
                            self.cut_out, self.omega_min, self.omega_max,
                            self.cp_max)


def default_rotation_speeds(rotor_diameter: float) -> tuple[float, float]:
    """Rotation-speed limits in rpm from power-law fits vs rotor diameter.

    The two fitted curves cross near D = 4.7 m; below it the fitted
    omega_min exceeds the fitted omega_max.
    """
    if not rotor_diameter > 0:
        raise ValueError(f"rotor_diameter must be > 0, got {rotor_diameter}")
    a, b = OMEGA_MIN_FIT
    c, d = OMEGA_MAX_FIT
    return (a * rotor_diameter ** b, c * rotor_diameter ** d)


def complete_spec(partial: TurbineSpec) -> tuple[TurbineSpec, list[dict]]:
    """Fill missing optional fields of ``partial`` with the defaults above.

    Rotor diameter and rated power are mandatory.  The report lists every
    substituted field as a ``{"field", "value", "rule"}`` dict; an
    already complete spec comes back unchanged with an empty report.  A
    rotation-speed pair completed from the fits that comes out inverted
    (small rotors, where the fits cross) raises ValueError.
    """
    if partial.rotor_diameter is None or partial.rated_power is None:
        missing = [n for n in ("rotor_diameter", "rated_power")
                   if getattr(partial, n) is None]
        raise MissingMandatoryField(
            f"{partial.name}: missing mandatory field(s): {', '.join(missing)}")

    w_min = w_max = None
    if partial.omega_min is None or partial.omega_max is None:
        w_min, w_max = default_rotation_speeds(partial.rotor_diameter)
        pair = (w_min if partial.omega_min is None else partial.omega_min,
                w_max if partial.omega_max is None else partial.omega_max)
        if pair[0] > pair[1]:
            raise ValueError(f"{partial.name}: the rotation-speed fits at rotor_diameter "
                             f"{partial.rotor_diameter} m complete an inverted pair, omega_min "
                             f"{pair[0]:.6g} > omega_max {pair[1]:.6g} rpm; give both limits")
    rules = (("cut_in", DEFAULT_CUT_IN, RULE_CUT_IN),
             ("cut_out", DEFAULT_CUT_OUT, RULE_CUT_OUT),
             ("cp_max", DEFAULT_CP_MAX, RULE_CP_MAX),
             ("omega_min", w_min, RULE_OMEGA_MIN),
             ("omega_max", w_max, RULE_OMEGA_MAX))
    filled = [{"field": name, "value": value, "rule": rule} for name, value, rule in rules
              if getattr(partial, name) is None]
    spec = replace(partial, **{f["field"]: f["value"] for f in filled}) if filled else partial
    return spec, filled


# ---------------------------------------------------------------------------
# Ingestion: JSON records
# ---------------------------------------------------------------------------

def spec_from_json(record: dict) -> TurbineSpec:
    """Build a spec from a JSON record keyed by TurbineSpec field names.

    The record may be wrapped as :func:`flat_record` describes.  Unknown keys
    are ignored so richer sidecars stay readable.
    """
    record = flat_record(record)
    known = {f.name for f in fields(TurbineSpec)}
    return TurbineSpec(**{k: v for k, v in record.items() if k in known and v is not None})


def _json_int(digits: str) -> int | float:
    """A JSON integer as an int, or, past the digit limit of int(), as the
    float of its digits: an infinity, which check_value rejects naming the
    field, as it does the same number written 1e5000."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def load_json(path: str | Path):
    """Parse a JSON file, integers of any length included."""
    return json.loads(Path(path).read_text(), parse_int=_json_int)


def load_spec(path: str | Path) -> TurbineSpec:
    """Load a single spec from a JSON record file."""
    return spec_from_json(load_json(path))
