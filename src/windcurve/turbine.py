"""Turbine catalogue data and statistical defaults for missing fields.

Only two characteristics are mandatory for curve synthesis: rotor diameter
and rated power.  Everything else can be filled from fleet statistics (most
frequent values across a large commercial turbine database) or, for the
rotation-speed limits, from power-law fits against rotor diameter.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .cp_models import BETZ_LIMIT
from .errors import MissingMandatoryField, ModelExtrapolationWarning

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
    if a real number.  A bool never passes, though Python counts it an int."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if kind is numbers.Real and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def flat_record(data) -> dict:
    """The flat record held by a parsed JSON value: the object itself, or the
    ``config`` object of a sidecar written by the CLI."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    config = data.get("config")
    return config if isinstance(config, dict) else data


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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class FilledDefault:
    field: str
    value: float
    rule: str


@dataclass(frozen=True)
class DefaultsReport:
    """Which fields were substituted and by which rule."""

    filled: tuple[FilledDefault, ...] = field(default_factory=tuple)

    def to_list(self) -> list[dict]:
        return [{"field": f.field, "value": f.value, "rule": f.rule}
                for f in self.filled]

    def __bool__(self) -> bool:
        return bool(self.filled)


def default_cp_max() -> float:
    """Modal maximum power coefficient across a large turbine fleet."""
    return DEFAULT_CP_MAX


def default_cut_speeds() -> tuple[float, float]:
    """Modal (cut_in, cut_out) wind speeds in m/s."""
    return (DEFAULT_CUT_IN, DEFAULT_CUT_OUT)


def default_rotation_speeds(rotor_diameter: float) -> tuple[float, float]:
    """Rotation-speed limits in rpm from power-law fits vs rotor diameter.

    The two fitted curves cross for very small rotors; in that case both
    values are returned unmodified and a warning is emitted, because quietly
    reordering them would hide that the fit is being extrapolated.
    """
    if not rotor_diameter > 0:
        raise ValueError(f"rotor_diameter must be > 0, got {rotor_diameter}")
    a, b = OMEGA_MIN_FIT
    c, d = OMEGA_MAX_FIT
    omega_min = a * rotor_diameter ** b
    omega_max = c * rotor_diameter ** d
    if omega_min > omega_max:
        warnings.warn(
            f"rotation-speed fits cross at D={rotor_diameter} m "
            f"(omega_min={omega_min:.2f} > omega_max={omega_max:.2f} rpm); "
            "values returned unmodified", ModelExtrapolationWarning,
            stacklevel=2)
    return (omega_min, omega_max)


def complete_spec(partial: TurbineSpec) -> tuple[TurbineSpec, DefaultsReport]:
    """Fill missing optional fields of ``partial`` with the defaults above.

    Rotor diameter and rated power are mandatory.  The report lists every
    substituted field with its value and the rule that produced it; an
    already complete spec comes back unchanged with an empty report.
    """
    if partial.rotor_diameter is None or partial.rated_power is None:
        missing = [n for n in ("rotor_diameter", "rated_power")
                   if getattr(partial, n) is None]
        raise MissingMandatoryField(
            f"{partial.name}: missing mandatory field(s): {', '.join(missing)}")

    w_min = w_max = None
    if partial.omega_min is None or partial.omega_max is None:
        w_min, w_max = default_rotation_speeds(partial.rotor_diameter)
    rules = (("cut_in", DEFAULT_CUT_IN, RULE_CUT_IN),
             ("cut_out", DEFAULT_CUT_OUT, RULE_CUT_OUT),
             ("cp_max", DEFAULT_CP_MAX, RULE_CP_MAX),
             ("omega_min", w_min, RULE_OMEGA_MIN),
             ("omega_max", w_max, RULE_OMEGA_MAX))
    filled = tuple(FilledDefault(name, value, rule) for name, value, rule in rules
                   if getattr(partial, name) is None)
    spec = replace(partial, **{f.field: f.value for f in filled}) if filled else partial
    return spec, DefaultsReport(filled)


# ---------------------------------------------------------------------------
# Ingestion: JSON records and CSV rows
# ---------------------------------------------------------------------------

_CSV_COLUMNS = {
    "name": "name",
    "rotor_diameter_m": "rotor_diameter",
    "rated_power_kw": "rated_power",
    "cut_in_ms": "cut_in",
    "cut_out_ms": "cut_out",
    "omega_min_rpm": "omega_min",
    "omega_max_rpm": "omega_max",
    "cp_max": "cp_max",
    "hub_height_m": "hub_height",
}
TURBINE_CSV_HEADER = ",".join(_CSV_COLUMNS)


def spec_from_json(record: dict) -> TurbineSpec:
    """Build a spec from a JSON record keyed by TurbineSpec field names.

    Sidecar files written by the CLI wrap the record in a ``config`` object;
    both layouts are accepted.  Unknown keys are ignored so richer sidecars
    stay readable.
    """
    record = flat_record(record)
    known = {f.name for f in fields(TurbineSpec)}
    kwargs = {k: v for k, v in record.items() if k in known and v is not None}
    if "name" in kwargs:
        kwargs["name"] = str(kwargs["name"])
    return TurbineSpec(**kwargs)


def read_turbine_csv(path: str | Path) -> list[TurbineSpec]:
    """Read turbine specs from a CSV file; empty cells mean absent."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        got = ",".join(reader.fieldnames or [])
        if got != TURBINE_CSV_HEADER:
            raise ValueError(
                f"{path}: unexpected header {got!r}; expected {TURBINE_CSV_HEADER!r}")
        specs = []
        for row in reader:
            kwargs: dict = {}
            for col, name in _CSV_COLUMNS.items():
                cell = (row.get(col) or "").strip()
                if not cell:
                    continue
                kwargs[name] = cell if name == "name" else float(cell)
            specs.append(TurbineSpec(**kwargs))
    return specs


def load_spec(path: str | Path) -> TurbineSpec:
    """Load a single spec from a JSON record file."""
    with Path(path).open() as fh:
        return spec_from_json(json.load(fh))
