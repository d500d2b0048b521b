"""Exception types shared across the package, and the one input-number test."""

import math
import numbers


class WindcurveError(Exception):
    """Base class for all windcurve errors."""


class NonFiniteResult(WindcurveError):
    """A synthesized power curve, or a measured curve's error against one,
    is not finite (the inputs drove the arithmetic past the floating-point
    range)."""


class NoPositiveCp(WindcurveError):
    """A parameterisation never reaches a positive power coefficient on the
    searched tip-speed-ratio interval, so it cannot drive a turbine model."""


class UnknownParameterisation(WindcurveError):
    """Requested power-coefficient parameterisation is not in the registry."""


class MissingMandatoryField(WindcurveError):
    """Rotor diameter or rated power is absent; neither can be defaulted."""


def check_value(name: str, value) -> None:
    """Raise ValueError naming the field unless value is a finite real number.
    A bool never passes, though Python counts it an int, nor does an int too
    large for a float.  The one test of an input number in windcurve."""
    # The common case, a Python float, without the ABC check.
    if type(value) is float:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be of type Real, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large "
                         "for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")
