"""Exception types shared across the package."""


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
