"""windcurve: synthesize wind-turbine power curves from catalogue data.

Give it the rotor diameter and rated power of any turbine (everything else
can be defaulted from fleet statistics) plus the site conditions, and it
produces the full power curve: rotor-speed schedule, parametric power
coefficient scaled to the turbine's peak efficiency, rated-power cap,
turbulence-intensity smoothing and shear/veer corrections via the rotor
equivalent wind speed.  A validation harness scores synthesized curves
against measured or manufacturer data.
"""

from .cp_models import (BETZ_LIMIT, DEFAULT_PARAMETERISATION, LAMBDA_DOMAIN,
                        REGISTRY, CpParameterisation, ScaledCpModel,
                        cp_general_array, get_parameterisation, lambda_opt,
                        registry_to_json, scale_cp)
from .curve_engine import (PowerCurve, ideal_curve, make_wind_grid, raw_power,
                           rotor_speed, tsr)
from .environment import (EnvironmentConditions, apply_shear_veer,
                          apply_turbulence, rews_factor, turbulent_power)
from .errors import (MissingMandatoryField, NonFiniteResult, NoPositiveCp,
                     UnknownParameterisation, WindcurveError)
from .synthesis import synthesize
from .turbine import (TurbineSpec, complete_spec, default_rotation_speeds,
                      spec_from_json)
from .validation import (CurveValidation, MeasuredCurve, betz_screen,
                         invert_cp, match_over_ti, validate_directory)

__version__ = "0.1.0"

__all__ = [
    "BETZ_LIMIT", "DEFAULT_PARAMETERISATION", "LAMBDA_DOMAIN", "REGISTRY",
    "CpParameterisation", "ScaledCpModel", "cp_general_array",
    "get_parameterisation", "lambda_opt", "registry_to_json", "scale_cp",
    "PowerCurve", "ideal_curve", "make_wind_grid",
    "raw_power", "rotor_speed", "tsr",
    "EnvironmentConditions", "apply_shear_veer", "apply_turbulence",
    "rews_factor", "turbulent_power",
    "MissingMandatoryField", "NonFiniteResult", "NoPositiveCp",
    "UnknownParameterisation", "WindcurveError",
    "synthesize",
    "TurbineSpec", "complete_spec", "default_rotation_speeds", "spec_from_json",
    "CurveValidation", "MeasuredCurve", "betz_screen", "invert_cp",
    "match_over_ti", "validate_directory",
    "__version__",
]
