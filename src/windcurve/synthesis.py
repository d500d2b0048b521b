"""End-to-end curve synthesis: spec completion, cp scaling, environment.

The stages run as: ideal curve, then shear/veer remapping, then turbulence
smoothing.  Shear/veer is skipped entirely when both are zero, so a hub
height is only required when those effects are actually requested.
"""

from __future__ import annotations

import numpy as np

from .cp_models import DEFAULT_PARAMETERISATION, get_parameterisation, scale_cp
from .curve_engine import DEFAULT_DV, DEFAULT_V_MAX, PowerCurve, ideal_curve
from .environment import EnvironmentConditions, apply_shear_veer, apply_turbulence
from .errors import NonFiniteResult
from .turbine import TurbineSpec, complete_spec


def synthesize(spec: TurbineSpec, env: EnvironmentConditions | None = None, *,
               cp_model: str = DEFAULT_PARAMETERISATION,
               v_max: float = DEFAULT_V_MAX,
               dv: float = DEFAULT_DV) -> tuple[PowerCurve, list[dict]]:
    """Synthesize the site-adapted power curve of a turbine.

    Missing spec fields are filled from the statistical defaults; the report
    of substitutions is returned alongside the curve.  A wrongly typed
    setting raises ValueError naming it; any non-finite power value raises
    :class:`NonFiniteResult`.
    """
    parameterisation = get_parameterisation(cp_model)
    env = env or EnvironmentConditions()

    completed, report = complete_spec(spec)
    model = scale_cp(parameterisation, completed.cp_max)
    curve = ideal_curve(completed, model, env.rho, v_max=v_max, dv=dv)
    if env.shear_alpha != 0.0 or env.veer_rate != 0.0:
        curve = apply_shear_veer(curve, completed, env.shear_alpha, env.veer_rate)
    curve = apply_turbulence(curve, env.ti, cut_out=completed.cut_out)
    if not np.isfinite(curve.power).all():
        raise NonFiniteResult(f"{completed.name}: synthesized power is not finite")
    return curve, report
