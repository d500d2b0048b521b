"""End-to-end curve synthesis: spec completion, cp scaling, environment.

The stages run as: ideal curve, then shear/veer remapping, then turbulence
smoothing (swap the last two with ``env_order`` if desired).  Shear/veer is
skipped entirely when both are zero, so a hub height is only required when
those effects are actually requested.
"""

from __future__ import annotations

import numbers

import numpy as np

from .cp_models import DEFAULT_PARAMETERISATION, get_parameterisation, scale_cp
from .curve_engine import DEFAULT_DV, DEFAULT_V_MAX, PowerCurve, ideal_curve
from .environment import (DEFAULT_N_BANDS, EnvironmentConditions,
                          apply_shear_veer, apply_turbulence)
from .errors import NonFiniteResult
from .turbine import TurbineSpec, check_value, complete_spec

ENV_ORDERS = ("shear_veer,ti", "ti,shear_veer")


def synthesize(spec: TurbineSpec, env: EnvironmentConditions | None = None, *,
               cp_model: str = DEFAULT_PARAMETERISATION,
               v_max: float = DEFAULT_V_MAX, dv: float = DEFAULT_DV,
               n_bands: int = DEFAULT_N_BANDS,
               env_order: str = ENV_ORDERS[0]) -> tuple[PowerCurve, list[dict]]:
    """Synthesize the site-adapted power curve of a turbine.

    Missing spec fields are filled from the statistical defaults; the report
    of substitutions is returned alongside the curve.  A wrongly typed
    setting raises ValueError naming it; any non-finite power value raises
    :class:`NonFiniteResult`.
    """
    for name, value, kind in (("n_bands", n_bands, numbers.Integral),
                              ("v_max", v_max, numbers.Real), ("dv", dv, numbers.Real),
                              ("env_order", env_order, str)):
        check_value(name, value, kind)
    parameterisation = get_parameterisation(cp_model)
    env = env or EnvironmentConditions()
    if env_order not in ENV_ORDERS:
        raise ValueError(f"env_order must be one of {ENV_ORDERS}, got {env_order!r}")

    completed, report = complete_spec(spec)
    model = scale_cp(parameterisation, completed.cp_max)
    curve = ideal_curve(completed, model, env.rho, v_max=v_max, dv=dv)

    for stage in env_order.split(","):
        if stage == "shear_veer":
            if env.shear_alpha != 0.0 or env.veer_rate != 0.0:
                curve = apply_shear_veer(curve, completed, env.shear_alpha,
                                         env.veer_rate, n_bands)
        else:
            curve = apply_turbulence(curve, env.ti, cut_out=completed.cut_out)
    if not np.isfinite(curve.power).all():
        raise NonFiniteResult(f"{completed.name}: synthesized power is not finite")
    return curve, report
