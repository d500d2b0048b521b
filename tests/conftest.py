import numpy as np
import pytest

from windcurve import (TurbineSpec, complete_spec, get_parameterisation,
                       ideal_curve, scale_cp)

# Reference turbine used throughout: 2 MW, 80 m rotor, the configuration the
# sensitivity sweeps are anchored to.
REFERENCE_KWARGS = dict(rotor_diameter=80.0, rated_power=2000.0, cut_in=3.5,
                        cut_out=25.0, omega_min=10.0, omega_max=30.0,
                        cp_max=0.4615)


@pytest.fixture
def reference_spec() -> TurbineSpec:
    return TurbineSpec(name="reference", hub_height=60.0, **REFERENCE_KWARGS)


@pytest.fixture
def defaults_spec() -> TurbineSpec:
    spec, _ = complete_spec(TurbineSpec(rotor_diameter=80.0, rated_power=2000.0))
    return spec


@pytest.fixture
def reference_model():
    return scale_cp(get_parameterisation("dai2016"), 0.4615)


@pytest.fixture
def reference_curve(reference_spec, reference_model):
    return ideal_curve(reference_spec, reference_model)


def rated_knee(curve, rated: float) -> int:
    """Grid index where the ideal curve first reaches rated power (kW)."""
    hits = np.nonzero(curve.power >= rated - 1e-9)[0]
    assert hits.size, "curve never reaches rated power"
    return int(hits[0])
