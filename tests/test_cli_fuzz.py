"""CLI fuzz over degenerate numeric flag values.

Every numeric ``generate`` flag is set in turn to nan, inf, -inf, a negative,
zero and the extreme magnitudes 1e308 and 1e-308 on top of a site
configuration that runs every stage; ``--dv`` also gets text click cannot
parse as a float.  Whatever the value, the command must end with
a documented exit code (0, 2 or 3), print exactly one ``error:`` line and no
usage block when it fails, never escape with a traceback, and only ever
write finite, non-negative power.
"""

import numpy as np
import pytest
from click.testing import CliRunner

from windcurve.cli import main
from windcurve.curve_engine import read_curve_csv

SITE = ["--diameter", "80", "--rated-power", "2000", "--hub-height", "90",
        "--ti", "0.05", "--shear-alpha", "0.1", "--veer-rate", "0.2"]

FLOAT_FLAGS = ("--diameter", "--rated-power", "--cut-in", "--cut-out",
               "--omega-min", "--omega-max", "--cp-max", "--hub-height",
               "--ti", "--rho", "--shear-alpha", "--veer-rate", "--v-max", "--dv")
DEGENERATE = ("nan", "inf", "-inf", "-1", "0", "1e308", "1e-308")

CASES = ([(flag, value) for flag in FLOAT_FLAGS for value in DEGENERATE]
         + [("--dv", value) for value in ("x", "1,5")])


@pytest.mark.parametrize("flag,value", CASES)
def test_generate_degenerate_flag(flag, value, tmp_path):
    out = tmp_path / "curve.csv"
    result = CliRunner().invoke(main, ["generate", *SITE, f"{flag}={value}",
                                       "--out", str(out)])
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert "Traceback" not in result.output
    assert "Usage:" not in result.output
    if result.exit_code == 0:
        _, power = read_curve_csv(out)
        assert np.all(np.isfinite(power))
        assert np.all(power >= 0.0)
    else:
        errors = [line for line in result.stderr.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1, result.stderr
