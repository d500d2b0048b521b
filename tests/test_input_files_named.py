"""Property: every input file is named at most once.

Random bytes, random JSON values and curve-like CSV text are written as a
``generate --spec`` file, a ``generate --config`` file, or a fleet curve CSV
or spec JSON of ``validate``.  Whatever the content, the command must end
with a documented exit code, print exactly one ``error:`` line and no
traceback when it fails, and name the file in its output at most once.
"""

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from windcurve.cli import CONFIG_KEYS, main

# A small wind grid keeps every run that succeeds cheap;
# flags override the file, so these keys of a --config file go unread.
SMALL_RUN = ["--v-max", "40", "--dv", "0.5"]

GOOD_SPEC = json.dumps({"name": "unit", "rotor_diameter": 80, "rated_power": 2000})
GOOD_CURVE = "wind_speed_ms,power_kw\n" + "".join(
    f"{v},{min(2000.0, 0.5 * v ** 3):g}\n" for v in range(26))

_numbers = st.floats(0.1, 300.0) | st.floats() | st.integers()
_scalars = st.none() | st.booleans() | _numbers | st.text(max_size=6)
_json_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from((*CONFIG_KEYS, "config", "spec"))
                                     | st.text(max_size=4), inner, max_size=5)),
    max_leaves=10)
# records that hold both mandatory fields, so runs reach the rules of
# TurbineSpec, the completion of the spec and synthesis
_records = st.fixed_dictionaries(
    {"rotor_diameter": _numbers, "rated_power": _numbers},
    optional={key: _scalars for key in CONFIG_KEYS
              if key not in ("name", "rotor_diameter", "rated_power")})
_cells = st.floats() | st.integers(-10, 10 ** 6) | st.text("0123456789.,-e \xff", max_size=5)
# curve rows that are ragged text, or increasing wind speeds with any power
_rows = (st.lists(st.lists(_cells, min_size=1, max_size=3), max_size=8)
         | st.lists(_numbers, min_size=3, max_size=8).map(
             lambda power: [[v, p] for v, p in enumerate(power)]))
_curve_text = _rows.map(lambda rows: "wind_speed_ms,power_kw\n" + "".join(
    ",".join(map(str, row)) + "\n" for row in rows))

CONTENT = (st.binary(max_size=40)
           | (_json_values | _records).map(lambda v: json.dumps(v).encode())
           | _curve_text.map(lambda t: t.encode("utf-8", "surrogatepass")))


def _run(role: str, content: bytes, root: Path):
    """Write content as the role's file under root and run its command; the
    written file and the result."""
    if role in ("--spec", "--config"):
        path = root / "in.json"
        path.write_bytes(content)
        args = ["generate", role, str(path), *SMALL_RUN, "--out", str(root / "c.csv")]
    else:
        path = root / ("unit.csv" if role == "curve" else "unit.json")
        (root / "unit.csv").write_text(GOOD_CURVE)
        (root / "unit.json").write_text(GOOD_SPEC)
        path.write_bytes(content)
        args = ["validate", "--input-dir", str(root), "--ti-grid", "0,0.05"]
    return path, CliRunner().invoke(main, args)


@pytest.mark.parametrize("role", ["--spec", "--config", "curve", "spec"])
@settings(max_examples=25, deadline=None)
@given(content=CONTENT)
def test_every_input_file_is_named_at_most_once(role, content):
    with tempfile.TemporaryDirectory() as root:
        path, result = _run(role, content, Path(root))
    # 3 is the documented exit of a numeric failure, which a curve of
    # finite but huge powers reaches (its RMSE overflows)
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert "Traceback" not in result.output
    if result.exit_code:
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, result.stderr
    assert result.output.count(str(path)) <= 1, result.output
