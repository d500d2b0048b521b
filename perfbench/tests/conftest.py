import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from wcbench import gate as gate_module  # noqa: E402


@pytest.fixture(scope="session")
def oracles():
    from windcurve import REGISTRY
    module = gate_module.load_oracles(ROOT / "tests")
    return gate_module.load_oracles(ROOT / "tests", gate_module.lambda_table(module, REGISTRY))


@pytest.fixture(scope="session")
def gate(oracles):
    from windcurve import REGISTRY
    return gate_module.Gate(oracles, REGISTRY)


@pytest.fixture(scope="session")
def runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
