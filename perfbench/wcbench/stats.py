"""Summary statistics and run metadata shared by the runner and its tests."""

from __future__ import annotations

import os
import platform
import sys
from fractions import Fraction

PERCENTILE_RULE = ("nearest rank: the sample at 1-based rank ceil(q*n) of the "
                   "sorted samples; refused unless at least 10 samples lie beyond it")

#: A percentile is reported only with this many samples above it, so p90
#: needs at least 100 samples.
MIN_BEYOND = 10

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def percentile(samples, q: float):
    """Nearest-rank percentile; raises ValueError when too few samples lie beyond it."""
    n = len(samples)
    frac = Fraction(q).limit_denominator(1000)
    rank = max(1, -(-frac.numerator * n // frac.denominator))
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{q * 100:g} needs at least {MIN_BEYOND} samples beyond "
                         f"it; {n} samples leave {n - rank}")
    return sorted(samples)[rank - 1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def machine() -> dict:
    """What a later run needs to tell a machine change from a code change."""
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
