"""Optional numpy for the crash kernels (DESIGN.md §15).

Two crash-side kernels have a numpy twin: line-stream durability and
plan replay (:mod:`repro.crash.linestream`) and the planner's dedup mix
column (:mod:`repro.crash.plans`).  Each twin must produce outputs
identical to its pure-Python reference.  The choice is made once, at
import, by whether numpy imports: numpy is not a core dependency, and
without it the reference kernels run (CI keeps a no-numpy leg).
Nothing outside :mod:`repro.crash` imports this module, so the figure
and application paths never load numpy.

``tests/test_vector_parity.py`` fuzzes each kernel pair directly.  See
DESIGN.md §15 for the equality argument.
"""

from __future__ import annotations

try:
    import numpy as _np
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None
    HAVE_NUMPY = False

#: Whether the numpy kernels are bound: always equal to HAVE_NUMPY.
ENABLED = HAVE_NUMPY


def numpy():
    """The numpy module, or None when unavailable."""
    return _np


def describe() -> dict:
    """Mode summary recorded by the perf harness / profiler."""
    return {
        "numpy": getattr(_np, "__version__", None),
        "enabled": ENABLED,
    }
