"""Measurement and reporting utilities.

:mod:`repro.analysis.metrics` collects latency distributions,
throughput windows, and time series; :mod:`repro.analysis.report`
renders the text tables and series the benchmark harness prints for
each reproduced figure/table.
"""

from repro.analysis.metrics import (FaultStats, LatencySeries, OverloadStats,
                                    Timeline, ThroughputMeter)
from repro.analysis.report import banner, fmt_counters, fmt_series, fmt_table
from repro.analysis.sweep import fxmark_point, fxmark_sweep, run_points

__all__ = [
    "FaultStats",
    "LatencySeries",
    "OverloadStats",
    "ThroughputMeter",
    "Timeline",
    "banner",
    "fmt_counters",
    "fmt_series",
    "fmt_table",
    "fxmark_point",
    "fxmark_sweep",
    "run_points",
]
