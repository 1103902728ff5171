"""Mechanism-aware crash-state pruning vs the brute-force page sweep.

The pruning claim: on generic_056 the line planner's mechanism
reasoning reaches the same verdict (all plans pass) while replaying at
least 5x fewer states than the 1000-point page sweep -- and those
plans stand in for an astronomically larger raw line-subset space.
"""

from benchmarks.conftest import run_once, show
from repro.analysis.report import banner, fmt_table
from repro.analysis.sweep import crash_point, run_points

BRUTE_POINTS = 1000
PRUNE_FACTOR = 5


def reproduce():
    return run_points(crash_point, [
        {"kind": "easyio", "workload": "generic_056",
         "crash_points": BRUTE_POINTS},
        {"kind": "easyio", "workload": "generic_056", "granularity": "line",
         "per_signature": 3}])


def test_crash_pruning_vs_brute(benchmark):
    brute, pruned = run_once(benchmark, reproduce)
    raw_states = int(pruned["raw_states"])
    show(banner("Crash-state pruning: page brute force vs line plans "
                "(easyio/generic_056)"))
    show(fmt_table(
        ["sweep", "states replayed", "passed", "raw line states"],
        [["page (brute)", brute["total_crash_points"], brute["passed"], "-"],
         ["line (pruned)", pruned["total_crash_points"], pruned["passed"],
          f"{raw_states:.2e}"]]))
    # Same verdict...
    for summary in (brute, pruned):
        assert summary["passed"] == summary["total_crash_points"], \
            summary["failures"][:3]
    # ...with >= 5x fewer replayed states...
    assert pruned["total_crash_points"] * PRUNE_FACTOR \
        <= brute["total_crash_points"], \
        (pruned["total_crash_points"], brute["total_crash_points"])
    # ...standing in for an astronomically larger raw state space.
    assert raw_states > 10 ** 30
