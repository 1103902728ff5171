"""Table 2: crash-consistency test results with CrashMonkey.

Paper: four workloads covering the error-prone syscalls (create, write,
link, rename, delete), 1000 crash points each -- EasyIO passes all of
them, because (i) SNs in block mappings + CoW let recovery discard
unfinished-DMA mappings, (ii) two-level locking preserves concurrency
consistency, and (iii) the runtime never resumes a uthread whose DMA
is unfinished.
"""

from benchmarks.conftest import run_once, show
from repro.analysis.report import banner, fmt_table
from repro.analysis.sweep import crash_point, run_points
from repro.crash import CRASH_WORKLOADS

CRASH_POINTS = 1000
WORKLOADS = sorted(CRASH_WORKLOADS)


def reproduce():
    # trace_oracles: the recording run of every workload is traced and
    # replayed through the invariant oracles (ack-implies-durable, SN
    # monotonicity, ...) before the crash points are examined.
    return dict(zip(WORKLOADS, run_points(crash_point, [
        {"kind": "easyio", "workload": workload,
         "crash_points": CRASH_POINTS, "trace_oracles": True}
        for workload in WORKLOADS])))


def test_tab02_crash_consistency(benchmark):
    reports = run_once(benchmark, reproduce)
    show(banner("Table 2: crash consistency with CrashMonkey (EasyIO)"))
    rows = []
    for workload, report in reports.items():
        desc = CRASH_WORKLOADS[workload][0]
        rows.append([workload, desc, report["total_crash_points"],
                     report["passed"]])
    show(fmt_table(["workload", "description", "crash points", "passed"],
                   rows))
    for workload, report in reports.items():
        assert report["passed"] == report["total_crash_points"], \
            f"{workload}: {len(report['failures'])} failures, " \
            f"e.g. {report['failures'][:3]}"
        # The paper runs 1000 points per workload; our mutation logs
        # must be dense enough to give (close to) that many.
        assert report["total_crash_points"] >= 900
