"""Capture the golden pre-refactor summary metrics for the pipeline
equivalence tests (tests/test_golden_equivalence.py).

Run from the repo root::

    PYTHONPATH=src python tests/data/capture_golden.py

The output file ``tests/data/golden_pre_refactor.json`` was produced at
the last pre-refactor commit; the refactored I/O pipeline must
reproduce every number *exactly* (the simulator is deterministic under
fixed seeds, so any drift means the refactor changed behaviour).

The ``fig10`` (application summaries) and ``table2`` (line-sweep crash
verdicts) sections were added later, captured before the alternative
event queue, DMA service path and numpy kernels were deleted, so the
remaining single paths are checked against the code that had them.
"""

import json
import os

from repro.analysis.sweep import run_sweep
from repro.crash import CRASH_WORKLOADS, run_crash_test
from repro.workloads import FxmarkConfig
from repro.workloads.apps import run_app
from repro.workloads.fxmark import measure_single_op
from repro.workloads.hwbench import measure_copy_bandwidth

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "golden_pre_refactor.json")

FIG02_CORES = (1, 4, 16)
FIG08_KINDS = ("nova", "nova-dma", "odinfs", "easyio", "naive")
FIG08_SIZES = (4096, 65536)
FIG09_KINDS = ("nova", "nova-dma", "odinfs", "easyio")
FIG09_WORKERS = (1, 4)
#: Fig 10 apps at half the benchmark's windows (warm-up a fifth).
FIG10_APPS = ("snappy", "jpgdecoder", "aes", "grep", "knn", "bfs",
              "fileserver", "webserver")
FIG10_KINDS = ("nova", "easyio")
FIG10_CORES = (4, 16)
FIG10_DURATION_US = {"jpgdecoder": 60_000}
FIG10_DEFAULT_DURATION_US = 12_500
TABLE2_KINDS = ("nova", "easyio")


def fig02():
    out = {}
    for write in (True, False):
        d = "write" if write else "read"
        for cores in FIG02_CORES:
            key = f"{d}/memcpy-4K/{cores}"
            out[key] = measure_copy_bandwidth(
                "memcpy", write, cores, 4096).bandwidth_gbps
            key = f"{d}/DMA-64K-B/{cores}"
            out[key] = measure_copy_bandwidth(
                "dma", write, cores, 65536, batch=4).bandwidth_gbps
    return out


def fig08(elide=False):
    out = {}
    for op in ("write", "read"):
        for kind in FIG08_KINDS:
            for size in FIG08_SIZES:
                lat, cpu, bd = measure_single_op(kind, op, size, elide=elide)
                out[f"{op}/{kind}/{size}"] = {
                    "lat": lat, "cpu": cpu,
                    "breakdown": {k: bd[k] for k in sorted(bd)},
                }
    return out


def fig09(elide=False, processes=1):
    """The 16-point sweep.  ``elide``/``processes`` must not change a
    single number (the equivalence tests run all combinations)."""
    keys, configs = [], []
    for op in ("write", "read"):
        for kind in FIG09_KINDS:
            for workers in FIG09_WORKERS:
                keys.append(f"{op}/{kind}/{workers}")
                configs.append(FxmarkConfig(
                    kind=kind, op=op, io_size=16384, workers=workers,
                    duration_us=1200, warmup_us=300, elide=elide))
    return dict(zip(keys, run_sweep(configs, processes=processes)))


def fig10():
    """Application throughput / latency summaries (Figure 10)."""
    out = {}
    for app in FIG10_APPS:
        duration = FIG10_DURATION_US.get(app, FIG10_DEFAULT_DURATION_US)
        for kind in FIG10_KINDS:
            for cores in FIG10_CORES:
                r = run_app(kind, app, cores, duration_us=duration,
                            warmup_us=duration // 5)
                out[f"{kind}/{app}/{cores}"] = {
                    "throughput_ops": r.throughput_ops,
                    "total_ops": r.total_ops,
                    "mean_us": r.latency.mean_us(),
                    "p99_us": r.latency.p99_us(),
                    "cpu_busy_fraction": r.cpu_busy_fraction,
                }
    return out


def table2():
    """Line-granularity crash-sweep verdicts (Table 2 workloads)."""
    out = {}
    for workload in sorted(CRASH_WORKLOADS):
        for kind in TABLE2_KINDS:
            rep = run_crash_test(kind, workload, granularity="line",
                                 per_signature=3, plan_seed=0)
            out[f"line/{kind}/{workload}"] = {
                "total_crash_points": rep.total_crash_points,
                "passed": rep.passed,
                "raw_states": str(rep.raw_states),
                "plan_classes": dict(sorted(rep.plan_classes.items())),
                "failures": [list(map(str, f)) for f in rep.failures],
            }
    return out


def capture():
    return {"fig02": fig02(), "fig08": fig08(), "fig09": fig09(),
            "fig10": fig10(), "table2": table2()}


if __name__ == "__main__":
    golden = capture()
    with open(OUT, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {OUT}")
