"""The benchmark's four workloads.

Each workload is a list of *units*: one call into a public entry point
of the simulator (``fxmark_sweep``, ``run_app``, ``run_crash_test``,
``run_campaign``), run serially in this process with the sweep pool
never used.  A unit returns a :class:`UnitResult`: how much simulated
work it did (the per-unit denominator), how many checked items it
attempted and how many failed, and its simulated outputs, which the
benchmark digests and compares across repetitions.

See README.md beside this file for why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Fig 9 DWAL grid (benchmarks/test_fig09_throughput_latency.py config).
FXMARK_KINDS = ("nova", "nova-dma", "odinfs", "easyio")
FXMARK_WORKERS = (1, 4, 8, 16)
#: Odinfs reserves 12 cores per socket for delegation threads, so the
#: Fig 9 benchmark stops its sweep at 12 workers; this grid does too.
ODINFS_MAX_WORKERS = 12
FXMARK_IO_SIZE = 16 * 1024
FXMARK_DURATION_US = 1200
FXMARK_WARMUP_US = 300

#: Fig 10 apps on NOVA and EasyIO.  The simulated windows are half of
#: test_fig10_applications.py's (warm-up a fifth of the window, as
#: there), so a repetition takes ~3 s and a run gets enough samples of
#: every app.
APP_NAMES = ("snappy", "jpgdecoder", "aes", "grep", "knn", "bfs",
             "fileserver", "webserver")
APP_KINDS = ("nova", "easyio")
APP_CORES = (4, 16)
APP_DURATION_US = {"jpgdecoder": 60_000}
APP_DEFAULT_DURATION_US = 12_500

CRASH_KINDS = ("nova", "easyio")
CRASH_PER_SIGNATURE = 3

#: The fuzz campaign's seed and budget are pinned: its host cost
#: depends on which tuples the seeded walk visits, and across seeds
#: that spread (IQR/median ~0.3) is wider than any bound the benchmark
#: could fix.  See README.md.
FUZZ_SEED = 0
FUZZ_BUDGET = 60

#: Paper values for the reference context (info only, never gated).
#: Fig 9: EasyIO's peak 16 KiB write throughput over NOVA's.
PAPER_FIG9_WRITE_PEAK = 1.13
#: Fig 10: EasyIO's best speedup over NOVA per app, as held in
#: benchmarks/test_fig10_applications.py (PAPER[app][0]); the webserver
#: has no paper speedup (shared-log contention caps EasyIO).
PAPER_FIG10 = {"snappy": 2.1, "jpgdecoder": 1.03, "aes": 1.05,
               "grep": 2.1, "knn": 1.5, "bfs": 2.3, "fileserver": 2.3}


@dataclass
class UnitResult:
    """What one unit did."""

    #: Simulated work: file ops in the measurement windows (fxmark,
    #: apps), crash plans replayed (crash), scenario tuples (fuzz).
    work: int
    #: Checked items: points, app runs, crash plans, fuzz tuples.
    attempted: int
    failed: int
    #: Simulated outputs (JSON-serialisable; digested).
    sim: dict
    #: Human-readable reasons for each failure.
    problems: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Unit:
    name: str
    run: Callable[[], UnitResult]


@dataclass(frozen=True)
class Workload:
    name: str
    #: What ``work`` counts ("op", "plan", "tuple").
    unit_label: str
    #: Python source that imports what the workload imports and builds
    #: its first platform and filesystem (timed in a fresh interpreter).
    setup_code: str
    #: seed -> units of one repetition.
    units: Callable[[int], List[Unit]]
    #: per-unit sim outputs -> the workload's simulated-output metrics.
    sim_metrics: Callable[[Dict[str, dict]], Dict[str, float]]
    #: per-unit sim outputs -> reference-context lines.
    reference: Callable[[Dict[str, dict]], List[str]]


# -- fxmark_write ------------------------------------------------------

def fxmark_points() -> List[Tuple[str, int]]:
    return [(kind, n) for kind in FXMARK_KINDS for n in FXMARK_WORKERS
            if not (kind == "odinfs" and n > ODINFS_MAX_WORKERS)]


def _fxmark_unit(kind: str, workers: int) -> Unit:
    def run() -> UnitResult:
        from repro.analysis.sweep import fxmark_sweep
        (point,) = fxmark_sweep(
            [kind], [workers], op="write", io_size=FXMARK_IO_SIZE,
            duration_us=FXMARK_DURATION_US, warmup_us=FXMARK_WARMUP_US,
            elide=False, processes=1).values()
        problems = [] if point["total_ops"] > 0 else [
            f"write/{kind}/{workers}: no op completed in the window"]
        return UnitResult(work=point["total_ops"], attempted=1,
                          failed=len(problems), sim=point,
                          problems=problems)
    return Unit(f"write/{kind}/{workers}", run)


def _fxmark_units(_seed: int) -> List[Unit]:
    return [_fxmark_unit(kind, n) for kind, n in fxmark_points()]


def _fxmark_reference(sim: Dict[str, dict]) -> List[str]:
    def peak(kind: str) -> float:
        return max(v["throughput_ops"] for k, v in sim.items()
                   if k.split("/")[1] == kind)
    ratio = peak("easyio") / peak("nova")
    return [f"Fig 9 peak 16 KiB write, EasyIO/NOVA: simulated "
            f"{ratio:.2f}x, paper ~{PAPER_FIG9_WRITE_PEAK:.2f}x"]


# -- app_mix -----------------------------------------------------------

def _app_unit(kind: str, app: str, cores: int) -> Unit:
    def run() -> UnitResult:
        from repro.workloads.apps import run_app
        duration = APP_DURATION_US.get(app, APP_DEFAULT_DURATION_US)
        with watch_runtimes() as runtimes:
            r = run_app(kind, app, cores, duration_us=duration,
                        warmup_us=duration // 5)
        problems = []
        stalled = sum(rt.active_uthreads for rt in runtimes)
        if stalled:
            problems.append(f"{kind}/{app}/{cores}: {stalled} uthreads "
                            f"still live after the engine drained")
        if r.total_ops <= 0:
            problems.append(f"{kind}/{app}/{cores}: no iteration "
                            f"completed in the window")
        sim = {"throughput_ops": r.throughput_ops, "total_ops": r.total_ops,
               "mean_us": r.latency.mean_us(), "p99_us": r.latency.p99_us(),
               "cpu_busy_fraction": r.cpu_busy_fraction}
        return UnitResult(work=r.total_ops, attempted=1,
                          failed=1 if problems else 0, sim=sim,
                          problems=problems)
    return Unit(f"{kind}/{app}/{cores}", run)


class watch_runtimes:
    """Record every :class:`Runtime` ``run_app`` builds, so the unit can
    check afterwards that no uthread was left parked (a stall).

    ``run_app`` looks ``Runtime`` up in its module's globals at call
    time; this swaps in a recording factory for the duration of the
    ``with`` block.  The runtimes themselves are the real class.
    """

    def __enter__(self) -> list:
        import repro.workloads.apps as apps
        self._module = apps
        self._orig = apps.Runtime
        self.runtimes: list = []

        def factory(*args, **kwargs):
            rt = self._orig(*args, **kwargs)
            self.runtimes.append(rt)
            return rt
        apps.Runtime = factory
        return self.runtimes

    def __exit__(self, *exc) -> None:
        self._module.Runtime = self._orig


def _app_units(_seed: int) -> List[Unit]:
    return [_app_unit(kind, app, cores) for app in APP_NAMES
            for kind in APP_KINDS for cores in APP_CORES]


def _app_reference(sim: Dict[str, dict]) -> List[str]:
    lines = []
    for app in APP_NAMES:
        best = max(sim[f"easyio/{app}/{c}"]["throughput_ops"]
                   / sim[f"nova/{app}/{c}"]["throughput_ops"]
                   for c in APP_CORES)
        paper = PAPER_FIG10.get(app)
        lines.append(f"Fig 10 {app:<10} EasyIO/NOVA best of "
                     f"{'/'.join(map(str, APP_CORES))} cores: simulated "
                     f"{best:.2f}x, paper "
                     + (f"{paper:.2f}x" if paper else "n/a (contended)"))
    return lines


def _easyio_sim_metrics(sim: Dict[str, dict]) -> Dict[str, float]:
    easy = [v for k, v in sim.items() if "easyio" in k.split("/")]
    return {"easyio_sim_kops": sum(v["throughput_ops"] for v in easy) / 1e3,
            "easyio_sim_p99_us": max(v["p99_us"] for v in easy)}


# -- crash_line --------------------------------------------------------

def _crash_unit(kind: str, workload: str, seed: int) -> Unit:
    def run() -> UnitResult:
        from repro.crash import run_crash_test
        rep = run_crash_test(kind, workload, granularity="line",
                             per_signature=CRASH_PER_SIGNATURE,
                             plan_seed=seed)
        failed = rep.total_crash_points - rep.passed
        problems = [f"{kind}/{workload} plan {f.point}: {f.check}: "
                    f"{f.detail}" for f in rep.failures]
        if rep.total_crash_points == 0:
            problems.append(f"{kind}/{workload}: planner produced no plans")
            failed = 1
        sim = {"total_crash_points": rep.total_crash_points,
               "passed": rep.passed, "raw_states": str(rep.raw_states),
               "plan_classes": dict(sorted(rep.plan_classes.items())),
               "failures": [list(map(str, f)) for f in rep.failures]}
        return UnitResult(work=rep.total_crash_points,
                          attempted=max(1, rep.total_crash_points),
                          failed=failed, sim=sim, problems=problems)
    return Unit(f"line/{kind}/{workload}", run)


def _crash_units(seed: int) -> List[Unit]:
    from repro.crash import CRASH_WORKLOADS
    return [_crash_unit(kind, wl, seed) for wl in CRASH_WORKLOADS
            for kind in CRASH_KINDS]


# -- fuzz_campaign -----------------------------------------------------

def _fuzz_unit() -> Unit:
    def run() -> UnitResult:
        from repro.fuzz.campaign import FuzzConfig, run_campaign
        rep = run_campaign(FuzzConfig(seed=FUZZ_SEED, budget=FUZZ_BUDGET,
                                      processes=1))
        problems = [f"tuple {f.key} (execution {f.found_at}): "
                    f"{[x[:2] for x in f.findings]}" for f in rep.failures]
        return UnitResult(work=rep.executed, attempted=rep.executed,
                          failed=len(rep.failures), sim=rep.as_dict(),
                          problems=problems)
    return Unit(f"campaign/seed{FUZZ_SEED}/budget{FUZZ_BUDGET}", run)


def _fuzz_sim_metrics(sim: Dict[str, dict]) -> Dict[str, float]:
    (d,) = sim.values()
    return {"fuzz_cov_keys": d["coverage_keys"],
            "fuzz.signatures": d["distinct_signatures"]}


def _no_sim_metrics(_sim: Dict[str, dict]) -> Dict[str, float]:
    return {}


def _no_reference(_sim: Dict[str, dict]) -> List[str]:
    return ["no paper speedup applies to this workload"]


_FS_SETUP = """
from repro.workloads.factory import make_fs, make_platform
make_fs("nova", make_platform())
"""

WORKLOADS: Dict[str, Workload] = {
    "fxmark_write": Workload(
        "fxmark_write", "op",
        "import repro.analysis.sweep" + _FS_SETUP,
        _fxmark_units, _easyio_sim_metrics, _fxmark_reference),
    "app_mix": Workload(
        "app_mix", "op",
        "import repro.workloads.apps" + _FS_SETUP,
        _app_units, _easyio_sim_metrics, _app_reference),
    "crash_line": Workload(
        "crash_line", "plan",
        """
import repro.crash
from repro.fs.pmimage import PMImage
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import make_fs
image = PMImage(record=True)
image.enable_line_recording()
make_fs("nova", Platform(PlatformConfig.single_node()), image=image)
""",
        _crash_units, _no_sim_metrics, _no_reference),
    "fuzz_campaign": Workload(
        "fuzz_campaign", "tuple",
        """
import repro.fuzz.campaign
from repro.fuzz.corpus import seed_corpus
from repro.fs.pmimage import PMImage
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import make_fs
image = PMImage(record=True)
image.enable_line_recording()
make_fs(seed_corpus()[0].kind, Platform(PlatformConfig.single_node()),
        image=image)
""",
        lambda _seed: [_fuzz_unit()], _fuzz_sim_metrics, _no_reference),
}

#: Simulated-output metric names, reported by the traced run (0 where a
#: workload has no such output).
SIM_METRICS = ("easyio_sim_kops", "easyio_sim_p99_us", "fuzz_cov_keys",
               "fuzz.signatures")
