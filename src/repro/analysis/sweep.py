"""Parallel sweep runner: many independent simulations, many cores.

The paper's evaluation is mostly grids of independent points: Figure 9
sweeps cores x filesystem through FxMark, Figure 10 does the same for
the applications, Table 2 sweeps workload x crash point, and a fuzz
campaign evaluates one generation of scenario tuples at a time.  Every
point runs in its own engine and shares nothing with its neighbours,
so one runner, :func:`run_points`, fans any grid out over a
``multiprocessing`` pool.

Each kind of point has one module-level worker (picklable by
reference) that maps a spec to one plain-dict summary, cheap to ship
back over the pipe -- LatencySeries and reports stay in the worker:

* :func:`fxmark_point` -- an ``FxmarkConfig``, the golden ``fig09``
  entry;
* :func:`app_point` -- ``run_app`` keyword arguments, the golden
  ``fig10`` entry;
* :func:`crash_point` -- ``run_crash_test`` keyword arguments, the
  golden ``table2`` entry;
* :func:`fuzz_point` -- a scenario tuple plus mutant, the
  ``ScenarioResult`` dict.

Determinism: each point's result depends only on its spec (the
simulator is seeded and single-threaded inside one engine), so a
grid's output is identical whether it runs serially, with two workers,
or with twenty -- ``run_points`` preserves input order and
tests/test_sweep.py pins this down for every kind of point.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.workloads.fxmark import FxmarkConfig

# repro.workloads is imported inside the functions below:
# repro.core.channel_manager imports this package's metrics module
# while repro.core is still initialising, so a module-level workloads
# import here would close an import cycle.


def run_points(fn: Callable[[Any], Any], specs: Iterable[Any],
               processes: Optional[int] = None) -> List[Any]:
    """Run ``fn`` on every spec and return the results in input order.

    ``processes=None`` uses one worker per host CPU; ``processes<=1``
    (or at most one spec) runs serially in this process -- same
    results either way, the pool only changes wall-clock time.  ``fn``
    must be picklable by reference (a module-level function, or a
    ``functools.partial`` of one) for the pool to ship it.
    """
    specs = list(specs)
    if processes is None:
        processes = os.cpu_count() or 1
    if processes <= 1 or len(specs) <= 1:
        return [fn(spec) for spec in specs]
    import multiprocessing
    # fork (the Linux default) skips re-importing the simulator in
    # every worker; chunksize=1 keeps long points from queueing behind
    # one worker while others sit idle.
    with multiprocessing.Pool(min(processes, len(specs))) as pool:
        return pool.map(fn, specs, chunksize=1)


def fxmark_point(cfg: "FxmarkConfig") -> dict:
    """Run one FxMark configuration and return its scalar summary:
    exactly the metric set the golden ``fig09`` section pins."""
    from repro.workloads.fxmark import run_fxmark
    result = run_fxmark(cfg)
    return {
        "throughput_ops": result.throughput_ops,
        "bandwidth_gbps": result.bandwidth_gbps,
        "total_ops": result.total_ops,
        "mean_us": result.mean_us,
        "p99_us": result.p99_us,
        "cpu_busy_fraction": result.cpu_busy_fraction,
    }


def fxmark_sweep(kinds: Iterable[str], workers: Iterable[int],
                 op: str = "write", io_size: int = 16384,
                 duration_us: int = 1200, warmup_us: int = 300,
                 elide: bool = False,
                 processes: Optional[int] = None) -> Dict[str, dict]:
    """The Figure 9 grid: ``{op}/{kind}/{workers}`` -> point summary.

    ``elide=True`` runs every point in payload-elision mode: identical
    summaries, less host work.  It is off by default, so the points
    move full payloads unless asked.
    """
    from repro.workloads.fxmark import FxmarkConfig
    kinds = list(kinds)
    workers = list(workers)
    configs = [FxmarkConfig(kind=kind, op=op, io_size=io_size,
                            workers=n, duration_us=duration_us,
                            warmup_us=warmup_us, elide=elide)
               for kind in kinds for n in workers]
    keys = [f"{op}/{kind}/{n}" for kind in kinds for n in workers]
    return dict(zip(keys, run_points(fxmark_point, configs,
                                     processes=processes)))


def app_point(spec: dict) -> dict:
    """Run one application (Figure 10) and return its scalar summary.

    ``spec`` is keyword arguments for
    :func:`repro.workloads.apps.run_app` (``kind``, ``app_name``,
    ``cores``, and optionally the windows); the summary is exactly the
    golden ``fig10`` entry.
    """
    from repro.workloads.apps import run_app
    result = run_app(**spec)
    return {
        "throughput_ops": result.throughput_ops,
        "total_ops": result.total_ops,
        "mean_us": result.latency.mean_us(),
        "p99_us": result.latency.p99_us(),
        "cpu_busy_fraction": result.cpu_busy_fraction,
    }


def crash_point(spec: dict) -> dict:
    """Run one crash test (Table 2) and return its verdict summary.

    ``spec`` is keyword arguments for
    :func:`repro.crash.run_crash_test` (``kind``, ``workload``, and
    optionally ``granularity``, ``crash_points``, a picklable
    ``fault_plan`` factory, planner knobs...).  The summary is exactly
    the golden ``table2`` entry, which stores the raw line-state count
    as a string and every failure as a list of strings.  The test
    passed iff ``passed == total_crash_points``.
    """
    from repro.crash import run_crash_test
    report = run_crash_test(**spec)
    return {
        "total_crash_points": report.total_crash_points,
        "passed": report.passed,
        "raw_states": str(report.raw_states),
        "plan_classes": dict(sorted(report.plan_classes.items())),
        "failures": [list(map(str, f)) for f in report.failures],
    }


def fuzz_point(spec: dict) -> dict:
    """Run one fuzz scenario spec and return the picklable verdict.

    ``spec`` is ``{"tuple": <ScenarioTuple.to_dict()>, "mutant":
    str-or-None}``; the result is ``ScenarioResult.as_dict()``.
    """
    from repro.fuzz.scenario import run_scenario
    from repro.fuzz.tuples import ScenarioTuple
    t = ScenarioTuple.from_dict(spec["tuple"])
    return run_scenario(t, mutant=spec.get("mutant")).as_dict()
