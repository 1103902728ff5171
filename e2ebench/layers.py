"""The traced run: per-layer numbers measured from outside the simulator.

Three instruments, all attached by the benchmark and all removed when
the traced repetition ends, so untraced repetitions run the plain code:

* **Profiler attribution** -- ``cProfile`` over the whole repetition;
  each function's self time and call count is charged to the
  ``repro.<L>`` package its file lives in (``builtins`` for C functions
  and generated code, ``other`` for the standard library and this
  harness).
* **Modelled counters** -- the constructors of ``Platform``,
  ``Runtime``, ``NovaFS`` (every variant), ``FaultPlan``, ``NetStats``
  and ``Tracer`` are wrapped to record each instance a unit builds; the
  unit's counters are read from their public stats when it ends.
* **Boundary timings** -- wrappers around the crash layer's public
  functions (``CrashPlanner.plans``, ``replay_plan``,
  ``snapshot_with_content``, ``recover``).

``repro.obs.Tracer`` is deliberately *not* attached: an engine with a
tracer turns off macro-op DMA aggregation, so a traced run would take
a different data path than the timed one.
"""

from __future__ import annotations

import cProfile
import functools
import math
import os
import pstats
import time
from typing import Callable, Dict, List

#: Layers charged by the profiler, in report order.
LAYERS = ("sim", "hw", "io", "fs", "runtime", "core", "baselines", "crash",
          "faults", "net", "obs", "fuzz", "workloads", "analysis", "vector",
          "builtins", "other")


def layer_of(filename: str, pkg_dir: str) -> str:
    """The layer a profiled frame's file belongs to.

    ``pkg_dir`` is the directory of the ``repro`` package.  Files in
    ``repro/<L>/`` or ``repro/<L>.py`` map to ``L`` when it is a known
    layer; C functions and generated code (no path separator in the
    file name: ``~``, ``<string>``, ``<frozen ...>``) to ``builtins``;
    everything else to ``other``.
    """
    prefix = pkg_dir.rstrip(os.sep) + os.sep
    if filename.startswith(prefix):
        head = filename[len(prefix):].split(os.sep, 1)[0]
        if head.endswith(".py"):
            head = head[:-3]
        return head if head in LAYERS else "other"
    return "builtins" if os.sep not in filename else "other"


def attribute(stats: pstats.Stats, pkg_dir: str) -> Dict[str, dict]:
    """Per-layer ``{"tottime": s, "calls": n}`` from profiler stats."""
    out = {layer: {"tottime": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (_cc, nc, tt, _ct, _callers) in \
            stats.stats.items():
        agg = out[layer_of(filename, pkg_dir)]
        agg["tottime"] += tt
        agg["calls"] += nc
    return out


class Counters:
    """Modelled counters and boundary timings over one repetition."""

    FIELDS = ("events_fired", "events_cancelled", "sleeps_reused",
              "dma_desc", "dma_aggregated", "pm_written", "pm_read",
              "app_written", "app_read", "busy_ns", "span_ns",
              "switches", "steals", "easy_dma_writes", "easy_memcpy_writes",
              "easy_dma_reads", "easy_memcpy_reads", "faults_injected",
              "net_msgs", "trace_events", "plans_replayed", "raw_states")
    TIMERS = ("planner", "replay", "snapshot", "recover")

    def __init__(self):
        self.values = dict.fromkeys(self.FIELDS, 0)
        self.seconds = dict.fromkeys(self.TIMERS, 0.0)
        self._seen: Dict[str, list] = {"platform": [], "runtime": [],
                                       "fs": [], "fault_plan": [],
                                       "net_stats": [], "tracer": []}

    # -- capture --------------------------------------------------------
    def record(self, what: str, obj) -> None:
        self._seen[what].append(obj)

    def harvest(self) -> None:
        """Read the stats of every instance recorded since the last
        harvest, then drop them (units end here, so nothing recorded
        runs any further)."""
        from repro.core.easyio import EasyIoFS
        v = self.values
        engines, memories = {}, {}
        for p in self._seen["platform"]:
            engines[id(p.engine)] = p.engine
            memories[id(p.memory)] = p.memory
            for ch in p.dma.channels:
                v["dma_desc"] += ch.descriptors_completed
                v["dma_aggregated"] += ch.descriptors_aggregated
            busy = [c.busy_ns() for c in p.cores]
            used = [b for b in busy if b > 0]
            v["busy_ns"] += sum(used)
            v["span_ns"] += len(used) * p.engine.now
        for e in engines.values():
            v["events_fired"] += e.stats.events_fired
            v["events_cancelled"] += e.stats.events_cancelled
            v["sleeps_reused"] += e.stats.sleeps_reused
        for m in memories.values():
            v["pm_written"] += m.bytes_written()
            v["pm_read"] += m.bytes_read()
        for rt in self._seen["runtime"]:
            v["switches"] += rt.total_switches()
            v["steals"] += sum(s.steals for s in rt.schedulers)
        for fs in self._seen["fs"]:
            if isinstance(fs, EasyIoFS):
                v["easy_dma_writes"] += fs.dma_writes
                v["easy_memcpy_writes"] += fs.memcpy_writes
                v["easy_dma_reads"] += fs.dma_reads
                v["easy_memcpy_reads"] += fs.memcpy_reads
        for plan in self._seen["fault_plan"]:
            v["faults_injected"] += sum(plan.injected.values())
        for stats in self._seen["net_stats"]:
            v["net_msgs"] += stats.sent
        for tracer in self._seen["tracer"]:
            v["trace_events"] += tracer.emitted
        for seen in self._seen.values():
            seen.clear()

    def timed(self, timer: str, fn: Callable) -> Callable:
        seconds = self.seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[timer] += time.perf_counter() - t0
        return wrapper


class _Patches:
    """Set attributes and put every original back on exit."""

    def __init__(self):
        self._undo: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class instrument:
    """Context manager attaching the counters and boundary wrappers."""

    def __init__(self, counters: Counters):
        self.counters = counters
        self.patches = _Patches()

    def __enter__(self) -> Counters:
        import repro.analysis.sweep as sweep
        import repro.crash.crashmonkey as crashmonkey
        import repro.crash.linestream as linestream
        import repro.fuzz.scenario as scenario
        from repro.crash.plans import CrashPlanner
        from repro.faults.plan import FaultPlan
        from repro.fs.nova import NovaFS
        from repro.hw.platform import Platform
        from repro.net.network import NetStats
        from repro.obs.trace import Tracer
        from repro.runtime.scheduler import Runtime

        c, p = self.counters, self.patches
        v = c.values
        p.set(Platform, "__init__", self._recorder(Platform, "platform"))
        p.set(Runtime, "__init__", self._recorder(Runtime, "runtime"))
        p.set(NovaFS, "__init__", self._recorder(NovaFS, "fs"))
        p.set(FaultPlan, "__init__", self._recorder(FaultPlan, "fault_plan"))
        p.set(NetStats, "__init__", self._recorder(NetStats, "net_stats"))
        p.set(Tracer, "__init__", self._recorder(Tracer, "tracer"))

        # Requested bytes, for the PM amplification ratios.  The wrappers
        # return the op's generator unchanged (no extra frame per step).
        write, read = NovaFS.write, NovaFS.read

        def counted_write(fs, ctx, ino, offset, nbytes, *args, **kwargs):
            v["app_written"] += nbytes
            return write(fs, ctx, ino, offset, nbytes, *args, **kwargs)

        def counted_read(fs, ctx, ino, offset, nbytes, *args, **kwargs):
            v["app_read"] += nbytes
            return read(fs, ctx, ino, offset, nbytes, *args, **kwargs)
        p.set(NovaFS, "write", counted_write)
        p.set(NovaFS, "read", counted_read)

        p.set(CrashPlanner, "plans", c.timed("planner", CrashPlanner.plans))
        replay = c.timed("replay", linestream.replay_plan)

        def counted_replay(*args, **kwargs):
            v["plans_replayed"] += 1
            return replay(*args, **kwargs)
        p.set(linestream, "replay_plan", counted_replay)
        for module in (crashmonkey, scenario):
            p.set(module, "snapshot_with_content",
                  c.timed("snapshot", module.snapshot_with_content))
            p.set(module, "recover", c.timed("recover", module.recover))

        # One fuzz tuple ends here: harvest its instances and take the
        # crash accounting from its verdict.
        fuzz_point = sweep.fuzz_point

        def harvested_fuzz_point(spec):
            out = fuzz_point(spec)
            v["raw_states"] += out["raw_states"]
            c.harvest()
            return out
        p.set(sweep, "fuzz_point", harvested_fuzz_point)
        return c

    def _recorder(self, cls, what: str):
        orig = cls.__init__
        record = self.counters.record

        # wraps() keeps the signature visible to inspect.signature, which
        # make_fs uses to route constructor keyword arguments.
        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            record(what, obj)
        return init

    def __exit__(self, *exc) -> None:
        self.patches.undo()


def profile(fn: Callable[[], None]) -> pstats.Stats:
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    return pstats.Stats(prof)


def layer_metrics(attr: Dict[str, dict], c: Counters, work: int) -> \
        Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    v, s = c.values, c.seconds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    total_tt = sum(a["tottime"] for a in attr.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = ratio(attr[layer]["tottime"], total_tt)
        out[f"{layer}.calls_per_unit"] = ratio(attr[layer]["calls"], work)
    plans = v["plans_replayed"]
    out.update({
        "sim.events_per_unit": ratio(v["events_fired"], work),
        "sim.cancelled_frac": ratio(v["events_cancelled"],
                                    v["events_fired"] + v["events_cancelled"]),
        "sim.sleeps_reused_frac": ratio(v["sleeps_reused"], v["events_fired"]),
        "hw.dma_desc_per_unit": ratio(v["dma_desc"], work),
        "hw.dma_aggregated_frac": ratio(v["dma_aggregated"], v["dma_desc"]),
        "hw.pm_write_amp": ratio(v["pm_written"], v["app_written"]),
        "hw.pm_read_amp": ratio(v["pm_read"], v["app_read"]),
        "hw.core_busy_frac": ratio(v["busy_ns"], v["span_ns"]),
        "runtime.switches_per_unit": ratio(v["switches"], work),
        "runtime.steals_per_unit": ratio(v["steals"], work),
        "core.dma_write_frac": ratio(
            v["easy_dma_writes"],
            v["easy_dma_writes"] + v["easy_memcpy_writes"]),
        "core.dma_read_frac": ratio(
            v["easy_dma_reads"], v["easy_dma_reads"] + v["easy_memcpy_reads"]),
        "crash.plans": plans,
        "crash.raw_states_log10": (math.log10(v["raw_states"])
                                   if v["raw_states"] > 0 else 0.0),
        "crash.planner_ms": s["planner"] * 1e3,
        "crash.replay_ms_per_plan": ratio(s["replay"] * 1e3, plans),
        "crash.snapshot_ms_per_plan": ratio(s["snapshot"] * 1e3, plans),
        "fs.recover_ms_per_plan": ratio(s["recover"] * 1e3, plans),
        "obs.trace_events_per_unit": ratio(v["trace_events"], work),
        "net.msgs_per_unit": ratio(v["net_msgs"], work),
        "faults.injected_per_unit": ratio(v["faults_injected"], work),
    })
    return out


#: Per-layer metrics whose value depends on host timing; every other
#: per-layer metric is a deterministic count and must repeat exactly.
TIMED = tuple(f"{layer}.self_share" for layer in LAYERS) + (
    "crash.planner_ms", "crash.replay_ms_per_plan",
    "crash.snapshot_ms_per_plan", "fs.recover_ms_per_plan",
    "trace.overhead_x")
