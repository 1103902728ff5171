"""Bandwidth-shared slow-memory model.

The central abstraction is :class:`BandwidthPool`, an exact
processor-sharing model of one direction (read or write) of a memory
device.  Concurrent transfers share the device capacity max-min fairly,
subject to

* a per-flow rate cap (a CPU core or a DMA channel can only move bytes
  so fast),
* per-group caps (e.g. the DMA-read class cannot exceed ~42 % of the
  device read peak; the CPU-write class collapses when many cores
  store concurrently), and
* the device total.

Whenever the flow set changes the pool recomputes the allocation,
charges every active flow for the bytes it moved since the last
change, and schedules a wake-up at the earliest projected completion.
This is exact (no chunking error) and costs O(flows) work per change.

:class:`SlowMemory` wraps a read pool and a write pool for one device
(a set of Optane DIMMs) and exposes the transfer API the CPU-copy and
DMA models use.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.hw.params import CostModel
from repro.sim import Engine, Event

#: Group labels used by the stock capacity policies.
CPU_GROUP = "cpu"
DMA_GROUP = "dma"
#: Odinfs-style delegation threads: NUMA-local streaming stores that
#: avoid the many-writer collapse (the whole point of delegation).
DELEGATION_GROUP = "delegation"


class PoolFlow:
    """One in-flight transfer inside a :class:`BandwidthPool`."""

    __slots__ = ("nbytes", "remaining", "cap", "group", "tag",
                 "event", "rate", "started_at")

    def __init__(self, nbytes: int, cap: float, group: str, tag: object,
                 event: Event, now: int):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.cap = cap
        self.group = group
        self.tag = tag
        self.event = event
        self.rate = 0.0
        self.started_at = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PoolFlow {self.group}/{self.tag} {self.remaining:.0f}B"
                f" @ {self.rate:.2f}B/ns>")


#: Memo-cache for :func:`_waterfill`.  The allocation is a pure
#: function of its arguments, and steady-state benchmark loops present
#: the same handful of (weights, caps, capacity) shapes thousands of
#: times -- rebalances are ~25% of sweep runtime without this.  Cached
#: rate lists are shared and must never be mutated by callers.
#: Bounded FIFO-evicting (oldest shape out first): long multi-campaign
#: processes cycling through many shapes stay capped at
#: ``_WATERFILL_CACHE_MAX`` entries instead of thrashing on a
#: clear-everything overflow; :func:`clear_waterfill_cache` empties it
#: outright (wired into the stats-reset paths).
_WATERFILL_CACHE: dict = {}
_WATERFILL_CACHE_MAX = 4096


def clear_waterfill_cache() -> None:
    """Empty the global waterfill memo (stats-reset / test isolation)."""
    _WATERFILL_CACHE.clear()


def _waterfill(demands: List[float], caps: List[float], capacity: float) -> List[float]:
    """Max-min fair allocation of ``capacity`` across entities.

    ``demands`` are fair-share weights (use 1.0 for unweighted),
    ``caps`` are per-entity rate caps.  Returns the allocated rates
    (a cached list -- treat as read-only).
    """
    key = (tuple(demands), tuple(caps), capacity)
    cached = _WATERFILL_CACHE.get(key)
    if cached is not None:
        return cached
    rates = _waterfill_compute(demands, caps, capacity)
    if len(_WATERFILL_CACHE) >= _WATERFILL_CACHE_MAX:
        # Evict the oldest entry (dict preserves insertion order); the
        # steady-state shapes re-enter at the tail and stay resident.
        _WATERFILL_CACHE.pop(next(iter(_WATERFILL_CACHE)))
    _WATERFILL_CACHE[key] = rates
    return rates


def _waterfill_compute(demands: List[float], caps: List[float],
                       capacity: float) -> List[float]:
    """Uncached max-min fair waterfill (see :func:`_waterfill`)."""
    n = len(caps)
    rates = [0.0] * n
    active = list(range(n))
    remaining = capacity
    # Each iteration freezes at least one entity at its cap, so the
    # loop runs at most n times.
    while active and remaining > 1e-12:
        total_weight = sum(demands[i] for i in active)
        if total_weight <= 0:
            break
        unit = remaining / total_weight
        frozen = [i for i in active if caps[i] - rates[i] <= unit * demands[i] + 1e-12]
        if not frozen:
            for i in active:
                rates[i] += unit * demands[i]
            remaining = 0.0
            break
        for i in frozen:
            remaining -= caps[i] - rates[i]
            rates[i] = caps[i]
            active.remove(i)
    return rates


class BandwidthPool:
    """Exact processor-sharing bandwidth pool with hierarchical caps.

    Parameters
    ----------
    engine:
        The simulation engine.
    name:
        For diagnostics ("pm0.write").
    capacity:
        Device total for this direction, bytes/ns.
    group_cap_fn:
        Optional callable ``(group_counts: Dict[str, int]) -> Dict[str, float]``
        returning the cap for each group given how many flows of each
        group are active.  Groups absent from the result are uncapped.
        Beyond the counts it may depend on the flow set only through
        the number of distinct DMA-group tags (see
        :meth:`_allocate_rates`, whose memo key holds nothing else).
    """

    def __init__(self, engine: Engine, name: str, capacity: float,
                 group_cap_fn: Optional[Callable[[Dict[str, int]], Dict[str, float]]] = None):
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self.group_cap_fn = group_cap_fn
        self._flows: List[PoolFlow] = []
        self._last_update: int = 0
        self._timer_generation: int = 0
        self._wakeup: Optional[Event] = None
        #: Memoised flow-shape -> rate-list (see _allocate_rates).
        self._alloc_cache: dict = {}
        # Lifetime statistics.
        self.bytes_moved: int = 0
        self.transfers_completed: int = 0

    # -- public API ----------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of in-flight transfers."""
        return len(self._flows)

    def group_counts(self) -> Dict[str, int]:
        """How many active flows each group has."""
        counts: Dict[str, int] = {}
        for flow in self._flows:
            counts[flow.group] = counts.get(flow.group, 0) + 1
        return counts

    def set_capacity(self, capacity: float) -> None:
        """Change the device capacity mid-run (fault injection).

        Charges every in-flight transfer for progress at the old rates,
        then reallocates under the new capacity -- exact, like every
        other flow-set change.
        """
        if capacity <= 0:
            raise ValueError(f"pool capacity must be positive, got {capacity}")
        self._advance()
        self.capacity = capacity
        self._rebalance()

    def transfer(self, nbytes: int, cap: float, group: str = CPU_GROUP,
                 tag: object = None) -> Event:
        """Start a transfer; the returned event fires when it finishes.

        ``cap`` is the initiator's own rate limit (per-core or
        per-channel), ``group`` selects the capacity class.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        event = self.engine.event()
        if nbytes == 0:
            event.succeed(0)
            return event
        self._advance()
        self._flows.append(PoolFlow(nbytes, cap, group, tag, event, self.engine.now))
        self._rebalance()
        return event

    def instantaneous_rate(self, group: Optional[str] = None) -> float:
        """Current aggregate allocated rate (optionally one group's)."""
        return sum(f.rate for f in self._flows
                   if group is None or f.group == group)

    # -- internals -------------------------------------------------------
    def _advance(self) -> None:
        """Charge all flows for progress since the last state change."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows:
                flow.remaining -= flow.rate * elapsed
        self._last_update = now

    def _rebalance(self) -> None:
        """Recompute rates and schedule the next completion wake-up."""
        self._timer_generation += 1
        # Withdraw the superseded wake-up so stale timers do not pile
        # up in the engine heap (they would fire as generation-checked
        # no-ops, but every flow-set change used to leak one).  When we
        # are *inside* that timer's callback it is already processed
        # and needs no cancellation; the generation check stays as a
        # second line of defence.
        stale = self._wakeup
        if stale is not None:
            self._wakeup = None
            if not stale.processed and not stale.cancelled:
                stale.cancel()
        # Retire flows whose remaining bytes are (numerically) gone.
        finished = [f for f in self._flows if f.remaining <= 1e-6]
        if finished:
            self._flows = [f for f in self._flows if f.remaining > 1e-6]
            for flow in finished:
                self.bytes_moved += flow.nbytes
                self.transfers_completed += 1
                flow.event.succeed(flow.nbytes)
        if not self._flows:
            return
        self._allocate_rates()
        # Schedule a wake-up at the earliest projected completion.
        flows = self._flows
        if len(flows) == 1:
            # Solo flow (the single-worker sweeps): skip the min() scan.
            f = flows[0]
            horizon = f.remaining / f.rate if f.rate > 0 else math.inf
        else:
            horizon = min(f.remaining / f.rate if f.rate > 0 else math.inf
                          for f in flows)
        if horizon is math.inf:
            raise RuntimeError(
                f"bandwidth pool {self.name!r} stalled: zero aggregate rate "
                f"with {len(self._flows)} active flows")
        generation = self._timer_generation
        delay = max(1, math.ceil(horizon))
        wakeup = self.engine.timeout(delay)
        wakeup.add_callback(lambda _e: self._on_timer(generation))
        self._wakeup = wakeup

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a later rebalance
        self._advance()
        self._rebalance()

    def _allocate_rates(self) -> None:
        """Hierarchical max-min: groups first (weighted by flow count),
        then flows within each group.

        The allocation is a pure function of the pool capacity, the
        ``(group, cap)`` of each flow in flow order, and the number of
        distinct DMA-group tags (the only way a capacity policy looks
        at tags: it counts active DMA write channels).  Benchmark
        steady state cycles through a handful of such shapes, so
        results are memoised per pool; a per-flow tag (CPU flows carry
        ``("r"|"w", ino)``) would only split equal shapes apart.
        """
        flows = self._flows
        key = (self.capacity,
               tuple([(f.group, f.cap) for f in flows]),
               len({f.tag for f in flows if f.group == DMA_GROUP}))
        rates = self._alloc_cache.get(key)
        if rates is not None:
            for flow, rate in zip(flows, rates):
                flow.rate = rate
            return
        groups: Dict[str, List[PoolFlow]] = {}
        for flow in flows:
            groups.setdefault(flow.group, []).append(flow)
        counts = {g: len(fl) for g, fl in groups.items()}
        caps = self.group_cap_fn(counts) if self.group_cap_fn else {}
        names = sorted(groups)
        group_caps = [min(caps.get(g, math.inf), sum(f.cap for f in groups[g]))
                      for g in names]
        weights = [float(len(groups[g])) for g in names]
        group_rates = _waterfill(weights, group_caps, self.capacity)
        for gname, grate in zip(names, group_rates):
            members = groups[gname]
            flow_rates = _waterfill([1.0] * len(members),
                                    [f.cap for f in members], grate)
            for flow, rate in zip(members, flow_rates):
                flow.rate = rate
        if len(self._alloc_cache) >= _WATERFILL_CACHE_MAX:
            self._alloc_cache.clear()
        self._alloc_cache[key] = [f.rate for f in flows]

    def reset_stats(self) -> None:
        """Zero the lifetime counters and drop memoised allocations."""
        self.bytes_moved = 0
        self.transfers_completed = 0
        self._alloc_cache.clear()


class SlowMemory:
    """One slow-memory device: a set of Optane DIMMs behind shared pools.

    Exposes the two operations the rest of the system uses:

    * :meth:`cpu_copy` -- a CPU core moving bytes synchronously
      (blocks the calling process for the whole transfer, which is
      exactly the CPU cost the paper wants to eliminate), and
    * :meth:`dma_transfer` -- raw pool access for the DMA engine.
    """

    def __init__(self, engine: Engine, model: CostModel, dimms: int,
                 name: str = "pm"):
        self.engine = engine
        self.model = model
        self.dimms = dimms
        self.name = name
        self.read_pool = BandwidthPool(
            engine, f"{name}.read", model.pm_read_peak(dimms),
            group_cap_fn=self._read_group_caps)
        self.write_pool = BandwidthPool(
            engine, f"{name}.write", model.pm_write_peak(dimms),
            group_cap_fn=self._write_group_caps)
        # Healthy-device capacities; set_degradation() scales from these.
        self._base_read_capacity = self.read_pool.capacity
        self._base_write_capacity = self.write_pool.capacity
        self.degradation = (1.0, 1.0)

    def set_degradation(self, read_factor: float, write_factor: float) -> None:
        """Scale device bandwidth (fault injection: thermal throttling,
        media retries).  Factors are fractions of the healthy capacity;
        (1.0, 1.0) restores full speed."""
        for f in (read_factor, write_factor):
            if not 0.0 < f <= 1.0:
                raise ValueError(f"degradation factor must be in (0, 1], got {f}")
        self.degradation = (read_factor, write_factor)
        self.read_pool.set_capacity(self._base_read_capacity * read_factor)
        self.write_pool.set_capacity(self._base_write_capacity * write_factor)

    # -- capacity policies (the calibrated asymmetries live here) ------
    def _active_write_channels(self) -> int:
        """Distinct DMA channels with an in-flight write (their tag is
        the channel id)."""
        return len({f.tag for f in self.write_pool._flows
                    if f.group == DMA_GROUP})

    def _read_group_caps(self, counts: Dict[str, int]) -> Dict[str, float]:
        return {DMA_GROUP: self.model.dma_read_ceiling(self.dimms)}

    def _write_group_caps(self, counts: Dict[str, int]) -> Dict[str, float]:
        return {
            CPU_GROUP: self.model.cpu_write_capacity(
                self.dimms, counts.get(CPU_GROUP, 0)),
            DMA_GROUP: self.model.dma_write_ceiling(
                self.dimms, self._active_write_channels()),
        }

    # -- transfer API ----------------------------------------------------
    def cpu_copy(self, nbytes: int, write: bool, tag: object = None):
        """Process generator: a CPU core copies ``nbytes`` synchronously.

        The caller (a simulated core/thread) is blocked -- i.e. burning
        CPU -- for the full duration: fixed call overhead, the device
        access latency, then the bandwidth-shared transfer.
        """
        model = self.model
        yield self.engine.sleep(model.cpu_copy_op_overhead)
        if write:
            yield self.engine.sleep(model.pm_write_latency)
            yield self.write_pool.transfer(
                nbytes, model.cpu_copy_write_rate, CPU_GROUP, tag)
        else:
            yield self.engine.sleep(model.pm_read_latency)
            yield self.read_pool.transfer(
                nbytes, model.cpu_copy_read_rate, CPU_GROUP, tag)
        return nbytes

    def dma_transfer(self, nbytes: int, write: bool, channel_rate: float,
                     tag: object = None) -> Event:
        """Start a DMA-class transfer; returns its completion event."""
        pool = self.write_pool if write else self.read_pool
        return pool.transfer(nbytes, channel_rate, DMA_GROUP, tag)

    def delegated_copy(self, nbytes: int, write: bool, tag: object = None):
        """A delegation thread (Odinfs-style) copies ``nbytes``.

        Same CPU burn as :meth:`cpu_copy`, but the sequential NUMA-local
        streaming access pattern sidesteps the many-writer collapse --
        the property Odinfs's delegation design exploits.
        """
        model = self.model
        yield self.engine.sleep(model.cpu_copy_op_overhead)
        if write:
            yield self.engine.sleep(model.pm_write_latency)
            yield self.write_pool.transfer(
                nbytes, model.cpu_copy_write_rate, DELEGATION_GROUP, tag)
        else:
            yield self.engine.sleep(model.pm_read_latency)
            yield self.read_pool.transfer(
                nbytes, model.cpu_copy_read_rate, DELEGATION_GROUP, tag)
        return nbytes

    # -- stats -------------------------------------------------------------
    def bytes_read(self) -> int:
        """Total bytes read from the device so far."""
        return self.read_pool.bytes_moved

    def bytes_written(self) -> int:
        """Total bytes written to the device so far."""
        return self.write_pool.bytes_moved

    def reset_stats(self) -> None:
        """Zero both pools' counters and the global waterfill memo.

        Part of the campaign-boundary reset path: long multi-campaign
        processes call this between runs so byte counters start fresh
        and memo caches cannot accumulate without bound.
        """
        self.read_pool.reset_stats()
        self.write_pool.reset_stats()
        clear_waterfill_cache()
