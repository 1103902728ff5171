"""The simulation engine's schedule queue: a hierarchical timing wheel.

The engine's firing order contract is ``(when, schedule-order)``: of
two scheduled events the earlier ``when`` fires first, and within one
``when`` the event scheduled first fires first.

:class:`TimingWheelQueue` meets it without sequence numbers: events
within a near *horizon* live in exact per-timestamp FIFO buckets keyed
by a min-heap of **distinct** timestamps; events beyond the horizon
overflow into per-epoch far buckets that cascade into the near
structure as the clock advances.  Bucket order is schedule order,
pushes to an existing timestamp are a plain ``list.append``, and the
engine drains a whole bucket as one batch.  The engine inlines the
near-window push and the bucket pop on its hot paths (see
:mod:`repro.sim.engine`), so this class owns the representation and
the slow paths: far-epoch overflow, cascading, and compaction.

The queue counts the cancelled entries it still holds and lazily
compacts once the dead dominate the live (see
:data:`COMPACT_MIN_DEAD`), so cancel-heavy overload runs do not drag
dead entries around forever.  Compaction only drops cancelled entries;
it never reorders the survivors.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

_CANCELLED = 3  # mirrors repro.sim.engine's event-state constant

#: Compaction policy: rebuild the structure when more than this many
#: cancelled entries are queued *and* they outnumber the live ones.
COMPACT_MIN_DEAD = 64

#: Near-window width of the timing wheel, ns.  Events further out than
#: this from the window base overflow into far epochs.  1 ms covers the
#: sleeps/timeouts the hot paths issue; only long watchdogs and idle
#: timers overflow.
WHEEL_HORIZON = 1 << 20

#: Name of the schedule queue, recorded in benchmark provenance.  There
#: is only one; the constant is kept for readers of that provenance.
DEFAULT_SCHEDULER = "wheel"


class TimingWheelQueue:
    """Hierarchical timing wheel: exact near buckets, far-epoch overflow.

    *Near* events (``when < epoch_end``) live in ``_buckets``, a dict
    mapping each distinct timestamp to its FIFO event list, with the
    distinct timestamps ordered by the ``_whens`` min-heap -- so a
    timestamp pays one heap operation however many events share it, and
    the common "another event at an existing instant" push is a dict
    hit plus a list append.

    *Far* events overflow into ``_far``: per-epoch dicts of the same
    shape (epoch = ``when // WHEEL_HORIZON``).  When the near structure
    drains, the earliest far epoch cascades: its buckets become the
    near buckets and ``epoch_end`` advances to the epoch's end.  The
    cascade preserves FIFO order per timestamp (bucket lists move
    wholesale) and the near/far split preserves global order because
    every far timestamp is >= ``epoch_end`` > every near timestamp.

    ``_dead`` counts the cancelled entries still queued: the engine
    decrements it as its run loop drops each one, and compaction resets
    it.  An entry cancelled after the engine popped its batch is counted
    too but is no longer queued; the run loop's decrement (floored at
    zero) absorbs it, so such a count can only delay a compaction, and
    at most until the next one.  Every compaction bumps the owning
    engine's ``stats.heap_compactions``.
    """

    __slots__ = ("_buckets", "_whens", "_far", "_far_epochs", "_epoch_end",
                 "_len", "_dead", "_stats")

    def __init__(self, stats):
        self._buckets: dict = {}
        self._whens: List[int] = []
        self._far: dict = {}
        self._far_epochs: List[int] = []
        self._epoch_end = WHEEL_HORIZON
        self._len = 0
        self._dead = 0
        self._stats = stats

    def push(self, event, when: int) -> None:
        """Enqueue a triggered event for ``when`` (never in the past)."""
        self._len += 1
        if when < self._epoch_end:
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [event]
                heapq.heappush(self._whens, when)
            else:
                bucket.append(event)
            return
        epoch = when // WHEEL_HORIZON
        sub = self._far.get(epoch)
        if sub is None:
            self._far[epoch] = {when: [event]}
            heapq.heappush(self._far_epochs, epoch)
        else:
            bucket = sub.get(when)
            if bucket is None:
                sub[when] = [event]
            else:
                bucket.append(event)

    def _cascade(self) -> bool:
        """Promote the earliest far epoch into the near window."""
        while self._far_epochs:
            epoch = heapq.heappop(self._far_epochs)
            sub = self._far.pop(epoch)
            self._epoch_end = (epoch + 1) * WHEEL_HORIZON
            if sub:
                # Near timestamps are all < the old epoch_end and far
                # ones all >= it, so the dicts are disjoint.
                self._buckets.update(sub)
                self._whens = list(self._buckets)
                heapq.heapify(self._whens)
                return True
        return False

    def peek_when(self) -> Optional[int]:
        """Earliest queued timestamp, or None when nothing is queued."""
        while not self._whens:
            if not self._cascade():
                return None
        return self._whens[0]

    def note_cancelled(self) -> None:
        """A queued event was cancelled in place; compact lazily."""
        dead = self._dead + 1
        self._dead = dead
        if dead > COMPACT_MIN_DEAD and dead * 2 > self._len:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every bucket, near and far."""
        live = 0
        buckets = {}
        for when, bucket in self._buckets.items():
            kept = [ev for ev in bucket if ev._state != _CANCELLED]
            if kept:
                buckets[when] = kept
                live += len(kept)
        self._buckets = buckets
        self._whens = list(buckets)
        heapq.heapify(self._whens)
        far = {}
        for epoch, sub in self._far.items():
            kept_sub = {}
            for when, bucket in sub.items():
                kept = [ev for ev in bucket if ev._state != _CANCELLED]
                if kept:
                    kept_sub[when] = kept
                    live += len(kept)
            if kept_sub:
                far[epoch] = kept_sub
        self._far = far
        self._far_epochs = list(far)
        heapq.heapify(self._far_epochs)
        self._len = live
        self._dead = 0
        self._stats.heap_compactions += 1

    def __len__(self) -> int:
        """Queued entries, including cancelled ones."""
        return self._len
