"""Mechanism-aware crash-plan generation over a line stream.

Brute-force line-granularity crash testing is hopeless: every
in-flight store contributes ``2^lines`` subsets per crash position.
But almost all of those states are equivalent *to recovery*: an
8-byte-atomic tail commit either landed or it didn't; a torn log entry
is torn however many of its middle lines are missing; page data only
matters as "complete", "absent", or "representative partial shapes"
(prefix / suffix / hole).  This is Silhouette's mechanism reasoning:
enumerate one representative per equivalence class instead of every
raw subset.

:class:`CrashPlanner` walks the stream once, and at every *interesting*
position (just before each fence, just before each immediate store,
and end-of-stream) emits :class:`CrashPlan` candidates from the
in-flight set:

* ``intact`` / ``flushed`` -- none / all of the in-flight stores land;
* ``solo:<mech>`` / ``drop:<mech>`` -- exactly one lands / exactly one
  is dropped (the single-store reordering cases);
* ``torn[-solo]:<mech>`` -- a multi-line ``record`` store lands a line
  prefix (with the rest of the in-flight set landed / dropped);
* ``head/prefix/suffix/hole:<mech>`` -- representative partial shapes
  of a multi-line ``data`` store, rest of the in-flight set landed.

Plans are deduplicated by resulting applied-state (two positions whose
durable+chosen sets produce the same image and the same legality range
are one plan), then sampled per *signature* -- the epoch's mechanism
context -- so a long workload's thousands of identical-looking epochs
collapse to a few representatives each.  ``raw_states`` counts the
2^lines subsets the emitted plans stand in for.

All sampling is driven by a seeded ``random.Random``: the same stream
and seed produce the identical plan list (tests pin this).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crash.linestream import FenceRec, LineStream

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(seq: int) -> int:
    return ((seq + 1) * _MIX) & _MASK


@dataclass(frozen=True)
class CrashPlan:
    """One representative crash state: a stream position plus the
    chosen subset of in-flight stores.

    ``applied`` are fully landed in-flight seqs; ``partials`` maps a
    seq to the line indices that landed.  ``lo``/``hi`` bound the legal
    oracle states at this point (ops acked / ops started).
    """

    point: int
    cls: str
    applied: frozenset
    partials: Tuple[Tuple[int, Tuple[int, ...]], ...]
    lo: int
    hi: int
    signature: str = field(compare=False, default="")


#: A candidate plan before sampling, as a tuple: ``(point, cls, how,
#: seq, seqs, lines, lo, hi, signature)``.  ``how``/``seq``/``seqs``
#: stand in for the :class:`CrashPlan`'s ``applied`` (see
#: :func:`_applied`), and ``lines`` (None for no partial store) for
#: its ``partials``, ``((seq, lines),)``.
_Cand = Tuple
_SIG = 8
#: The plan order, ``(point, cls)``; the sorts are stable, so ties
#: keep generation order.
_order = itemgetter(0, 1)
#: How a candidate's ``applied`` set draws on the flight: none of it,
#: one store alone, all of it, or all but one store.
_NONE, _SOLO, _ALL, _DROP = range(4)


class CrashPlanner:
    """Enumerate representative crash plans for one recorded stream.

    Parameters
    ----------
    stream:
        The recording image's :class:`LineStream`.
    op_bounds:
        Per-op ``[start, end)`` stream positions (defaults to
        ``stream.op_bounds``); ``lo`` at a point counts ops whose end
        (the ack boundary) lies at or before it, ``hi`` ops that
        started.  An op acked by the crash point must survive recovery
        under *every* plan -- that is the paper's ack-implies-durable
        contract, and it is strictly stronger than the page model's
        "all mutations present" notion of durable.
    per_signature:
        Plans kept per (epoch-context, in-flight-shape, class)
        signature; ``None`` keeps every deduplicated plan (exhaustive
        mode, for the mutant-detection tests).
    budget:
        Hard cap on emitted plans (at least one per signature is
        retained); ``None`` = no cap.
    seed:
        Drives every sampling decision.
    """

    def __init__(self, stream: LineStream,
                 op_bounds: Optional[Sequence[Tuple[int, int]]] = None,
                 per_signature: Optional[int] = 3,
                 budget: Optional[int] = None,
                 seed: int = 0):
        self.stream = stream
        bounds = list(op_bounds if op_bounds is not None
                      else stream.op_bounds)
        self._ends = [e for (_s, e) in bounds]
        self._starts = [s for (s, _e) in bounds]
        self.per_signature = per_signature
        self.budget = budget
        self.seed = seed
        #: Raw 2^lines crash states the interesting positions span
        #: (what brute-force line enumeration would have to replay).
        self.raw_states = 0
        #: Interesting positions examined.
        self.positions = 0
        #: Final plan count per class (filled by :meth:`plans`).
        self.plan_classes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def plans(self) -> List[CrashPlan]:
        """Generate, deduplicate, and sample the plan set.

        A candidate's dedup key is computed before anything else about
        it: only a new key builds its signature string, and ``applied``
        is carried as a recipe (:func:`_applied`) until sampling has
        decided which candidates survive; only those become
        :class:`CrashPlan` objects.
        """
        deduped: Dict[Tuple, Optional[_Cand]] = {}
        self.raw_states = 0
        self.positions = 0

        durable_hash = 0      # order-free content hash of the durable set
        n_durable = 0
        #: In-flight stores by seq, in issue order: ``(mix, raw subset
        #: bits, signature label, representatives beside other stores,
        #: representatives alone)`` (see :func:`_representatives`).
        flight: Dict[int, Tuple] = {}
        #: Fence position -> the in-flight seqs it makes durable.
        leaving: Dict[int, List[int]] = {}
        # The flight's mix sum, unreduced: a drop key's sum is this
        # minus the dropped store's own mix, an exact identity.
        flight_mix = 0
        flight_bits = 0       # log2 of the flight's raw subset count
        #: ``(seq frozenset, signature part)`` of the current flight;
        #: None once the flight has changed since it was built.
        shape: Optional[Tuple[frozenset, str]] = None
        cancelled = self.stream.cancelled
        covered_at = self.stream.covered_at
        ends, starts = self._ends, self._starts

        def visit(point: int, context: str) -> None:
            nonlocal shape
            self.positions += 1
            lo = bisect_right(ends, point)
            hi = bisect_right(starts, point)
            base, nd, n = durable_hash, n_durable, len(flight)
            new = []
            key = (base, nd, None, None, lo, hi)
            if key not in deduped:
                deduped[key] = None
                new.append((key, "intact", _NONE, None, None))
            if n:
                self.raw_states += 1 << flight_bits
                full = base + flight_mix
                key = (full & _MASK, nd + n, None, None, lo, hi)
                if key not in deduped:
                    deduped[key] = None
                    new.append((key, "flushed", _ALL, None, None))
                single = n == 1
                n_rest = nd + n - 1
                for seq, (mix, _bits, _label, beside, alone) in \
                        flight.items():
                    rest = (full - mix) & _MASK
                    for cls, how, lines in alone if single else beside:
                        if how == _DROP:
                            key = (rest, n_rest, lines and seq, lines, lo, hi)
                        elif how == _SOLO:
                            key = ((base + mix) & _MASK, nd + 1, None, None,
                                   lo, hi)
                        else:
                            key = (base, nd, lines and seq, lines, lo, hi)
                        if key not in deduped:
                            deduped[key] = None
                            new.append((key, cls, how, seq, lines))
            if not new:
                return
            if shape is None:
                shape = (frozenset(flight), ",".join(sorted(
                    v[2] for v in flight.values())))
            seqs, flight_sig = shape
            for key, cls, how, seq, lines in new:
                deduped[key] = (point, cls, how, seq, seqs, lines, lo, hi,
                                f"{context}|{cls}|{flight_sig}")

        for idx, rec in enumerate(self.stream.records):
            if isinstance(rec, FenceRec):
                visit(idx, rec.label)
                # The stores this fence makes durable leave the flight.
                done = leaving.pop(idx, ())
                for s in done:
                    mix, bits = flight.pop(s)[:2]
                    flight_mix -= mix
                    flight_bits -= bits
                    durable_hash = (durable_hash + mix) & _MASK
                if done:
                    n_durable += len(done)
                    shape = None
            elif idx in cancelled:
                continue
            elif rec.immediate:
                visit(idx, f"pre:{rec.mech}")
                durable_hash = (durable_hash + _mix(idx)) & _MASK
                n_durable += 1
            else:
                mix = _mix(idx)
                # An atomic store lands or not: 2 raw states; any other
                # store, every subset of its lines.
                bits = 1 if rec.klass == "atomic" else rec.nlines
                flight[idx] = (mix, bits,
                               rec.mech + "+" if rec.dep else rec.mech,
                               *_representatives(rec.mech, rec.klass,
                                                 rec.nlines))
                leaving.setdefault(covered_at[idx], []).append(idx)
                flight_mix += mix
                flight_bits += bits
                shape = None
        visit(len(self.stream.records), "end")

        chosen = [CrashPlan(point, cls, _applied(how, seq, seqs),
                            () if lines is None else ((seq, lines),),
                            lo, hi, sig)
                  for point, cls, how, seq, seqs, lines, lo, hi, sig
                  in self._sample(list(deduped.values()))]
        self.plan_classes = {}
        for p in chosen:
            self.plan_classes[p.cls] = self.plan_classes.get(p.cls, 0) + 1
        return chosen

    # ------------------------------------------------------------------
    def _sample(self, cands: List[_Cand]) -> List[_Cand]:
        """Per-signature sampling + the global budget, seeded."""
        if self.per_signature is None and self.budget is None:
            return cands
        rng = random.Random(self.seed)
        groups: Dict[str, List[_Cand]] = {}
        for c in cands:
            groups.setdefault(c[_SIG], []).append(c)
        kept: List[_Cand] = []
        k = self.per_signature
        for sig in sorted(groups):
            grp = sorted(groups[sig], key=_order)
            if k is not None and len(grp) > k:
                # Always keep the first and last occurrence (epoch
                # boundaries see the extreme op-progress ranges),
                # sample the middle.
                middle = grp[1:-1]
                grp = sorted(
                    [grp[0], grp[-1]] + rng.sample(middle,
                                                   min(k - 2, len(middle))),
                    key=_order) if k >= 2 else [grp[0]]
            kept.extend(grp)
        if self.budget is not None and len(kept) > self.budget:
            by_sig: Dict[str, List[_Cand]] = {}
            for c in kept:
                by_sig.setdefault(c[_SIG], []).append(c)
            # Trim the largest group (ties: the smallest signature)
            # one plan at a time, never below one plan per group.
            heap = [(-len(grp), sig) for sig, grp in by_sig.items()]
            heapq.heapify(heap)
            total = len(kept)
            while total > self.budget:
                _neg, sig = heap[0]
                grp = by_sig[sig]
                if len(grp) <= 1:
                    break
                grp.pop(rng.randrange(1, len(grp)))
                total -= 1
                heapq.heapreplace(heap, (-len(grp), sig))
            kept = [c for sig in sorted(by_sig) for c in by_sig[sig]]
        kept.sort(key=_order)
        return kept


@lru_cache(maxsize=None)
def _representatives(mech: str, klass: str, nlines: int) -> Tuple[Tuple,
                                                                  Tuple]:
    """One in-flight store's representatives (see the module docstring
    for the class catalog) as ``(cls, how, landed lines)``, ``lines``
    None unless the store lands partially; in generation order, beside
    other in-flight stores and as the only one.  Alone, ``solo`` is the
    ``flushed`` state and ``torn-solo`` the ``torn`` one, both built
    first: those duplicates are left out."""
    solo = (f"solo:{mech}", _SOLO, None)
    drop = (f"drop:{mech}", _DROP, None)
    if klass == "record" and nlines > 1:
        head = tuple(range(max(1, nlines // 2)))
        torn = (f"torn:{mech}", _DROP, head)
        return (solo, drop, torn, (f"torn-solo:{mech}", _NONE, head)), \
            (torn,)
    shapes: Tuple = ()
    if klass == "data" and nlines > 1:
        shapes = tuple((f"{shape}:{mech}", _DROP, lines)
                       for shape, lines in _data_shapes(nlines))
    return (solo, drop) + shapes, shapes


def _applied(how: int, seq: Optional[int], seqs: frozenset) -> frozenset:
    """A candidate's ``applied`` set from its recipe: ``how`` it draws
    on the in-flight ``seqs`` (``seq`` is the solo or dropped store)."""
    if how == _NONE:
        return frozenset()
    if how == _SOLO:
        return frozenset((seq,))
    if how == _ALL:
        return seqs
    return seqs - {seq}


@lru_cache(maxsize=None)
def _data_shapes(n: int) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """The representative partial line sets of an ``n``-line data store."""
    return (("head", (0,)),
            ("prefix", tuple(range(n // 2))),
            ("suffix", tuple(range(n // 2, n))),
            ("hole", tuple(i for i in range(n) if i != n // 2)))
