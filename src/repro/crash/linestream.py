"""Cache-line-granularity persistence model (Silhouette-style).

The mutation journal in :class:`~repro.fs.pmimage.PMImage` records
*what* became durable, in program order -- that is CrashMonkey's model,
and it cannot represent the states a real power failure can produce:
stores sitting in CPU caches (or DMA transfers still in flight) may
land in *any subset*, constrained only by the flush/fence points the
code actually executed.  This module records exactly that missing
information.

A line-recording image journals, alongside every mutation, a stream of

* :class:`LineStore` records -- one logical durable store, decomposed
  into 64-byte cache lines (``nlines``), tagged with the *mechanism*
  that issued it (log append, tail commit, journal record, SN slot,
  page data, ...), and
* :class:`FenceRec` records -- the explicit ordering points: a global
  ``sfence`` after a ``clwb`` train (scope ``None``), or a DMA
  completion fence that covers one channel's descriptors up to an SN
  (scope ``(channel_id, sn)``).

Durability semantics (the in-flight-store analysis consumed by
:class:`~repro.crash.plans.CrashPlanner`):

* a CPU store (``dep is None``) is guaranteed durable once a later
  *global* fence was issued; until then it is **in flight** and a crash
  may drop any subset of its cache lines;
* a DMA page store (``dep = (channel, sn)``) is announced when the
  descriptor is submitted and is guaranteed durable only once a
  completion fence for that channel covers its SN -- a global sfence
  does *not* flush a DMA engine's in-flight data.  Announced stores of
  descriptors that failed or were stranded are *cancelled*: their data
  never moved, at any crash point;
* completion-buffer stores are issued by the DMA engine inside the
  ADR/eADR power-fail domain: durable the instant they are issued
  (``immediate``), never part of a crash plan -- this is the hardware
  property EasyIO's recovery rule (§4.2) relies on;
* allocation counters are volatile-in-NOVA bookkeeping journalled only
  so replayed images can keep allocating; they are applied at every
  crash point (``bookkeeping``).

Replaying a :class:`~repro.crash.plans.CrashPlan` (a point in the
stream plus a chosen subset of the in-flight stores, some of them
partially applied) produces a fresh :class:`PMImage` -- the post-crash
state handed to recovery.  Partially applied multi-line log/journal
records become :class:`~repro.fs.structures.TornEntry` /
:class:`~repro.fs.structures.TornRecord` sentinels.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro import vector
from repro.fs.pmimage import PMImage
from repro.fs.structures import TornEntry, TornRecord

#: Persist granularity: one CPU cache line.
CACHE_LINE = 64

# -- the mechanism catalog ---------------------------------------------
#: mechanism -> behaviour class.
#:
#: * ``atomic``      -- an 8-byte-atomic slot: all-or-nothing;
#: * ``record``      -- a multi-line metadata record (log/journal
#:                      entry): droppable or *torn* (a line prefix);
#: * ``data``        -- bulk page data: any subset of lines may land;
#: * ``immediate``   -- durable at issue (ADR domain): never in flight;
#: * ``bookkeeping`` -- modeling-only counters: applied at every point.
#:
#: To add a mechanism: emit its stores through a LineStream helper with
#: a new name, register the class here, give it an apply rule in
#: ``_apply_store``/``_apply_partial``, and (if recovery must react to
#: its torn/dropped shapes) extend the mechanism checks in
#: ``crashmonkey._mechanism_checks``.  DESIGN.md §13 walks through it.
MECHANISMS: Dict[str, str] = {
    "page-data": "data",
    "log-append": "record",
    "log-commit": "atomic",
    "inode": "atomic",
    "inode-drop": "atomic",
    "journal-entry": "record",
    "journal-retire": "atomic",
    "completion-buffer": "immediate",
    "error-log": "atomic",
    "SN-slot": "atomic",
    "alloc-ino": "bookkeeping",
    "alloc-page": "bookkeeping",
}


class LineStore:
    """One logical durable store, decomposed into 64B cache lines.

    ``seq`` is the record's index in the stream; ``obj`` the applied
    object's key (e.g. ``("page", pid)``); ``payload`` whatever the
    apply rule needs; ``dep`` the ``(channel, sn)`` a DMA-written store
    waits on (None for CPU stores).
    """

    __slots__ = ("seq", "mech", "klass", "obj", "nlines", "payload", "dep")

    def __init__(self, seq: int, mech: str, obj: Tuple, payload: Any,
                 nlines: int = 1, dep: Optional[Tuple[int, int]] = None):
        self.seq = seq
        self.mech = mech
        self.klass = MECHANISMS[mech]
        self.obj = obj
        self.nlines = nlines
        self.payload = payload
        self.dep = dep

    @property
    def immediate(self) -> bool:
        """Durable the instant it is issued (never part of a plan)."""
        return self.klass in ("immediate", "bookkeeping")

    def line_slices(self) -> List[Tuple[int, bytes]]:
        """The store's exact 64B tiling: ``[(line_idx, bytes), ...]``.

        Only meaningful for ``data`` stores (their payload is the raw
        byte content); the slices partition the payload, every slice
        except possibly the last is exactly :data:`CACHE_LINE` bytes.
        """
        data = self.payload
        return [(i, data[i * CACHE_LINE:(i + 1) * CACHE_LINE])
                for i in range(self.nlines)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dep = f" dep={self.dep}" if self.dep else ""
        return (f"<store#{self.seq} {self.mech} {self.obj} "
                f"x{self.nlines}{dep}>")


class FenceRec:
    """An ordering point: global sfence, or a DMA completion fence.

    ``scope=None`` orders every CPU store issued so far (clwb+sfence);
    ``scope=(channel, sn)`` marks that the channel's descriptors up to
    ``sn`` have fully landed (the hardware's completion ordering: data
    is in the PM power-fail domain before the completion is raised).
    """

    __slots__ = ("seq", "label", "scope")

    def __init__(self, seq: int, label: str,
                 scope: Optional[Tuple[int, int]] = None):
        self.seq = seq
        self.label = label
        self.scope = scope

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = f" {self.scope}" if self.scope else ""
        return f"<fence#{self.seq} {self.label}{scope}>"


def _entry_lines(entry: Any) -> int:
    """Cache lines a log/journal record spans.

    NOVA entries are one or two cache lines: the fixed fields fit in
    one, variable parts (a dentry's name bytes, a write entry's page-id
    array) spill into a second.  What matters for the crash model is
    only whether the record *can* tear (nlines > 1).
    """
    page_ids = getattr(entry, "page_ids", None)
    if page_ids is not None:
        return 1 + max(1, (len(page_ids) * 8 + CACHE_LINE - 1) // CACHE_LINE)
    name = getattr(entry, "name", None)
    if name is not None:
        return 1 + max(1, (len(name) + CACHE_LINE - 1) // CACHE_LINE)
    return 1


class LineStream:
    """The cache-line persistence journal of one recording image.

    Emission helpers are called from the image's mutation methods (and
    from the DMA backend at descriptor submission); each encodes the
    store+fence policy of its mechanism, so the stream is a faithful
    flush/fence trace of the protocol the filesystem actually ran.
    """

    def __init__(self):
        self.records: List[Any] = []              # LineStore | FenceRec
        #: Columnar durability index (numpy kernels), rebuilt lazily when
        #: the stream has grown since it was last derived.
        self._vec_index: Optional["_StreamIndex"] = None
        #: Per-op [start, end) stream positions, appended by the crash
        #: harness runner (ack boundaries for the legality range).
        self.op_bounds: List[Tuple[int, int]] = []
        #: Seqs of announced DMA stores whose descriptor failed or was
        #: stranded: their data never moved, at any crash point.
        self.cancelled: Set[int] = set()
        #: Test-only mutant knob: fence labels to silently drop (see
        #: repro.core.easyio.install_crash_mutant).
        self.skipped_fences: Set[str] = set()
        self.fences_skipped = 0
        #: Optional tracer: every fence also emits a ``line_fence``
        #: trace point, so the stream can be cross-checked against the
        #: write_commit/pages_persist events of the same run.
        self.tracer = None
        self._announced: Dict[int, int] = {}      # pid -> announced seq
        self._by_dep: Dict[Tuple[int, int], List[int]] = {}
        self._cpu_pages_dirty = False

    def position(self) -> int:
        """Current stream position (= seq of the next record)."""
        return len(self.records)

    # -- raw emission --------------------------------------------------
    def store(self, mech: str, obj: Tuple, payload: Any, nlines: int = 1,
              dep: Optional[Tuple[int, int]] = None) -> LineStore:
        rec = LineStore(len(self.records), mech, obj, payload,
                        nlines=nlines, dep=dep)
        self.records.append(rec)
        return rec

    def fence(self, label: str,
              scope: Optional[Tuple[int, int]] = None) -> Optional[FenceRec]:
        if label in self.skipped_fences:
            self.fences_skipped += 1
            return None
        rec = FenceRec(len(self.records), label, scope)
        self.records.append(rec)
        if self.tracer is not None:
            self.tracer.point("line_fence", track="pm", label=label)
        return rec

    # -- mechanism helpers (called by PMImage / the DMA backend) -------
    def announce_dma_pages(self, channel_id: int, sn: int,
                           pids: Iterable[int],
                           contents: Iterable[bytes]) -> None:
        """A submitted write descriptor's pages: in flight from now,
        durable only once a completion fence covers ``sn``."""
        for pid, content in zip(pids, contents):
            rec = self.store("page-data", ("page", pid), content,
                             nlines=_page_lines(content),
                             dep=(channel_id, sn))
            self._announced[pid] = rec.seq
            self._by_dep.setdefault((channel_id, sn), []).append(rec.seq)

    def cancel_sns(self, channel_id: int, sns: Iterable[int]) -> None:
        """Failed/stranded descriptors: their announced data never
        moved -- at any crash point, not just from the failure on
        (a failed transfer lands nothing)."""
        for sn in sns:
            for seq in self._by_dep.pop((channel_id, sn), ()):
                self.cancelled.add(seq)

    def page_write(self, pid: int, data: Any) -> None:
        """A page landed via :meth:`PMImage.write_page`.

        DMA completions re-land pages that were already announced at
        submission: those are deduplicated against the announced store
        (same pid, same content, not cancelled).  Everything else is a
        CPU store train (memcpy path, degradation, media rewrite),
        fenced by the persister's :meth:`pages_fence`.
        """
        seq = self._announced.get(pid)
        if seq is not None:
            rec = self.records[seq]
            if rec.payload == data and seq not in self.cancelled:
                del self._announced[pid]
                return
            del self._announced[pid]
        self.store("page-data", ("page", pid), data,
                   nlines=_page_lines(data))
        self._cpu_pages_dirty = True

    def pages_fence(self) -> None:
        """clwb+sfence after a CPU page-store train (no-op if the
        persist batch landed purely via deduplicated DMA stores)."""
        if self._cpu_pages_dirty:
            self._cpu_pages_dirty = False
            self.fence("pages")

    def log_append(self, ino: int, entry: Any) -> None:
        self.store("log-append", ("log", ino), (ino, entry),
                   nlines=_entry_lines(entry))
        self.fence(f"append:{type(entry).__name__}")

    def log_commit(self, ino: int, tail: int) -> None:
        self.store("log-commit", ("tail", ino), (ino, tail))
        self.fence("commit")

    def inode_put(self, ino: int, inode: Any) -> None:
        self.store("inode", ("inode", ino), (ino, inode))
        self.fence("inode")

    def inode_drop(self, ino: int) -> None:
        self.store("inode-drop", ("inode", ino), ino)
        self.fence("inode")

    def journal_begin(self, txn: Any) -> None:
        self.store("journal-entry", ("journal",), txn, nlines=2)
        self.fence("journal")

    def journal_retire(self) -> None:
        self.store("journal-retire", ("journal",), None)
        self.fence("journal-retire")

    def completion_update(self, channel_id: int, sn: int) -> None:
        # The completion fence *precedes* the buffer store: by the time
        # the completion value is observable, the covered data is in
        # the power-fail domain.  The store itself is in the ADR domain
        # (immediate): EasyIO's recovery rule is sound only because a
        # persisted completion value can never run ahead of its data.
        self.fence(f"dma-ch{channel_id}", scope=(channel_id, sn))
        self.store("completion-buffer", ("cbuf", channel_id),
                   (channel_id, sn))

    def error_log(self, channel_id: int, sns: Tuple[int, ...]) -> None:
        self.cancel_sns(channel_id, sns)
        self.store("error-log", ("errlog", channel_id), (channel_id, sns))
        self.fence("error")

    def sn_amend(self, ino: int, index: int,
                 sns: Tuple[Tuple[int, int], ...]) -> None:
        self.store("SN-slot", ("amend", ino, index), (ino, index, sns))
        self.fence("amend")

    def alloc_ino(self, ino: int) -> None:
        self.store("alloc-ino", ("alloc-ino",), ino)

    def alloc_pages(self, next_page: int) -> None:
        self.store("alloc-page", ("alloc-page",), next_page)


def _page_lines(data: Any) -> int:
    return max(1, (len(data) + CACHE_LINE - 1) // CACHE_LINE)


# ----------------------------------------------------------------------
# Durability analysis
# ----------------------------------------------------------------------
class _StreamIndex:
    """Columnar durability view of one stream prefix (numpy kernels).

    ``covered_at[i]`` is the seq of the *first* fence that guarantees
    store ``i`` durable (its own seq for immediate/bookkeeping stores,
    ``n`` if no fence in the stream ever covers it); fences and other
    non-store positions keep the ``n`` sentinel with ``store_mask``
    False.  Cancellation is *not* baked in -- whether a store is
    covered by a fence is independent of which other stores were
    cancelled, so the cancelled mask is applied at query time and the
    index stays valid as ``cancel_sns`` arrives.  Built in one O(n)
    pass; every ``base_durable``/``replay_plan`` query after that is a
    slice-and-compare over the columns.
    """

    __slots__ = ("n", "store_mask", "covered_at", "page_pid")

    def __init__(self, records: List[Any]):
        np = vector.numpy()
        n = len(records)
        self.n = n
        self.store_mask = np.zeros(n, dtype=bool)
        self.covered_at = np.full(n, n, dtype=np.int64)
        #: Page id for full page-data stores (-1 elsewhere), for the
        #: last-writer-wins replay dedup.
        self.page_pid = np.full(n, -1, dtype=np.int64)
        pending_cpu: List[int] = []
        pending_dma: Dict[int, List[Tuple[int, int]]] = {}
        for i, rec in enumerate(records):
            if isinstance(rec, LineStore):
                self.store_mask[i] = True
                if rec.mech == "page-data":
                    self.page_pid[i] = rec.obj[1]
                if rec.immediate:
                    self.covered_at[i] = i
                elif rec.dep is None:
                    pending_cpu.append(i)
                else:
                    ch, sn = rec.dep
                    pending_dma.setdefault(ch, []).append((sn, i))
            elif rec.scope is None:
                for seq in pending_cpu:
                    self.covered_at[seq] = i
                pending_cpu.clear()
            else:
                ch, covered = rec.scope
                keep = []
                for sn, seq in pending_dma.get(ch, ()):
                    if sn <= covered:
                        self.covered_at[seq] = i
                    else:
                        keep.append((sn, seq))
                if ch in pending_dma:
                    pending_dma[ch] = keep


def _stream_index(stream: LineStream) -> _StreamIndex:
    idx = stream._vec_index
    if idx is None or idx.n != len(stream.records):
        idx = _StreamIndex(stream.records)
        stream._vec_index = idx
    return idx


def _durable_mask(stream: LineStream, point: int):
    """Bool column over ``records[:point]``: guaranteed-durable stores."""
    np = vector.numpy()
    idx = _stream_index(stream)
    mask = idx.store_mask[:point] & (idx.covered_at[:point] < point)
    if stream.cancelled:
        dead = [s for s in stream.cancelled if s < point]
        if dead:
            mask[np.asarray(dead, dtype=np.int64)] = False
    return mask


def _base_durable_ref(stream: LineStream, point: int) -> Set[int]:
    durable: Set[int] = set()
    pending_cpu: List[int] = []
    pending_dma: Dict[int, List[Tuple[int, int]]] = {}
    cancelled = stream.cancelled
    for rec in stream.records[:point]:
        if isinstance(rec, LineStore):
            if rec.seq in cancelled:
                continue
            if rec.immediate:
                durable.add(rec.seq)
            elif rec.dep is None:
                pending_cpu.append(rec.seq)
            else:
                ch, sn = rec.dep
                pending_dma.setdefault(ch, []).append((sn, rec.seq))
        else:
            if rec.scope is None:
                durable.update(pending_cpu)
                pending_cpu.clear()
            else:
                ch, covered = rec.scope
                keep = []
                for sn, seq in pending_dma.get(ch, ()):
                    if sn <= covered:
                        durable.add(seq)
                    else:
                        keep.append((sn, seq))
                if keep or ch in pending_dma:
                    pending_dma[ch] = keep
    return durable


def _base_durable_np(stream: LineStream, point: int) -> Set[int]:
    np = vector.numpy()
    return set(np.nonzero(_durable_mask(stream, point))[0].tolist())


def base_durable(stream: LineStream, point: int) -> Set[int]:
    """Seqs of stores *guaranteed* durable at stream position ``point``.

    CPU stores need a later global fence; DMA stores need a completion
    fence covering their SN; immediate/bookkeeping stores are durable
    at issue; cancelled stores are never durable.
    """
    return _base_durable_kernel(stream, point)


def _in_flight_ref(stream: LineStream, point: int) -> List[LineStore]:
    durable = _base_durable_ref(stream, point)
    cancelled = stream.cancelled
    return [rec for rec in stream.records[:point]
            if isinstance(rec, LineStore)
            and rec.seq not in durable and rec.seq not in cancelled
            and not rec.immediate]


def _in_flight_np(stream: LineStream, point: int) -> List[LineStore]:
    # Immediate stores carry covered_at == own seq (< point), so the
    # not-yet-covered test excludes them along with the durable ones.
    np = vector.numpy()
    idx = _stream_index(stream)
    mask = idx.store_mask[:point] & (idx.covered_at[:point] >= point)
    if stream.cancelled:
        dead = [s for s in stream.cancelled if s < point]
        if dead:
            mask[np.asarray(dead, dtype=np.int64)] = False
    records = stream.records
    return [records[i] for i in np.nonzero(mask)[0].tolist()]


def in_flight(stream: LineStream, point: int) -> List[LineStore]:
    """The stores a crash at ``point`` may drop (or partially apply),
    in issue order."""
    return _in_flight_kernel(stream, point)


# ----------------------------------------------------------------------
# Plan replay: stream -> post-crash PMImage
# ----------------------------------------------------------------------
def _replay_plan_ref(stream: LineStream, plan) -> PMImage:
    img = PMImage(record=False)
    apply_full = _base_durable_ref(stream, plan.point) | set(plan.applied)
    partials = dict(plan.partials)
    for rec in stream.records[:plan.point]:
        if not isinstance(rec, LineStore):
            continue
        lines = partials.get(rec.seq)
        if lines is not None:
            _apply_partial(img, rec, lines)
        elif rec.seq in apply_full:
            _apply_store(img, rec)
    return img


def _replay_plan_np(stream: LineStream, plan) -> PMImage:
    """Columnar replay: identical image, touching only relevant records.

    The visit set (durable ∪ plan.applied ∪ partial seqs) comes from
    array compares over the cached index instead of re-walking fences
    per plan; full page-data applies are deduplicated last-writer-wins
    per page (a full apply is a plain assignment, so only the final one
    is observable) -- except for pages also targeted by a partial,
    whose merge-over-current-content semantics depend on every earlier
    apply.  Records are applied in ascending seq order, so every
    mechanism's effect sequence matches the reference walk exactly.
    """
    np = vector.numpy()
    img = PMImage(record=False)
    point = plan.point
    idx = _stream_index(stream)
    visit = _durable_mask(stream, point)
    if plan.applied:
        chosen = np.fromiter(plan.applied, dtype=np.int64,
                             count=len(plan.applied))
        visit[chosen[chosen < point]] = True
    partials = dict(plan.partials)
    if partials:
        torn = np.fromiter(partials.keys(), dtype=np.int64,
                           count=len(partials))
        visit[torn[torn < point]] = True
    order = np.nonzero(visit)[0]
    records = stream.records
    skip: Set[int] = set()
    page_pos = order[idx.page_pid[order] >= 0]
    if len(page_pos) > 1:
        partial_pids = {int(idx.page_pid[s]) for s in partials
                        if 0 <= s < point and idx.page_pid[s] >= 0}
        last_full: Dict[int, int] = {}
        for i, pid in zip(page_pos.tolist(),
                          idx.page_pid[page_pos].tolist()):
            if i in partials or pid in partial_pids:
                continue
            prev = last_full.get(pid)
            if prev is not None:
                skip.add(prev)
            last_full[pid] = i
    for i in order.tolist():
        if i in skip:
            continue
        rec = records[i]
        lines = partials.get(i)
        if lines is not None:
            _apply_partial(img, rec, lines)
        else:
            _apply_store(img, rec)
    return img


def replay_plan(stream: LineStream, plan) -> PMImage:
    """Materialise one crash plan into a fresh (non-recording) image.

    Applies, in stream order: every store guaranteed durable at the
    plan's point, plus the plan's chosen in-flight subset (fully or as
    a partial line set).
    """
    return _replay_plan_kernel(stream, plan)


#: The numpy kernels when numpy imports, the references otherwise.
if vector.HAVE_NUMPY:
    _base_durable_kernel = _base_durable_np
    _in_flight_kernel = _in_flight_np
    _replay_plan_kernel = _replay_plan_np
else:  # pragma: no cover - exercised by the no-numpy CI leg
    _base_durable_kernel = _base_durable_ref
    _in_flight_kernel = _in_flight_ref
    _replay_plan_kernel = _replay_plan_ref


def replay_full(stream: LineStream) -> PMImage:
    """End-of-stream, everything-landed replay (the no-crash image).

    Must equal ``image.replay(len(image.mutations))`` -- the
    equivalence invariant tying the line model to the mutation journal
    (tests/test_linestream.py pins it).
    """
    from types import SimpleNamespace
    end = stream.position()
    return replay_plan(stream, SimpleNamespace(
        point=end,
        applied=frozenset(s.seq for s in in_flight(stream, end)),
        partials={}))


def _apply_store(img: PMImage, rec: LineStore) -> None:
    mech, payload = rec.mech, rec.payload
    if mech == "page-data":
        img.pages[rec.obj[1]] = payload
    elif mech == "log-append":
        ino, entry = payload
        img.logs.setdefault(ino, []).append(entry)
    elif mech == "log-commit":
        ino, tail = payload
        img.log_tails[ino] = tail
    elif mech == "inode":
        ino, inode = payload
        img.inodes[ino] = inode
    elif mech == "inode-drop":
        img.inodes.pop(payload, None)
        img.logs.pop(payload, None)
        img.log_tails.pop(payload, None)
    elif mech == "journal-entry":
        img.journal.append(payload)
    elif mech == "journal-retire":
        if img.journal:
            img.journal.pop()
    elif mech == "completion-buffer":
        ch, sn = payload
        img.completion_buffers[ch] = sn
    elif mech == "error-log":
        ch, sns = payload
        img.channel_error_sns.setdefault(ch, set()).update(sns)
    elif mech == "SN-slot":
        ino, index, sns = payload
        log = img.logs.get(ino, ())
        if index < len(log):
            from dataclasses import replace
            log[index] = replace(log[index], sns=tuple(sns))
    elif mech == "alloc-ino":
        img.next_ino = max(img.next_ino, payload + 1)
    elif mech == "alloc-page":
        img.next_page = max(img.next_page, payload)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown mechanism {rec.mech!r}")


def _apply_partial(img: PMImage, rec: LineStore,
                   lines: Tuple[int, ...]) -> None:
    """Apply only ``lines`` of a multi-line store.

    ``data`` stores merge the chosen 64B slices over whatever the page
    currently holds (zeros if nothing); ``record`` stores become torn
    sentinels in place of the real entry.
    """
    if rec.klass == "data":
        pid = rec.obj[1]
        payload = rec.payload
        base = img.pages.get(pid)
        if not isinstance(base, (bytes, bytearray)) \
                or len(base) != len(payload):
            base = b"\x00" * len(payload)
        out = bytearray(base)
        for i in lines:
            out[i * CACHE_LINE:(i + 1) * CACHE_LINE] = \
                payload[i * CACHE_LINE:(i + 1) * CACHE_LINE]
        img.pages[pid] = bytes(out)
    elif rec.mech == "log-append":
        ino, entry = rec.payload
        img.logs.setdefault(ino, []).append(
            TornEntry(of=type(entry).__name__, lines=len(lines),
                      total=rec.nlines))
    elif rec.mech == "journal-entry":
        img.journal.append(
            TornRecord(of=type(rec.payload).__name__, lines=len(lines),
                       total=rec.nlines))
    else:  # pragma: no cover - planner only tears data/record stores
        raise ValueError(f"mechanism {rec.mech!r} cannot tear")
