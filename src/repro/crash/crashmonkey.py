"""Black-box crash-consistency testing in the style of CrashMonkey [59].

The paper's Table 2 runs four workloads covering the error-prone
syscalls (create, write, link, rename, delete) and injects 1000 crash
points into each, then checks that recovery lands in a legal state.

Methodology here (equivalent to CrashMonkey's record/replay model):

1. Run the workload on a *recording* PM image; every durable store is
   journalled in persist order.  Ops are serialized, and the oracle
   snapshots the expected logical state after each op, together with
   the op's [first, last] mutation indices.
2. A crash at point *k* is "replay the first *k* mutations into a
   fresh image" -- exactly a power failure between two 8-byte-atomic
   persists.  Recover the filesystem from it (EasyIO recovery validates
   write SNs against the persistent completion buffers).
3. The recovered state (names, sizes, *and file contents*) must equal
   the oracle state after op *i* for some i between "ops fully durable
   by k" and "ops started by k" -- i.e. each op must be atomic and
   ops must become durable in order.

This directly exercises EasyIO's dangerous window: metadata committed
before the DMA'd data landed.  Recovery must discard such entries (the
SN rule), or the content check fails.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.crash import linestream
from repro.fs.nova import ROOT_INO, NovaFS
from repro.fs.pmimage import ELIDED, PMImage, ReplayCursor
from repro.fs.recovery import (TornLogEntryError,
                               completion_buffer_validator, recover)
from repro.fs.structures import (PAGE_SIZE, FileKind, TornRecord,
                                  WriteEntry)
from repro.hw.platform import Platform, PlatformConfig
from repro.obs import TraceChecker, default_tracing
from repro.workloads.factory import make_fs

Snapshot = Dict[str, Tuple]

_ZERO_PAGE = bytes(PAGE_SIZE)


def _digest(key: Tuple[int, Tuple]) -> str:
    """A file's content digest from its :func:`snapshot_with_content`
    memo key ``(size, page contents)``: sha1 of the decimal size, then
    of the file's ``size`` bytes, a hole or a page the image does not
    hold reading as zeros.  The pages are hashed where they lie."""
    size, contents = key
    hasher = hashlib.sha1(str(size).encode())
    last = len(contents) - 1
    for i, data in enumerate(contents):
        if data is None or data is ELIDED:
            data = _ZERO_PAGE
        take = PAGE_SIZE if i < last else size - last * PAGE_SIZE
        hasher.update(data if len(data) <= take
                      else memoryview(data)[:take])
    return hasher.hexdigest()


def snapshot_with_content(fs, digests: Optional[dict] = None) -> Snapshot:
    """{path: ("dir"|"file", size, content-digest)} for the whole tree.

    ``digests`` memoises content digests on the content itself: the key
    is ``(size, page contents)``, one entry per page the size covers
    (``None`` for a hole or a page the image does not hold).  A file's
    digest is a pure function of that key, so one dict may be shared by
    any snapshots of any filesystems -- live or recovered, before or
    after an in-flight DMA lands -- and a hit is always the digest a
    fresh hash would give.
    """
    out: Snapshot = {}
    memo = {} if digests is None else digests
    pages_get = fs.image.pages.get
    mem = fs._mem
    DIR = FileKind.DIR
    #: ino -> its entry, for this walk: hard links name one inode many
    #: times, and its digest is computed once.
    seen: Dict[int, Tuple] = {}

    def walk(ino: int, prefix: str):
        m = mem.get(ino)
        if m is None:
            return
        for name, child_ino in sorted(m.dentries.items()):
            child = mem.get(child_ino)
            if child is None:
                continue
            path = f"{prefix}/{name}"
            if child.kind is DIR:
                out[path] = ("dir", 0, None)
                walk(child_ino, path)
                continue
            entry = seen.get(child_ino)
            if entry is None:
                size = child.size
                key = (size, tuple(map(pages_get, map(
                    child.index.get, range(-(-size // PAGE_SIZE))))))
                digest = memo.get(key)
                if digest is None:
                    digest = memo[key] = _digest(key)
                entry = seen[child_ino] = ("file", size, digest)
            out[path] = entry

    walk(0, "")
    return out


class OracleRecorder:
    """The state oracle of one recording run, kept up to date op by op.

    :meth:`record` appends ``(start, end, snapshot)`` to :attr:`oracle`,
    the snapshot being equal to :func:`snapshot_with_content` of the
    live filesystem at that instant.  Instead of walking the tree it
    copies the previous snapshot and recomputes only what can have
    changed since (DESIGN.md §13 argues why nothing else can):

    * what NovaFS noted in ``fs._oracle_dirty`` while the recorder is
      attached: the dentries it set or removed, with the subtrees
      below them, and the inodes whose index, size or links changed;
    * the files mapping a page the image wrote since the last record:
      the ``write_page`` records of the recording image's mutation
      journal, which include DMA landing after its op was recorded.

    The filesystem must be mounted on a recording image
    (``record=True``).
    """

    def __init__(self, fs, digests: Optional[dict] = None):
        if not fs.image.recording:
            raise ValueError("OracleRecorder needs a recording image")
        self.fs = fs
        self.digests = {} if digests is None else digests
        #: ``(start, end, snapshot after the op)`` per recorded op.
        self.oracle: List[Tuple[int, int, Snapshot]] = []
        self._snap: Snapshot = {}
        #: directory ino -> (its path, its dentries as last recorded).
        self._dirs: Dict[int, Tuple[str, Dict[str, int]]] = {
            ROOT_INO: ("", {})}
        #: file ino -> [entry, page ids its entry read, its paths].
        self._files: Dict[int, list] = {}
        #: page id -> inos of the files whose entry read it.
        self._owners: Dict[int, set] = {}
        self._seen = len(fs.image.mutations)
        # The first record enters the names the root holds already.
        fs._oracle_dirty = {(ROOT_INO, name)
                            for name in fs.minode(ROOT_INO).dentries}

    def record(self, start: int, end: int) -> None:
        """Append the post-op state for the op spanning ``[start, end)``."""
        self.oracle.append((start, end, self._update()))

    def _update(self) -> Snapshot:
        """The snapshot now: the last one, edited where it changed."""
        fs = self.fs
        dirty = fs._oracle_dirty
        fs._oracle_dirty = set()
        mutations = fs.image.mutations
        owners = self._owners
        for i in range(self._seen, len(mutations)):
            rec = mutations[i]
            if rec.op == "write_page":
                files = owners.get(rec.args[0])
                if files:
                    dirty.update(files)
        self._seen = len(mutations)
        if not dirty:
            return self._snap
        # The previous snapshot belongs to the oracle now: edit a copy.
        self._snap = dict(self._snap)
        mem, dirs = fs._mem, self._dirs
        dentries = [key for key in dirty if isinstance(key, tuple)]
        # Removals first, all of them: a name moved between two
        # directories must leave its old path before it is walked in.
        # An inode is dropped only with its last name, so its paths go
        # with the names.
        for ino, name in dentries:
            known = dirs.get(ino)
            if known is None:
                continue
            path, names = known
            old = names.get(name)
            if old is not None and old != _child(mem, ino, name):
                del names[name]
                self._drop(f"{path}/{name}", old)
        for ino, name in dentries:
            known = dirs.get(ino)
            if known is None:
                continue
            path, names = known
            child = _child(mem, ino, name)
            if child is not None and name not in names:
                names[name] = child
                self._add(f"{path}/{name}", child)
        for ino in dirty:
            known = self._files.get(ino)
            if known is None:
                continue
            entry, pids = self._entry(mem[ino])
            if pids != known[1]:
                self._map(ino, known[1], pids)
            if entry != known[0]:
                for path in known[2]:
                    self._snap[path] = entry
            known[0], known[1] = entry, pids
        return self._snap

    def _entry(self, m) -> Tuple[Tuple, Tuple]:
        """A file's snapshot entry, and the page ids it read (None for
        a hole), as :func:`snapshot_with_content` computes it."""
        size = m.size
        pids = tuple(map(m.index.get, range(-(-size // PAGE_SIZE))))
        key = (size, tuple(map(self.fs.image.pages.get, pids)))
        digest = self.digests.get(key)
        if digest is None:
            digest = self.digests[key] = _digest(key)
        return ("file", size, digest), pids

    def _map(self, ino: int, old: Tuple, new: Tuple) -> None:
        """Move ``ino``'s page ownership from page ids ``old`` to
        ``new``."""
        owners = self._owners
        old, new = set(old), set(new)
        for pid in old - new:
            if pid is not None:
                owners[pid].discard(ino)
        for pid in new - old:
            if pid is not None:
                owners.setdefault(pid, set()).add(ino)

    def _add(self, path: str, ino: int) -> None:
        """Enter the live subtree of ``ino`` at ``path``."""
        m = self.fs._mem.get(ino)
        if m is None:
            return
        if m.kind is FileKind.DIR:
            self._snap[path] = ("dir", 0, None)
            names = self._dirs[ino] = (path, dict(m.dentries))
            for name, child in names[1].items():
                self._add(f"{path}/{name}", child)
            return
        known = self._files.get(ino)
        if known is None:
            entry, pids = self._entry(m)
            known = self._files[ino] = [entry, pids, set()]
            self._map(ino, (), pids)
        known[2].add(path)
        self._snap[path] = known[0]

    def _drop(self, path: str, ino: int) -> None:
        """Remove the subtree of ``ino`` at ``path``."""
        self._snap.pop(path, None)
        known = self._dirs.get(ino)
        if known is not None and known[0] == path:
            del self._dirs[ino]
            for name, child in known[1].items():
                self._drop(f"{path}/{name}", child)
            return
        known = self._files.get(ino)
        if known is not None:
            known[2].discard(path)
            if not known[2]:
                self._map(ino, self._files.pop(ino)[1], ())


def _child(mem, ino: int, name: str) -> Optional[int]:
    """The inode directory ``ino`` names ``name`` now, if any."""
    m = mem.get(ino)
    return None if m is None else m.dentries.get(name)


def _settle(fs, result):
    """Wait out an async op and run its deferred commit syscall, if any
    (the Naive ablation commits metadata in a second syscall)."""
    if result.is_async:
        yield result.pending
    continuation = getattr(result, "continuation", None)
    if continuation is not None:
        ctx = fs.context(record=False)
        yield from continuation(ctx)


def _payload(tag: int, nbytes: int) -> bytes:
    """Deterministic, tag-distinguishable file content."""
    unit = (f"{tag:08x}".encode() * ((nbytes // 8) + 1))[:nbytes]
    return unit


# ----------------------------------------------------------------------
# The four Table-2 workloads
# ----------------------------------------------------------------------
def _wl_create_delete(fs, iterations: int):
    """create, write, remove on regular files."""
    for i in range(iterations):
        ctx = fs.context(record=False)
        ino = yield from fs.create(ctx, f"/cd{i}")
        yield ("op",)
        result = yield from fs.write(fs.context(record=False), ino, 0,
                                     12288, _payload(i, 12288))
        yield from _settle(fs, result)
        yield ("op",)
        if i >= 2:
            yield from fs.unlink(fs.context(record=False), f"/cd{i - 2}")
            yield ("op",)


def _wl_generic_056(fs, iterations: int):
    """create, write, link on regular files."""
    for i in range(iterations):
        ino = yield from fs.create(fs.context(record=False), f"/a{i}")
        yield ("op",)
        result = yield from fs.write(fs.context(record=False), ino, 0,
                                     8192, _payload(i, 8192))
        yield from _settle(fs, result)
        yield ("op",)
        yield from fs.link(fs.context(record=False), f"/a{i}", f"/b{i}")
        yield ("op",)


def _wl_generic_090(fs, iterations: int):
    """write, append, link on regular files."""
    ino = yield from fs.create(fs.context(record=False), "/g090")
    yield ("op",)
    for i in range(iterations):
        result = yield from fs.write(fs.context(record=False), ino,
                                     0, 8192, _payload(i, 8192))
        yield from _settle(fs, result)
        yield ("op",)
        result = yield from fs.append(fs.context(record=False), ino,
                                      4096, _payload(i ^ 0xFF, 4096))
        yield from _settle(fs, result)
        yield ("op",)
        if i % 4 == 0:
            yield from fs.link(fs.context(record=False), "/g090", f"/l{i}")
            yield ("op",)


def _wl_generic_322(fs, iterations: int):
    """create, write, rename on regular files."""
    for i in range(iterations):
        ino = yield from fs.create(fs.context(record=False), f"/t{i}")
        yield ("op",)
        result = yield from fs.write(fs.context(record=False), ino, 0,
                                     16384, _payload(i, 16384))
        yield from _settle(fs, result)
        yield ("op",)
        yield from fs.rename(fs.context(record=False), f"/t{i}", f"/r{i}")
        yield ("op",)


#: Table 2's workloads: name -> (description, driver, iterations).
CRASH_WORKLOADS: Dict[str, Tuple[str, Callable, int]] = {
    "create_delete": ("create, write, remove on regular files",
                      _wl_create_delete, 90),
    "generic_056": ("create, write, link on regular files",
                    _wl_generic_056, 90),
    "generic_090": ("write, append, link on regular files",
                    _wl_generic_090, 100),
    "generic_322": ("create, write, rename on regular files",
                    _wl_generic_322, 80),
}


class CrashFailure(NamedTuple):
    """One failed crash point: which check tripped, and where.

    Tuple-compatible with the old ``(point, message)`` failures;
    ``check`` names the violated oracle (``ordering`` / ``content`` /
    ``atomicity`` for state legality, ``torn-entry`` / ``torn-journal``
    / ``sn-pages`` / ``no-resurrect`` for the mechanism oracles) and
    ``plan`` the crash-plan class in line-granularity mode, so a
    failure can be replayed from the report alone.
    """

    point: int
    check: str
    detail: str
    plan: Optional[str] = None


@dataclass
class CrashReport:
    """Outcome of one workload's crash sweep."""

    workload: str
    kind: str
    total_crash_points: int
    passed: int
    failures: List[CrashFailure] = field(default_factory=list)
    #: ``"page"`` (mutation-prefix sweep) or ``"line"`` (crash plans).
    granularity: str = "page"
    #: Line mode: the raw 2^lines crash states the plan set stands in
    #: for (how much the mechanism pruning collapsed).
    raw_states: int = 0
    #: Line mode: replayed plans per plan class.
    plan_classes: Dict[str, int] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total_crash_points


def _classify_state_failure(snap: Snapshot,
                            oracle: Sequence[Tuple[int, int, Snapshot]],
                            lo: int, hi: int):
    """Name the way a recovered state is illegal.

    * ``ordering``  -- it *is* a post-op state, just not one in the
      legal [lo, hi] window (an acked op vanished, or a later op became
      durable before an earlier one);
    * ``content``   -- names and sizes match a legal state but file
      contents differ (the dangerous window: metadata without data);
    * ``atomicity`` -- it matches no post-op state at all (a partially
      applied operation leaked through recovery).
    """
    for j in range(len(oracle) + 1):
        cand = {} if j == 0 else oracle[j - 1][2]
        if snap == cand:
            return ("ordering",
                    f"recovered state equals the post-op-{j} state, "
                    f"outside the legal window [{lo}, {hi}]")
    for i in range(lo, hi + 1):
        cand = {} if i == 0 else oracle[i - 1][2]
        if set(cand) == set(snap) \
                and all(cand[p][:2] == snap[p][:2] for p in cand):
            return ("content",
                    f"names/sizes match the post-op-{i} state but file "
                    f"contents differ")
    return ("atomicity",
            f"recovered state matches no oracle state in [{lo}, {hi}] "
            f"(partially applied operation)")


def _check_state(snap: Snapshot,
                 oracle: Sequence[Tuple[int, int, Snapshot]],
                 lo: int, hi: int):
    """None if ``snap`` is a legal post-crash state, else a classified
    ``(check, detail)`` pair."""
    for i in range(lo, hi + 1):
        cand = {} if i == 0 else oracle[i - 1][2]
        if snap == cand:
            return None
    return _classify_state_failure(snap, oracle, lo, hi)


def _mechanism_checks(fs2, img, validator):
    """The mechanism oracles: recovery must have *reacted* to each
    mechanism's torn/reordered shapes, not merely produced some legal
    namespace.  Returns None, or a ``(check, detail)`` failure.

    * ``torn-journal``  -- a torn (checksum-invalid) journal record
      must be retired during recovery, never left in place;
    * ``sn-pages``      -- a surviving page mapping must point at a
      page the image actually holds (an SN slot persisting before its
      pages landed must have invalidated the entry);
    * ``no-resurrect``  -- a surviving mapping's SNs must satisfy the
      completion-buffer rule: an amended SN set can never make data
      valid that the buffers do not cover.  The index holds page ids
      only, so a mapping's SNs are those of the committed
      :class:`~repro.fs.structures.WriteEntry` that mapped its
      ``(pgoff, page_id)`` last.
    """
    for txn in img.journal:
        if isinstance(txn, TornRecord):
            return ("torn-journal",
                    f"recovery left a torn {txn.of} journal record "
                    f"({txn.lines}/{txn.total} lines) unretired")
    pages = img.pages
    for ino, m in fs2._mem.items():
        invalid = (_invalid_mappings(img, ino, validator)
                   if validator is not None and m.index else None)
        for off, pid in m.index.items():
            if pid not in pages:
                return ("sn-pages",
                        f"inode {ino} pgoff {off}: surviving mapping "
                        f"references page {pid} absent from the "
                        f"image (metadata persisted before data)")
            sns = invalid.get((off, pid)) if invalid else None
            if sns:
                return ("no-resurrect",
                        f"inode {ino} pgoff {off}: surviving mapping's "
                        f"SNs {sns} fail the completion-buffer rule")
    return None


def _invalid_mappings(img, ino: int, validator) -> Dict[Tuple[int, int],
                                                        Tuple]:
    """``{(pgoff, page_id): sns}`` for each mapping whose last
    SN-carrying committed write entry in ``ino``'s log fails
    ``validator``.  Validation is per entry; pages are only walked
    once some entry has failed."""
    invalid: Dict[Tuple[int, int], Tuple] = {}
    for entry in img.committed_log(ino):
        if not isinstance(entry, WriteEntry) or not entry.sns:
            continue
        pgoff = entry.pgoff
        keys = zip(range(pgoff, pgoff + len(entry.page_ids)),
                   entry.page_ids)
        if not validator(entry.sns):
            invalid.update(zip(keys, repeat(entry.sns)))
        elif invalid:
            for key in keys:
                invalid.pop(key, None)
    return invalid


def _record_workload(kind: str, driver: Callable, iterations: int,
                     fault_plan: Optional[Callable] = None,
                     trace_oracles: bool = False, *,
                     lines: bool = False, mutant: Optional[str] = None,
                     digests: Optional[dict] = None):
    """Run the workload once, recording mutations and the op oracle.

    ``fault_plan`` is a zero-argument factory returning a fresh
    :class:`~repro.faults.FaultPlan`; when given, the plan is installed
    on the recording platform so crash points land inside the
    retry/failover/degradation windows too.

    With ``trace_oracles`` the recording run is traced (repro.obs) and
    the stream is replayed through the full invariant-oracle set; any
    violation raises before a single crash point is examined -- so
    crash legality is checked against the *execution*, not only the
    recovered image.

    ``lines`` additionally records the cache-line persistence journal
    (``image.linestream``), with per-op stream bounds on
    ``stream.op_bounds``.  ``mutant`` plants a known persistence bug
    (see :data:`repro.core.easyio.CRASH_MUTANTS`) -- mutants require
    line recording, so callers enable it for page sweeps on mutants
    too (the sweep itself still only reads the mutation journal).

    ``digests`` is the content-keyed digest memo the oracle snapshots
    use (see :func:`snapshot_with_content`); the sweep passes the same
    dict on to every recovered state.
    """
    tracers: list = []
    scope = default_tracing(collect=tracers) if trace_oracles \
        else nullcontext()
    stream = None
    with scope:
        platform = Platform(PlatformConfig.single_node())
        if lines:
            image = PMImage(record=True)
            stream = image.enable_line_recording()
            stream.tracer = platform.engine.tracer
            fs = make_fs(kind, platform, image=image)
        else:
            fs = make_fs(kind, platform, record=True)
    image = fs.image
    if fault_plan is not None:
        plan = fault_plan()
        if lines and plan.has_media_faults:
            raise ValueError(
                "line-granularity recording cannot model media faults "
                "(DMA payloads are journalled at submission); use the "
                "page-granularity sweep for media-fault plans")
        plan.install(platform, image=image)
    if mutant is not None:
        from repro.core.easyio import install_crash_mutant
        install_crash_mutant(fs, mutant)
    # oracle[i] = (start_idx, end_idx, snapshot after op i)
    recorder = OracleRecorder(fs, digests)

    def runner():
        start = len(image.mutations)
        sstart = stream.position() if stream is not None else 0
        gen = driver(fs, iterations)
        while True:
            try:
                marker = yield from _drive_until_marker(gen)
            except StopIteration:
                break
            if marker is None:
                break
            end = len(image.mutations)
            recorder.record(start, end)
            start = end
            if stream is not None:
                send = stream.position()
                stream.op_bounds.append((sstart, send))
                sstart = send

    def _drive_until_marker(gen):
        """Advance the workload generator to its next ("op",) marker."""
        while True:
            try:
                item = next(gen)
            except StopIteration:
                return None
            if isinstance(item, tuple) and item and item[0] == "op":
                return item
            # Any other yield is a simulation event: wait for it.
            yield item

    proc = platform.engine.process(runner())
    platform.engine.run()
    if proc.is_alive:
        raise RuntimeError(f"crash workload stalled (deadlock?) on {kind}")
    if not proc.ok:
        raise proc.value
    if trace_oracles:
        checker = TraceChecker()
        problems = [v for tr in tracers for v in checker.check(tr.events)]
        if problems:
            raise AssertionError(
                f"{kind}/{len(problems)} trace-invariant violation(s) "
                "during crash-test recording:\n"
                + "\n".join(f"  {v}" for v in problems))
    return image, recorder.oracle


def run_crash_test(kind: str, workload: str, crash_points: int = 1000,
                   fault_plan: Optional[Callable] = None,
                   trace_oracles: bool = False,
                   granularity: str = "page",
                   per_signature: Optional[int] = 3,
                   plan_budget: Optional[int] = None,
                   plan_seed: int = 0,
                   mutant: Optional[str] = None) -> CrashReport:
    """Inject crashes into one workload and check every recovery
    (the Table 2 experiment).

    ``granularity="page"`` is the classic CrashMonkey sweep: ``crash_
    points`` positions spread over the mutation journal, each replayed
    as a whole-mutation prefix.  ``granularity="line"`` replays the
    :class:`~repro.crash.plans.CrashPlanner`'s mechanism-pruned crash
    plans instead -- cache-line subsets of the in-flight stores at
    every fence epoch -- and additionally runs the mechanism oracles
    (torn journal records retired, no metadata-before-data mappings,
    no SN-amend resurrection) on every recovered state.

    With a ``fault_plan`` factory the recording run also suffers DMA
    faults, so the sweep covers crash points inside EasyIO's retry and
    failover windows (half-retried writes, amended-but-unlanded SNs);
    recovery must still land in a legal state at every point.
    ``trace_oracles`` additionally replays the recording run's trace
    through the invariant oracles (see :func:`_record_workload`).

    ``mutant`` plants a known persistence bug in the recording run
    (validation that the line sweep catches what the page sweep
    cannot); mutants need line recording even for page-granularity
    sweeps.  ``per_signature``/``plan_budget``/``plan_seed`` tune the
    line planner (see :class:`~repro.crash.plans.CrashPlanner`).
    """
    if granularity not in ("page", "line"):
        raise ValueError(f"unknown granularity {granularity!r}")
    desc, driver, iterations = CRASH_WORKLOADS[workload]
    lines = granularity == "line" or mutant is not None
    digests: dict = {}
    image, oracle = _record_workload(kind, driver, iterations, fault_plan,
                                     trace_oracles=trace_oracles,
                                     lines=lines, mutant=mutant,
                                     digests=digests)
    validator_needed = kind in ("easyio", "naive")
    if granularity == "line":
        return _line_sweep(kind, workload, image, oracle, validator_needed,
                           per_signature=per_signature, budget=plan_budget,
                           seed=plan_seed, digests=digests)
    total = image.crash_points()
    if total < 2:
        raise RuntimeError(f"workload {workload} produced no mutations")
    # Spread the requested crash points evenly over the mutation log.
    n = min(crash_points, total + 1)
    points = sorted({round(j * total / (n - 1)) for j in range(n)}) \
        if n > 1 else [total]

    report = CrashReport(workload=workload, kind=kind,
                         total_crash_points=len(points), passed=0)
    judge = _Judge(validator_needed, digests, mechanisms=False)
    cursor = ReplayCursor(image)
    # Ops run one at a time, so both mutation bounds are sorted.
    starts = [s for (s, _e, _sn) in oracle]
    ends = [e for (_s, e, _sn) in oracle]
    for k in points:
        fail, snap = judge(cursor.advance(k), owned=False)
        if fail is None:
            fail = _check_state(snap, oracle, bisect_right(ends, k),
                                bisect_right(starts, k))
        if fail is None:
            report.passed += 1
        else:
            report.failures.append(CrashFailure(k, fail[0], fail[1]))
    return report


def _layout(img: PMImage) -> Tuple[Tuple, Tuple]:
    """``(key, objects)``: what recovery and the oracles read of a
    post-crash image, pages aside.

    The key holds the inodes, each inode's committed log prefix, the
    journal, the completion buffers and the channel error SNs.  Inodes,
    log entries and journal records are immutable and shared by every
    image replayed from one recording, so they enter the key by
    ``id()``: hashing ints is far cheaper than hashing the records.  An
    id names one object only while that object lives; ``objects``
    holds every object the key names, and :class:`_Judge` keeps it
    for as long as it keeps the key.  Uncommitted log entries and the
    allocation counters are left out: no check reads them (DESIGN.md
    §13 argues both, and why pages are keyed apart).
    """
    logs = img.logs
    inodes = tuple(img.inodes.values())
    prefixes = [(ino, logs.get(ino, ())[:tail])
                for ino, tail in img.log_tails.items()]
    journal = tuple(img.journal)
    key = (tuple(img.inodes), tuple(map(id, inodes)),
           tuple([(ino, tuple(map(id, prefix))) for ino, prefix in prefixes]),
           tuple(map(id, journal)), tuple(img.completion_buffers.items()),
           tuple([(ch, frozenset(sns))
                  for ch, sns in img.channel_error_sns.items()]))
    return key, (inodes, prefixes, journal)


class _Judge:
    """Recover each distinct committed state of one sweep once.

    Calling it with a post-crash image returns ``(failure, snapshot)``:
    ``failure`` is a ``(check, detail)`` pair from recovery itself
    (``torn-entry``) or, with ``mechanisms``, from
    :func:`_mechanism_checks`, and ``snapshot`` the recovered
    namespace when there is no failure.  The verdict is memoised on
    the image's :func:`_layout` key plus the content (or absence:
    ``None``) of every page the recovered index maps.  Which pages
    those are depends on the layout alone -- recovery never reads page
    content -- so the first recovery of a layout names them for every
    later image with that layout.  No check reads anything else, so
    equal keys recover to equal verdicts.  State legality depends on
    each crash point's ``lo``/``hi`` and stays with the caller.

    All recoveries share one mount platform: every variant inherits
    mount, the allocator and recovery from NovaFS unchanged (only the
    SN validator differs by kind), and a bare NovaFS schedules nothing
    on the engine.
    """

    def __init__(self, validator_needed: bool, digests: Optional[dict],
                 mechanisms: bool = True):
        self.platform = Platform(PlatformConfig.single_node())
        self.validator_needed = validator_needed
        self.digests = digests
        self.mechanisms = mechanisms
        #: layout key -> (mapped page ids, {their contents: verdict},
        #: the objects the key names by id).
        self._layouts: Dict[Tuple, Tuple] = {}

    def __call__(self, img: PMImage, owned: bool = True) -> Tuple:
        """Judge ``img``; recovery mutates it, so pass ``owned=False``
        for an image the caller still needs (it is forked first)."""
        key, objects = _layout(img)
        known = self._layouts.get(key)
        if known is not None:
            verdict = known[1].get(tuple(map(img.pages.get, known[0])))
            if verdict is not None:
                return verdict
        if not owned:
            img = img.fork()
        verdict, mapped = self._recover(img)
        if known is None:
            known = self._layouts[key] = (mapped, {}, objects)
        known[1][tuple(map(img.pages.get, mapped))] = verdict
        return verdict

    def _recover(self, img: PMImage) -> Tuple[Tuple, Tuple[int, ...]]:
        """The verdict, and the page ids the recovered index maps."""
        fs2 = NovaFS(self.platform, img)
        validator = (completion_buffer_validator(img)
                     if self.validator_needed else None)
        try:
            recover(fs2, validator)
        except TornLogEntryError as exc:
            return (("torn-entry", str(exc)), None), ()
        mapped = tuple(pid for m in fs2._mem.values()
                       for pid in m.index.values())
        fail = (_mechanism_checks(fs2, img, validator)
                if self.mechanisms else None)
        if fail is not None:
            return (fail, None), mapped
        return (None, snapshot_with_content(fs2, self.digests)), mapped


def plan_sweep(stream, oracle, validator_needed: bool, *,
               per_signature: Optional[int], budget: Optional[int],
               seed: int, digests: Optional[dict] = None):
    """Plan, replay, recover and judge one stream's crash plans.

    The one plan-check loop of the line sweep and the fuzzer's crash
    detector.  Every plan is replayed from one
    :class:`~repro.crash.linestream.LineCursor` (plans come sorted by
    point), recovered once per distinct committed state (see
    :class:`_Judge`), and then checked against the state oracle for
    its own ``lo``/``hi`` window.  Returns the planner and one
    ``(plan, failure)`` pair per plan, ``failure`` being None or a
    ``(check, detail)`` pair.
    """
    from repro.crash.plans import CrashPlanner

    planner = CrashPlanner(stream, per_signature=per_signature,
                           budget=budget, seed=seed)
    cursor = linestream.LineCursor(stream)
    judge = _Judge(validator_needed, digests)
    verdicts = []
    for plan in planner.plans():
        fail, snap = judge(linestream.replay_plan(stream, plan, cursor))
        if fail is None:
            fail = _check_state(snap, oracle, plan.lo, plan.hi)
        verdicts.append((plan, fail))
    return planner, verdicts


def _line_sweep(kind: str, workload: str, image, oracle, validator_needed,
                per_signature, budget, seed,
                digests: Optional[dict] = None) -> CrashReport:
    """Replay every pruned crash plan and check recovery against the
    state oracle *and* the mechanism oracles."""
    planner, verdicts = plan_sweep(image.linestream, oracle,
                                   validator_needed,
                                   per_signature=per_signature,
                                   budget=budget, seed=seed, digests=digests)
    report = CrashReport(workload=workload, kind=kind,
                         total_crash_points=len(verdicts), passed=0,
                         granularity="line",
                         raw_states=planner.raw_states,
                         plan_classes=dict(planner.plan_classes))
    for plan, fail in verdicts:
        if fail is None:
            report.passed += 1
        else:
            report.failures.append(
                CrashFailure(plan.point, fail[0], fail[1], plan.cls))
    return report
