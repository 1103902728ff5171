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
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.fs.pmimage import PMImage
from repro.fs.recovery import (TornLogEntryError,
                               completion_buffer_validator, recover)
from repro.fs.structures import FileKind, TornRecord, WriteEntry
from repro.hw.platform import Platform, PlatformConfig
from repro.obs import TraceChecker, default_tracing
from repro.workloads.factory import make_fs

Snapshot = Dict[str, Tuple]


def _content_hash(fs, m) -> str:
    """Digest of a file's logical content (from its page index)."""
    hasher = hashlib.sha1()
    hasher.update(str(m.size).encode())
    data = fs._collect_data(m, 0, m.size)
    hasher.update(data)
    return hasher.hexdigest()


def snapshot_with_content(fs, digest_cache: Optional[dict] = None) -> Snapshot:
    """{path: ("dir"|"file", size, content-digest)} for the whole tree.

    ``digest_cache`` memoises digests as ``{ino: (size, layout_epoch,
    digest)}``.  Within one call a fresh cache always applies (hard
    links resolve to one inode, whose content cannot change mid-walk).
    Passing a persistent dict across snapshots of the *same live fs* is
    sound when (a) inode numbers are never reused (``PMImage.next_ino``
    is monotonic), and (b) every content change bumps the inode's
    ``layout_epoch`` (write commit, truncate, recovery rebuild) -- the
    recording runner relies on this, but must not pass one when media
    faults are in play (they corrupt page bytes without touching the
    mapping).
    """
    out: Snapshot = {}
    cache = {} if digest_cache is None else digest_cache

    def digest(ino: int, m) -> str:
        key = (m.size, m.layout_epoch)
        hit = cache.get(ino)
        if hit is not None and hit[0] == key:
            return hit[1]
        value = _content_hash(fs, m)
        cache[ino] = (key, value)
        return value

    def walk(ino: int, prefix: str):
        m = fs._mem.get(ino)
        if m is None:
            return
        for name, child_ino in sorted(m.dentries.items()):
            child = fs._mem.get(child_ino)
            if child is None:
                continue
            path = f"{prefix}/{name}"
            if child.kind is FileKind.DIR:
                out[path] = ("dir", 0, None)
                walk(child_ino, path)
            else:
                out[path] = ("file", child.size, digest(child_ino, child))

    walk(0, "")
    return out


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
                     lines: bool = False, mutant: Optional[str] = None):
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
    media_faulty = False
    if fault_plan is not None:
        plan = fault_plan()
        if lines and plan.has_media_faults:
            raise ValueError(
                "line-granularity recording cannot model media faults "
                "(DMA payloads are journalled at submission); use the "
                "page-granularity sweep for media-fault plans")
        media_faulty = plan.has_media_faults
        plan.install(platform, image=image)
    if mutant is not None:
        from repro.core.easyio import install_crash_mutant
        install_crash_mutant(fs, mutant)
    # Per-op snapshots of a live, growing tree re-hash mostly unchanged
    # files; the epoch-keyed digest cache collapses those re-hashes.
    # Media faults rewrite page bytes behind the mapping's back, so
    # such plans fall back to per-snapshot caching (see
    # snapshot_with_content's soundness contract).
    digest_cache: Optional[dict] = None if media_faulty else {}
    # oracle[i] = (start_idx, end_idx, snapshot after op i)
    oracle: List[Tuple[int, int, Snapshot]] = []

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
            oracle.append((start, end,
                           snapshot_with_content(fs, digest_cache)))
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
    return image, oracle


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
    image, oracle = _record_workload(kind, driver, iterations, fault_plan,
                                     trace_oracles=trace_oracles,
                                     lines=lines, mutant=mutant)
    validator_needed = kind in ("easyio", "naive")
    if granularity == "line":
        return _line_sweep(kind, workload, image, oracle, validator_needed,
                           per_signature=per_signature, budget=plan_budget,
                           seed=plan_seed)
    total = image.crash_points()
    if total < 2:
        raise RuntimeError(f"workload {workload} produced no mutations")
    # Spread the requested crash points evenly over the mutation log.
    n = min(crash_points, total + 1)
    points = sorted({round(j * total / (n - 1)) for j in range(n)}) \
        if n > 1 else [total]

    report = CrashReport(workload=workload, kind=kind,
                         total_crash_points=len(points), passed=0)
    for k in points:
        img = image.replay(k)
        platform = Platform(PlatformConfig.single_node())
        fs2 = make_fs_on_image(kind, platform, img)
        validator = (completion_buffer_validator(img)
                     if validator_needed else None)
        recover(fs2, validator)
        snap = snapshot_with_content(fs2)
        durable = sum(1 for (_s, e, _sn) in oracle if e <= k)
        started = sum(1 for (s, _e, _sn) in oracle if s <= k)
        fail = _check_state(snap, oracle, durable, started)
        if fail is None:
            report.passed += 1
        else:
            report.failures.append(CrashFailure(k, fail[0], fail[1]))
    return report


def _line_sweep(kind: str, workload: str, image, oracle, validator_needed,
                per_signature, budget, seed) -> CrashReport:
    """Replay every pruned crash plan and check recovery against the
    state oracle *and* the mechanism oracles."""
    from repro.crash.linestream import replay_plan
    from repro.crash.plans import CrashPlanner

    stream = image.linestream
    planner = CrashPlanner(stream, per_signature=per_signature,
                           budget=budget, seed=seed)
    plans = planner.plans()
    report = CrashReport(workload=workload, kind=kind,
                         total_crash_points=len(plans), passed=0,
                         granularity="line",
                         raw_states=planner.raw_states,
                         plan_classes=dict(planner.plan_classes))
    for plan in plans:
        img = replay_plan(stream, plan)
        platform = Platform(PlatformConfig.single_node())
        fs2 = make_fs_on_image(kind, platform, img)
        validator = (completion_buffer_validator(img)
                     if validator_needed else None)
        try:
            recover(fs2, validator)
        except TornLogEntryError as exc:
            report.failures.append(
                CrashFailure(plan.point, "torn-entry", str(exc), plan.cls))
            continue
        fail = _mechanism_checks(fs2, img, validator)
        if fail is None:
            snap = snapshot_with_content(fs2)
            fail = _check_state(snap, oracle, plan.lo, plan.hi)
        if fail is None:
            report.passed += 1
        else:
            report.failures.append(
                CrashFailure(plan.point, fail[0], fail[1], plan.cls))
    return report


def make_fs_on_image(kind: str, platform: Platform, image):
    """Construct (without mounting) the named filesystem over ``image``."""
    from repro.workloads.factory import fs_class

    return fs_class(kind)(platform, image)
