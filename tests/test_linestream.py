"""The cache-line persistence journal (repro.crash.linestream).

Pins the model-level invariants of the line stream:

* exact 64B tiling of data stores (a multi-page orderless write
  decomposes into per-page line stores whose slices partition the
  payload);
* fence epochs correspond to the trace events of the same run (every
  commit fence has its ``write_commit``, every pages fence its
  ``pages_persist``);
* the everything-landed replay equals the mutation-journal replay
  (the equivalence tying the line model to the page model);
* the recording guards (record=True, before-first-mutation);
* the one durability rule: ``covered_at`` and the query kernels built
  on it agree with a from-scratch walk of the stream, and the planner
  over seeded synthetic streams is pinned by digest.
"""

import hashlib
import os
import random
import subprocess
import sys
from types import SimpleNamespace
from typing import Dict, List, Set, Tuple

import pytest

from repro.crash.crashmonkey import CRASH_WORKLOADS, _record_workload
from repro.crash.linestream import (
    CACHE_LINE,
    NEVER,
    FenceRec,
    LineStream,
    LineStore,
    _apply_partial,
    _apply_store,
    base_durable,
    in_flight,
    replay_full,
    replay_plan,
)
from repro.crash.plans import CrashPlanner
from repro.faults import ChannelHaltFault, FaultPlan
from repro.fs.pmimage import PMImage


def _line_stores(stream, mech):
    return [r for r in stream.records
            if isinstance(r, LineStore) and r.mech == mech]


def _fences(stream, label):
    return [r for r in stream.records
            if isinstance(r, FenceRec) and r.label == label]


def _record(kind, workload="generic_056", iterations=4, **kw):
    desc, driver, _ = CRASH_WORKLOADS[workload]
    return _record_workload(kind, driver, iterations, lines=True, **kw)


class TestTiling:
    def test_multi_page_write_tiles_exactly(self):
        """A 12288B (3-page) write decomposes into three page-data
        stores of exactly 64 cache lines each, slices partitioning
        the payload."""
        image, _ = _record("easyio", "create_delete", iterations=2)
        stream = image.linestream
        stores = _line_stores(stream, "page-data")
        assert stores, "workload wrote no page data"
        # Page stores are per 4096B page: some op window (a 12288B
        # write) must contain at least three of them, 64 lines each.
        counts = [sum(1 for r in stream.records[s:e]
                      if isinstance(r, LineStore) and r.mech == "page-data")
                  for s, e in stream.op_bounds]
        assert max(counts) >= 3
        for s in stores:
            assert s.nlines == (len(s.payload) + CACHE_LINE - 1) // CACHE_LINE
            slices = s.line_slices()
            assert [i for i, _b in slices] == list(range(s.nlines))
            assert b"".join(b for _i, b in slices) == s.payload
            for i, b in slices[:-1]:
                assert len(b) == CACHE_LINE

    def test_page_stores_are_64_lines_per_4k_page(self):
        image, _ = _record("nova", "generic_056", iterations=3)
        per_page = [s for s in _line_stores(image.linestream, "page-data")
                    if len(s.payload) == 4096]
        assert per_page
        assert all(s.nlines == 64 for s in per_page)

    def test_op_bounds_cover_stream(self):
        image, oracle = _record("easyio", "generic_056", iterations=4)
        stream = image.linestream
        bounds = stream.op_bounds
        assert len(bounds) == len(oracle)
        assert all(s <= e for s, e in bounds)
        # Ends are non-decreasing and within the stream.
        ends = [e for _s, e in bounds]
        assert ends == sorted(ends)
        assert ends[-1] <= stream.position()


class TestFenceTraceCorrespondence:
    def test_easyio_commit_fences_match_write_commit_events(self):
        image, _ = _record("easyio", "generic_056", iterations=4,
                           trace_oracles=True)
        events = image.linestream.tracer.events
        commits = [ev for ev in events if ev.name == "write_commit"]
        commit_fences = _fences(image.linestream, "commit")
        # Every committed write flushed its tail with a commit fence
        # (creates/links commit too, so fences >= write commits).
        assert commits
        assert len(commit_fences) >= len(commits)
        line_fences = [ev for ev in events if ev.name == "line_fence"]
        assert len(line_fences) == sum(
            1 for r in image.linestream.records if isinstance(r, FenceRec))

    def test_nova_pages_fences_match_pages_persist_events(self):
        image, _ = _record("nova", "generic_056", iterations=4,
                           trace_oracles=True)
        events = image.linestream.tracer.events
        persists = [ev for ev in events if ev.name == "pages_persist"
                    and ev.args.get("pids")]
        pages_fences = _fences(image.linestream, "pages")
        # NOVA persists every write synchronously over CPU stores: one
        # pages fence per content-carrying persist batch.
        assert persists
        assert len(pages_fences) == len(persists)


class TestReplayEquivalence:
    @pytest.mark.parametrize("kind", ["nova", "easyio", "naive"])
    def test_replay_full_equals_mutation_replay(self, kind):
        image, _ = _record(kind, "generic_056", iterations=5)
        full = replay_full(image.linestream)
        ref = image.replay(len(image.mutations))
        assert full.pages == ref.pages
        assert full.inodes == ref.inodes
        assert full.logs == ref.logs
        assert full.log_tails == ref.log_tails
        assert full.journal == ref.journal
        assert full.completion_buffers == ref.completion_buffers
        assert full.channel_error_sns == ref.channel_error_sns
        assert (full.next_ino, full.next_page) == (ref.next_ino,
                                                   ref.next_page)

    def test_replay_full_equals_mutation_replay_under_halts(self):
        """Failover (cancelled announcements, re-announced redos,
        degraded CPU trains, SN amends) keeps the two models equal."""
        plan = lambda: FaultPlan(schedule=[ChannelHaltFault(0, 2)])
        image, _ = _record("easyio", "generic_056", iterations=5,
                           fault_plan=plan)
        full = replay_full(image.linestream)
        ref = image.replay(len(image.mutations))
        assert full.pages == ref.pages
        assert full.logs == ref.logs
        assert full.log_tails == ref.log_tails
        assert full.completion_buffers == ref.completion_buffers
        assert full.channel_error_sns == ref.channel_error_sns


class TestGuards:
    def test_line_recording_requires_recording_image(self):
        img = PMImage(record=False)
        with pytest.raises(RuntimeError, match="record=True"):
            img.enable_line_recording()

    def test_line_recording_must_precede_mutations(self):
        img = PMImage(record=True)
        img.put_inode(1, object())
        with pytest.raises(RuntimeError, match="precede"):
            img.enable_line_recording()

    def test_media_fault_plans_refused(self):
        from repro.crash.crashmonkey import run_crash_test
        from repro.faults import MediaFault
        plan = lambda: FaultPlan(schedule=[MediaFault(1)])
        with pytest.raises(ValueError, match="media"):
            run_crash_test("easyio", "generic_056", granularity="line",
                           fault_plan=plan)

    def test_skipped_fence_knob_counts(self):
        stream = LineStream()
        stream.skipped_fences.add("commit")
        stream.log_commit(1, 1)
        assert stream.fences_skipped == 1
        assert not _fences(stream, "commit")

    def test_crash_and_fuzz_paths_never_import_numpy(self):
        """The library is pure stdlib: a fresh interpreter that imports
        the crash and fuzz packages and runs a line sweep never loads
        numpy, installed or not."""
        import repro
        code = "\n".join([
            "import sys",
            "import repro, repro.crash, repro.fuzz.campaign",
            "from repro.crash import run_crash_test",
            "run_crash_test('easyio', 'generic_056', granularity='line',"
            " per_signature=1)",
            "assert 'numpy' not in sys.modules, 'numpy was imported'",
        ])
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


# ----------------------------------------------------------------------
# The one durability rule, against a from-scratch walk
# ----------------------------------------------------------------------
def _walk_base_durable(stream: LineStream, point: int) -> Set[int]:
    """Reference: re-derive the durable set by walking the fences."""
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


def _walk_in_flight(stream: LineStream, point: int) -> List[LineStore]:
    durable = _walk_base_durable(stream, point)
    cancelled = stream.cancelled
    return [rec for rec in stream.records[:point]
            if isinstance(rec, LineStore)
            and rec.seq not in durable and rec.seq not in cancelled
            and not rec.immediate]


def _walk_replay_plan(stream: LineStream, plan) -> PMImage:
    img = PMImage(record=False)
    apply_full = _walk_base_durable(stream, plan.point) | set(plan.applied)
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


def _synth_stream(rng: random.Random) -> LineStream:
    """A randomized but well-formed line stream: CPU trains, DMA
    announcements with completions/cancellations, records, atomics,
    bookkeeping -- the shapes the real emitters produce."""
    stream = LineStream()
    sn = {0: 0, 1: 0}
    outstanding = []            # (ch, sn) announced, not yet resolved
    pid = 0
    n_ops = rng.randint(0, 40)
    start = 0
    for op in range(n_ops):
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(8)
            if kind == 0:                      # CPU page train + fence
                for _ in range(rng.randint(1, 3)):
                    pid += 1
                    stream.page_write(
                        pid, bytes([rng.randrange(256)]) * rng.choice(
                            [1, 64, 200, 4096]))
                stream.pages_fence()
            elif kind == 1:                    # log append (record)
                stream.store("log-append", ("log", op),
                             (op, f"entry-{op}-{pid}"),
                             nlines=rng.randint(1, 4))
                if rng.random() < 0.8:
                    stream.fence("append:str")
            elif kind == 2:                    # atomic tail commit
                stream.log_commit(op, rng.randrange(1000))
            elif kind == 3:                    # DMA announcement
                ch = rng.randrange(2)
                sn[ch] += 1
                pids = [pid + 1 + i for i in range(rng.randint(1, 3))]
                pid = pids[-1]
                stream.announce_dma_pages(
                    ch, sn[ch], pids,
                    [bytes([p & 0xFF]) * 4096 for p in pids])
                outstanding.append((ch, sn[ch]))
            elif kind == 4 and outstanding:    # completion fence
                ch, s = outstanding.pop(rng.randrange(len(outstanding)))
                stream.completion_update(ch, s)
            elif kind == 5 and outstanding:    # failed descriptor
                ch, s = outstanding.pop(rng.randrange(len(outstanding)))
                stream.error_log(ch, (s,))
            elif kind == 6:                    # journal txn
                stream.journal_begin(("txn", op))
                if rng.random() < 0.5:
                    stream.journal_retire()
            else:                              # bookkeeping
                stream.alloc_ino(op + 1)
                stream.alloc_pages(pid + 1)
        end = stream.position()
        stream.op_bounds.append((start, end))
        start = end
    return stream


def _img_state(img):
    return (dict(img.pages), {k: list(v) for k, v in img.logs.items()},
            dict(img.log_tails), dict(img.inodes), list(img.journal),
            dict(img.completion_buffers),
            {k: set(v) for k, v in img.channel_error_sns.items()},
            img.next_ino, img.next_page)


def _plan(point, applied=(), partials=()):
    return SimpleNamespace(point=point, applied=frozenset(applied),
                           partials=tuple(partials))


def _shaped_plans(rng: random.Random, point: int, flight: List[LineStore]):
    """The intact, flushed, solo, drop and torn plans at ``point``."""
    seqs = {r.seq for r in flight}
    yield _plan(point)
    yield _plan(point, seqs)
    if flight:
        one = rng.choice(flight)
        yield _plan(point, {one.seq})
        yield _plan(point, seqs - {one.seq})
    multi = [r for r in flight
             if r.nlines > 1 and r.klass in ("data", "record")]
    if multi:
        torn = rng.choice(multi)
        lines = tuple(sorted(rng.sample(range(torn.nlines),
                                        rng.randint(1, torn.nlines - 1))))
        yield _plan(point, seqs - {torn.seq}, ((torn.seq, lines),))


def _assert_matches_walk(stream: LineStream, point: int) -> None:
    assert base_durable(stream, point) \
        == _walk_base_durable(stream, point), point
    assert in_flight(stream, point) == _walk_in_flight(stream, point), point


class TestOneDurabilityRule:
    def test_covered_at_one_entry_per_record(self):
        rng = random.Random(3)
        for _ in range(10):
            stream = _synth_stream(rng)
            assert len(stream.covered_at) == len(stream.records)
            for rec, at in zip(stream.records, stream.covered_at):
                if isinstance(rec, FenceRec):
                    assert at == -1
                elif rec.immediate:
                    assert at == rec.seq
                elif at != NEVER:
                    fence = stream.records[at]
                    assert at > rec.seq and isinstance(fence, FenceRec)
                    assert (fence.scope is None) == (rec.dep is None)

    def test_durability_and_replay_on_seeded_streams(self):
        rng = random.Random(0xBEEF)
        for trial in range(30):
            stream = _synth_stream(rng)
            for point in range(stream.position() + 1):
                _assert_matches_walk(stream, point)
                flight = _walk_in_flight(stream, point)
                for plan in _shaped_plans(rng, point, flight):
                    assert _img_state(replay_plan(stream, plan)) \
                        == _img_state(_walk_replay_plan(stream, plan)), \
                        (trial, point, plan)

    def test_replay_full_equals_walk(self):
        rng = random.Random(7)
        for _ in range(5):
            stream = _synth_stream(rng)
            end = stream.position()
            plan = _plan(end, (s.seq for s in _walk_in_flight(stream, end)))
            assert _img_state(replay_full(stream)) \
                == _img_state(_walk_replay_plan(stream, plan))

    def test_fixed_example(self):
        stream = LineStream()
        stream.page_write(1, b"x" * 64)
        stream.pages_fence()
        stream.page_write(2, b"y" * 64)
        end = stream.position()
        assert stream.covered_at == [1, -1, NEVER]
        assert base_durable(stream, end) == {0}
        assert [r.seq for r in in_flight(stream, end)] == [2]
        assert set(replay_plan(stream, _plan(end, {2})).pages) == {1, 2}
        assert set(replay_plan(stream, _plan(end)).pages) == {1}

    def test_empty_stream(self):
        stream = LineStream()
        assert stream.covered_at == []
        assert base_durable(stream, 0) == set()
        assert in_flight(stream, 0) == []
        img = replay_plan(stream, _plan(0))
        assert not img.pages and not img.logs

    def test_query_then_growth_then_query(self):
        stream = LineStream()
        stream.page_write(1, b"x" * 64)
        stream.pages_fence()
        assert base_durable(stream, stream.position()) == {0}
        stream.page_write(2, b"y" * 64)
        assert [r.seq for r in in_flight(stream, stream.position())] == [2]
        stream.pages_fence()
        for point in range(stream.position() + 1):
            _assert_matches_walk(stream, point)
        assert base_durable(stream, stream.position()) == {0, 2}

    def test_cancel_after_coverage(self):
        # cancel_sns appends no record and may arrive after the
        # completion fence covered the store: coverage stays recorded,
        # cancellation masks it at query time.
        stream = LineStream()
        stream.announce_dma_pages(0, 1, [1], [b"a" * 4096])
        stream.completion_update(0, 1)
        end = stream.position()
        assert base_durable(stream, end) == {0, 2}
        stream.cancel_sns(0, [1])
        assert stream.covered_at[0] == 1
        for point in range(end + 1):
            _assert_matches_walk(stream, point)
        assert base_durable(stream, end) == {2}
        assert 1 not in replay_plan(stream, _plan(end)).pages


# ----------------------------------------------------------------------
# The planner, pinned
# ----------------------------------------------------------------------
#: sha256 of every planner output over the seeded synthetic streams
#: below, recorded before the planner read ``covered_at`` (when it
#: tracked its own pending lists).  Any drift in a plan, a count or a
#: signature moves it.
PLANNER_DIGEST = ("b39ab0c961320271e5a1300f14573e99"
                  "504ca89e7dde3bf2a7bec222bf3be86b")


def _planner_digest() -> str:
    h = hashlib.sha256()
    for trial in range(30):
        stream = _synth_stream(random.Random(trial))
        for per_sig, budget in ((3, None), (None, None), (2, 20)):
            planner = CrashPlanner(stream, per_signature=per_sig,
                                   budget=budget, seed=trial)
            plans = planner.plans()
            h.update(repr((planner.raw_states, planner.positions, [
                (p.point, p.cls, sorted(p.applied), p.partials, p.lo,
                 p.hi, p.signature) for p in plans])).encode())
    return h.hexdigest()


class TestPlannerPin:
    def test_plan_lists_match_pinned_digest(self):
        assert _planner_digest() == PLANNER_DIGEST
