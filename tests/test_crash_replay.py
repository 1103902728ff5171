"""Incremental crash replay and the per-sweep verdict memo.

Pins what the replay cursors and the judge may not change:

* the line cursor (:class:`~repro.crash.linestream.LineCursor`) gives
  every plan of every Table 2 recording the image a stream-order
  replay gives, at ``per_signature`` 3 and ``None``, including a DMA
  page store covered after a newer CPU store to the same page;
* the page cursor (:class:`~repro.fs.pmimage.ReplayCursor`) gives every
  crash point the image a mutation-prefix replay gives;
* forks are independent of their base: recovering one, or advancing
  the cursor past it, changes neither;
* the sweeps return the reports (and the fuzzer the findings) of the
  per-plan loop they replaced: replay from scratch, recover every
  plan, check.  The loop is copied below as the reference.

Every image comparison covers every ``PMImage`` container.
"""

import random
from bisect import bisect_right
from itertools import chain, combinations
from types import SimpleNamespace

import pytest

from repro.core.easyio import CRASH_MUTANTS
from repro.crash import crashmonkey
from repro.crash.crashmonkey import (CRASH_WORKLOADS, CrashFailure,
                                     CrashReport, _check_state, _Judge,
                                     _line_sweep, _mechanism_checks,
                                     _record_workload, run_crash_test,
                                     snapshot_with_content)
from repro.crash.linestream import (LineCursor, LineStore, LineStream,
                                    _apply_partial, _apply_store,
                                    in_flight, replay_plan)
from repro.crash.plans import CrashPlanner
from repro.faults import ChannelHaltFault, FaultPlan
from repro.fs.nova import NovaFS
from repro.fs.pmimage import PMImage, ReplayCursor
from repro.fs.recovery import (TornLogEntryError,
                               completion_buffer_validator, recover)
from repro.fs.structures import (PAGE_SIZE, DentryEntry, FileKind, Inode,
                                 RenameTxn, WriteEntry)
from repro.fuzz import run_scenario
from repro.fuzz import scenario as scenario_mod
from repro.fuzz.corpus import seed_corpus
from repro.fuzz.scenario import Finding
from repro.hw.platform import Platform, PlatformConfig
from tests.test_linestream import _synth_stream

RECORDINGS = [(kind, wl) for wl in CRASH_WORKLOADS
              for kind in ("nova", "easyio")]


def _state(img):
    """Every container of a PMImage, as comparable values."""
    return (dict(img.pages), {k: list(v) for k, v in img.logs.items()},
            dict(img.log_tails), dict(img.inodes), list(img.journal),
            dict(img.completion_buffers),
            {k: set(v) for k, v in img.channel_error_sns.items()},
            img.next_ino, img.next_page)


def _copy(img):
    out = PMImage(record=False)
    (out.pages, out.logs, out.log_tails, out.inodes, out.journal,
     out.completion_buffers, out.channel_error_sns, out.next_ino,
     out.next_page) = _state(img)
    return out


def _record(kind, workload, iterations=None, **kw):
    _desc, driver, full = CRASH_WORKLOADS[workload]
    return _record_workload(kind, driver, iterations or full,
                            lines=True, **kw)


@pytest.fixture(scope="module")
def recordings():
    """The eight Table 2 line recordings, at full length."""
    return {rec: _record(*rec)[0] for rec in RECORDINGS}


# ----------------------------------------------------------------------
# References: stream-order replay
# ----------------------------------------------------------------------
def _walk(stream, plan, img=None, start=0):
    """The per-plan stream-order walk ``replay_plan`` used to be: one
    pass over ``records[start:point]``, landing a store if it is in
    ``plan.partials`` (its lines), guaranteed durable at the point, or
    in ``plan.applied``."""
    img = PMImage(record=False) if img is None else img
    point, applied = plan.point, plan.applied
    partials = dict(plan.partials)
    records, cancelled = stream.records, stream.cancelled
    covered_at = stream.covered_at
    for i in range(start, point):
        at = covered_at[i]
        if i in partials:
            _apply_partial(img, records[i], partials[i])
        elif (i <= at < point and i not in cancelled) or i in applied:
            _apply_store(img, records[i])
    return img


class _SettledWalk:
    """:func:`_walk` for plans in point order, sharing its settled prefix.

    Every store below the oldest in-flight one at point ``p`` is
    durable at ``p`` or cancelled, and stays so at every later point;
    that oldest seq never decreases.  So the walk over that prefix is
    the same for every later plan: it is walked once, in stream order,
    and each plan copies it and walks only the rest.
    """

    def __init__(self, stream):
        self.stream = stream
        self.settled = PMImage(record=False)
        self.upto = 0

    def replay(self, plan):
        stream, point = self.stream, plan.point
        records, covered_at = stream.records, stream.covered_at
        cancelled = stream.cancelled
        i = self.upto
        assert point >= i, "plans must come in point order"
        while i < point and (not isinstance(records[i], LineStore)
                             or covered_at[i] < point or i in cancelled):
            if isinstance(records[i], LineStore) and i not in cancelled:
                _apply_store(self.settled, records[i])
            i += 1
        self.upto = i
        return _walk(stream, plan, _copy(self.settled), start=i)


def _plan(point, applied=(), partials=()):
    return SimpleNamespace(point=point, applied=frozenset(applied),
                           partials=tuple(partials))


# ----------------------------------------------------------------------
# The line cursor
# ----------------------------------------------------------------------
class TestLineCursor:
    @pytest.mark.parametrize("rec", RECORDINGS,
                             ids=[f"{k}-{w}" for k, w in RECORDINGS])
    def test_every_plan_matches_stream_order_replay(self, recordings, rec):
        stream = recordings[rec].linestream
        sampled = CrashPlanner(stream, per_signature=3).plans()
        cursor = LineCursor(stream)
        for plan in sampled:
            assert _state(replay_plan(stream, plan, cursor)) \
                == _state(_walk(stream, plan)), plan
        every = CrashPlanner(stream, per_signature=None).plans()
        assert len(every) > len(sampled)
        cursor, ref = LineCursor(stream), _SettledWalk(stream)
        for plan in every:
            assert _state(replay_plan(stream, plan, cursor)) \
                == _state(ref.replay(plan)), plan

    def test_late_dma_cover_loses_to_newer_cpu_store(self):
        """A DMA page store covered after a newer CPU store to the same
        page: stream order says the CPU content wins, at every point
        and under every subset of the in-flight stores."""
        stream = LineStream()
        stream.announce_dma_pages(0, 1, [7], [b"d" * 4096])   # seq 0
        stream.page_write(7, b"c" * 4096)                     # seq 1
        stream.page_write(8, b"x" * 64)
        stream.pages_fence()                     # covers the CPU stores
        stream.page_write(7, b"e" * 4096)        # in flight at the end
        stream.announce_dma_pages(1, 1, [8], [b"y" * 64])
        stream.completion_update(1, 1)
        stream.completion_update(0, 1)           # DMA seq 0 covered last
        stream.page_write(8, b"z" * 64)
        end = stream.position()
        self._check_every_subset(stream)
        flushed = _plan(end, [s.seq for s in in_flight(stream, end)])
        img = replay_plan(stream, flushed, LineCursor(stream))
        assert img.pages[7] == b"e" * 4096 and img.pages[8] == b"z" * 64
        assert replay_plan(stream, _plan(end)).pages[7] == b"c" * 4096

    def test_in_flight_dma_older_than_durable_cpu_store(self):
        stream = LineStream()
        stream.announce_dma_pages(0, 1, [3], [b"d" * 256])
        stream.page_write(3, b"c" * 256)
        stream.pages_fence()
        stream.page_write(4, b"f" * 256)
        end = stream.position()
        self._check_every_subset(stream)
        dma = _plan(end, [0], ())
        assert replay_plan(stream, dma, LineCursor(stream)).pages[3] \
            == b"c" * 256

    @staticmethod
    def _check_every_subset(stream):
        cursor = LineCursor(stream)
        for point in range(stream.position() + 1):
            flight = [r.seq for r in in_flight(stream, point)]
            subsets = chain.from_iterable(
                combinations(flight, n) for n in range(len(flight) + 1))
            for applied in subsets:
                plans = [_plan(point, applied)]
                plans += [_plan(point, set(applied) - {s}, ((s, (0, 2)),))
                          for s in applied
                          if stream.records[s].nlines > 2]
                for plan in plans:
                    want = _state(_walk(stream, plan))
                    assert _state(replay_plan(stream, plan, cursor)) \
                        == want, plan
                    assert _state(replay_plan(stream, plan)) == want, plan

    def test_applied_outside_the_flight_replays_like_the_walk(self):
        """``plan.applied`` may name any seq: a store durable at the
        point lands once, one past the point not at all, and a
        cancelled one lands, as in the stream-order walk."""
        rng = random.Random(5)
        for _ in range(20):
            stream = _synth_stream(rng)
            seqs = [r.seq for r in stream.records
                    if isinstance(r, LineStore)]
            cursor = LineCursor(stream)
            for point in range(stream.position() + 1):
                plan = _plan(point, rng.sample(seqs, len(seqs) // 2))
                assert _state(replay_plan(stream, plan, cursor)) \
                    == _state(_walk(stream, plan)), point

    def test_backwards_plan_restarts(self, recordings):
        stream = recordings[("easyio", "generic_056")].linestream
        plans = CrashPlanner(stream, per_signature=1).plans()
        cursor = LineCursor(stream)
        for plan in [plans[-1], plans[0], plans[len(plans) // 2]]:
            assert _state(replay_plan(stream, plan, cursor)) \
                == _state(_walk(stream, plan))


# ----------------------------------------------------------------------
# The page cursor
# ----------------------------------------------------------------------
def _prefix_replay(image, k):
    img = PMImage(record=False)
    for rec in image.mutations[:k]:
        img.apply(rec)
    return img


class TestPageCursor:
    @pytest.mark.parametrize("rec", RECORDINGS,
                             ids=[f"{k}-{w}" for k, w in RECORDINGS])
    def test_every_point_matches_prefix_replay(self, rec):
        image, _oracle = _record(*rec, iterations=12)
        cursor = ReplayCursor(image)
        forks = []
        for k in range(image.crash_points() + 1):
            want = _state(_prefix_replay(image, k))
            assert _state(cursor.advance(k)) == want, k
            forks.append((k, cursor.image.fork(), want))
        # Advancing past a fork changed nothing in it.
        for k, fork, want in forks:
            assert _state(fork) == want, k
        assert _state(image.replay(image.crash_points())) \
            == _state(_prefix_replay(image, image.crash_points()))

    def test_backwards_point_restarts(self):
        image, _oracle = _record("nova", "generic_056", iterations=3)
        cursor = ReplayCursor(image)
        for k in (image.crash_points(), 0, 7, 3):
            assert _state(cursor.advance(k)) \
                == _state(_prefix_replay(image, k)), k

    def test_under_faults(self):
        image, _oracle = _record("easyio", "generic_056", iterations=8,
                                 fault_plan=_halt_all_channels)
        assert any(r.op == "amend_log_sns" for r in image.mutations)
        cursor = ReplayCursor(image)
        for k in range(image.crash_points() + 1):
            assert _state(cursor.advance(k)) \
                == _state(_prefix_replay(image, k)), k


# ----------------------------------------------------------------------
# Forks
# ----------------------------------------------------------------------
class TestForks:
    def test_fork_shares_no_mutable_container(self):
        base = PMImage()
        base.write_page(1, b"a")
        base.append_log(1, "e1")
        base.commit_log_tail(1, 1)
        base.journal_begin("txn")
        base.record_channel_errors(0, (5,))
        fork = base.fork()
        before = _state(base)
        fork.write_page(2, b"b")
        fork.append_log(1, "e2")
        fork.journal_end()
        fork.record_channel_errors(0, (6,))
        fork.drop_inode(1)
        assert _state(base) == before
        after = _state(fork)
        base.append_log(1, "e3")
        base.record_channel_errors(0, (7,))
        assert _state(fork) == after

    @pytest.mark.parametrize("rec", [("easyio", "generic_322"),
                                     ("nova", "create_delete")],
                             ids=["easyio-generic_322", "nova-create_delete"])
    def test_recovering_a_fork_leaves_the_base(self, recordings, rec):
        """Recovery retires journal records and drops orphans -- on the
        fork only; the base and every later plan are unaffected."""
        kind, _wl = rec
        stream = recordings[rec].linestream
        cursor = LineCursor(stream)
        platform = Platform(PlatformConfig.single_node())
        retired = 0
        for plan in CrashPlanner(stream, per_signature=3).plans():
            img = replay_plan(stream, plan, cursor)
            base = _state(cursor.image)
            retired += bool(img.journal)
            fs = NovaFS(platform, img)
            recover(fs, completion_buffer_validator(img)
                    if kind == "easyio" else None)
            assert _state(cursor.image) == base
            assert _state(cursor.image) \
                == _state(_walk(stream, _plan(plan.point))), plan
        if rec[1] == "generic_322":
            assert retired, "no plan recovered an open journal record"

    def test_page_sweep_judge_forks_the_cursor_image(self):
        image, _oracle = _record("easyio", "generic_322", iterations=6)
        cursor = ReplayCursor(image)
        judge = _Judge(True, {}, mechanisms=False)
        for k in range(image.crash_points() + 1):
            judge(cursor.advance(k), owned=False)
            assert _state(cursor.image) \
                == _state(_prefix_replay(image, k)), k


# ----------------------------------------------------------------------
# The verdict memo
# ----------------------------------------------------------------------
#: The records every image below shares, as images replayed from one
#: recording share the recording's records.
_ROOT = Inode(0, FileKind.DIR, 2, 0)
_FILE = Inode(1, FileKind.FILE, 1, 0)
_DENTRY = DentryEntry("f", 1, FileKind.FILE, True, 0)
_LINK = DentryEntry("g", 1, FileKind.FILE, True, 0)
_RENAME = RenameTxn(0, "f", 0, "g", 1, FileKind.FILE)
_WRITE = WriteEntry(0, (10,), PAGE_SIZE, 1, sns=((0, 5),))


def _one_file_image(pages=None, entries=(_WRITE,), cbuf=7, errors=(),
                    link=False, journal=(), inodes=(_ROOT, _FILE)):
    """Root + one file ``/f`` (also ``/g`` with ``link``) whose
    committed log is ``entries`` (default: one write of page 10 under
    SN (0, 5))."""
    img = PMImage()
    for inode in inodes:
        img.put_inode(inode.ino, inode)
    for dentry in (_DENTRY, _LINK) if link else (_DENTRY,):
        img.append_log(0, dentry)
    img.commit_log_tail(0, len(img.logs[0]))
    for txn in journal:
        img.journal_begin(txn)
    if errors:
        img.record_channel_errors(0, errors)
    if pages is None:
        pages = {10: b"a" * PAGE_SIZE}
    for pid, data in pages.items():
        img.write_page(pid, data)
    for entry in entries:
        img.append_log(1, entry)
    img.commit_log_tail(1, len(entries))
    img.update_completion_buffer(0, cbuf)
    return img


def _direct(img, validator_needed=True):
    return _Judge(validator_needed, {})._recover(img.fork())[0]


class TestJudge:
    @pytest.fixture
    def recoveries(self, monkeypatch):
        calls = []
        real = crashmonkey.recover

        def counted(fs, validator=None):
            calls.append(fs)
            return real(fs, validator)
        monkeypatch.setattr(crashmonkey, "recover", counted)
        return calls

    def test_verdicts_match_direct_recovery(self, recoveries):
        """One judge over images that differ in what recovery reads:
        each verdict is the one a fresh recovery gives."""
        remap = WriteEntry(0, (11,), PAGE_SIZE, 2, sns=((0, 9),))
        short = WriteEntry(0, (10,), 100, 1, sns=((0, 5),))
        variants = [
            _one_file_image(),
            _one_file_image(pages={10: b"b" * PAGE_SIZE}),
            _one_file_image(pages={}),                      # sn-pages
            _one_file_image(cbuf=4),                         # SN rule
            _one_file_image(entries=[short]),
            # A rejected entry remaps page 10's offset: recovery keeps
            # page 10, so its content still decides the verdict.
            _one_file_image(pages={10: b"a" * PAGE_SIZE,
                                   11: b"x" * PAGE_SIZE},
                            entries=[_WRITE, remap]),
            _one_file_image(pages={10: b"c" * PAGE_SIZE,
                                   11: b"x" * PAGE_SIZE},
                            entries=[_WRITE, remap]),
            _one_file_image(pages={10: b"c" * PAGE_SIZE,
                                   11: b"x" * PAGE_SIZE},
                            entries=[_WRITE, remap], cbuf=9),
            _one_file_image(errors=(5,)),                   # poisoned SN
            _one_file_image(link=True),
            _one_file_image(link=True, journal=[_RENAME]),  # rolled forward
            _one_file_image(inodes=[_ROOT]),                # no file inode
        ]
        judge = _Judge(True, {})
        verdicts = [judge(img, owned=False) for img in variants]
        assert verdicts == [_direct(img) for img in variants]
        assert verdicts[2][0][0] == "sn-pages"
        assert verdicts[5] != verdicts[6] != verdicts[7]
        assert verdicts[8] != verdicts[0] and verdicts[9] != verdicts[10]
        assert verdicts[11] == (None, {})

    def test_unread_state_shares_one_recovery(self, recoveries):
        """Uncommitted log entries, pages no surviving mapping names and
        the allocation counters are never read: one recovery serves."""
        base = _one_file_image()
        want = _direct(base)
        extra = [base.fork() for _ in range(4)]
        extra[0].append_log(1, WriteEntry(0, (12,), PAGE_SIZE, 3))
        extra[1].write_page(99, b"z" * PAGE_SIZE)
        extra[2].alloc_ino()
        extra[3].alloc_page_ids(5)
        recoveries.clear()
        judge = _Judge(True, {})
        for img in [base, *extra]:
            assert judge(img, owned=False) == want
        assert len(recoveries) == 1

    def test_fresh_records_are_never_confused(self):
        """Records created per image (torn sentinels, amended entries)
        enter the key by id; the judge keeps them alive, so a later
        record can never reuse a remembered id."""
        judge = _Judge(True, {})
        for size in range(1, 60):
            entry = WriteEntry(0, (10,), size, 1, sns=((0, 5),))
            img = _one_file_image(entries=[entry])
            assert judge(img, owned=False) == _direct(img), size
            del entry, img


# ----------------------------------------------------------------------
# The sweeps against the loop they replaced
# ----------------------------------------------------------------------
def _judge_from_scratch(img, platform, validator_needed, oracle, lo, hi,
                        digests, mechanisms=True):
    fs2 = NovaFS(platform, img)
    validator = (completion_buffer_validator(img)
                 if validator_needed else None)
    try:
        recover(fs2, validator)
    except TornLogEntryError as exc:
        return ("torn-entry", str(exc))
    fail = _mechanism_checks(fs2, img, validator) if mechanisms else None
    if fail is None:
        fail = _check_state(snapshot_with_content(fs2, digests), oracle,
                            lo, hi)
    return fail


def _reference_line_sweep(kind, workload, image, oracle, per_signature):
    stream = image.linestream
    planner = CrashPlanner(stream, per_signature=per_signature)
    plans = planner.plans()
    report = CrashReport(workload=workload, kind=kind,
                         total_crash_points=len(plans), passed=0,
                         granularity="line",
                         raw_states=planner.raw_states,
                         plan_classes=dict(planner.plan_classes))
    platform = Platform(PlatformConfig.single_node())
    digests: dict = {}
    for plan in plans:
        fail = _judge_from_scratch(_walk(stream, plan), platform,
                                   kind in ("easyio", "naive"), oracle,
                                   plan.lo, plan.hi, digests)
        if fail is None:
            report.passed += 1
        else:
            report.failures.append(
                CrashFailure(plan.point, fail[0], fail[1], plan.cls))
    return report


def _halt_all_channels():
    return FaultPlan(schedule=[ChannelHaltFault(ch, 1) for ch in range(8)])


LINE_CASES = (
    [(kind, wl, None, None) for kind, wl in RECORDINGS]
    + [("easyio", "generic_056", "skip_append_fence", None),
       ("easyio", "generic_090", "skip_append_fence", None),
       ("easyio", "generic_056", "reorder_amend_persist",
        _halt_all_channels),
       ("easyio", "generic_056", None, _halt_all_channels)])


class TestSweepsUnchanged:
    @pytest.mark.parametrize(
        "kind,workload,mutant,faults", LINE_CASES,
        ids=[f"{k}-{w}-{m or 'clean'}{'-halts' if f else ''}"
             for k, w, m, f in LINE_CASES])
    def test_line_sweep_report(self, kind, workload, mutant, faults):
        image, oracle = _record(kind, workload, iterations=10,
                                mutant=mutant, fault_plan=faults)
        got = _line_sweep(kind, workload, image, oracle,
                          kind in ("easyio", "naive"), per_signature=None,
                          budget=None, seed=0)
        want = _reference_line_sweep(kind, workload, image, oracle, None)
        assert got == want
        assert got.all_passed == (mutant is None)

    def test_both_mutants_covered(self):
        assert {m for _k, _w, m, _f in LINE_CASES if m} == set(CRASH_MUTANTS)

    @pytest.mark.parametrize("kind,faults,mutant", [
        ("easyio", None, None), ("nova", None, None),
        ("easyio", _halt_all_channels, None),
        ("easyio", None, "skip_append_fence")],
        ids=["easyio", "nova", "easyio-halts", "easyio-skip_append_fence"])
    def test_page_sweep_report(self, monkeypatch, kind, faults, mutant):
        recorded = {}
        record = _record_workload

        def keep(*args, **kwargs):
            recorded["out"] = record(*args, **kwargs)
            return recorded["out"]
        monkeypatch.setattr("repro.crash.crashmonkey._record_workload", keep)
        got = run_crash_test(kind, "generic_322", crash_points=150,
                             fault_plan=faults, mutant=mutant)
        image, oracle = recorded["out"]
        total = image.crash_points()
        n = min(150, total + 1)
        points = sorted({round(j * total / (n - 1)) for j in range(n)})
        want = CrashReport(workload="generic_322", kind=kind,
                           total_crash_points=len(points), passed=0)
        platform = Platform(PlatformConfig.single_node())
        starts = [s for (s, _e, _sn) in oracle]
        ends = [e for (_s, e, _sn) in oracle]
        for k in points:
            fail = _judge_from_scratch(
                _prefix_replay(image, k), platform, kind == "easyio",
                oracle, bisect_right(ends, k), bisect_right(starts, k),
                {}, mechanisms=False)
            if fail is None:
                want.passed += 1
            else:
                want.failures.append(CrashFailure(k, fail[0], fail[1]))
        assert got == want

    @pytest.mark.parametrize("mutant", [None, *CRASH_MUTANTS])
    def test_fuzz_crash_findings(self, monkeypatch, mutant):
        def reference_section(t, stream, oracle, digests):
            planner = CrashPlanner(stream,
                                   per_signature=t.crash.per_signature,
                                   budget=t.crash.budget, seed=t.crash.seed)
            plans = planner.plans()
            platform = Platform(PlatformConfig.single_node())
            findings = []
            for plan in plans:
                fail = _judge_from_scratch(
                    _walk(stream, plan), platform,
                    t.kind in ("easyio", "naive"), oracle, plan.lo,
                    plan.hi, digests)
                if fail is not None:
                    findings.append(Finding("crash", fail[0], fail[1],
                                            plan.cls))
            return planner, findings, len(plans)

        tuples = [t for t in seed_corpus() if t.crash.enabled]
        got = [run_scenario(t, mutant).as_dict() for t in tuples]
        monkeypatch.setattr(scenario_mod, "_crash_section",
                            reference_section)
        want = [run_scenario(t, mutant).as_dict() for t in tuples]
        assert got == want
        if mutant is not None:
            assert any(f[0] == "crash" for d in got for f in d["findings"])
