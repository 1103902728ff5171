"""Numpy-vs-reference crash kernel parity (DESIGN.md §15).

The line-stream durability/replay kernels and the planner's mix column
each have a numpy twin, bound at import when numpy imports.  The twin
must produce *identical* outputs to its pure-Python reference -- the
crash suites compare exact verdicts, so any drift would show.  These
tests call both kernels of each pair directly over seeded randomized
inputs, including the empty and degenerate shapes.
"""

import random
from types import SimpleNamespace

import pytest

from repro import vector
from repro.crash import linestream as ls
from repro.crash import plans
from repro.crash.plans import CrashPlanner

needs_numpy = pytest.mark.skipif(not vector.HAVE_NUMPY,
                                 reason="numpy not installed")


class TestSwitchboard:
    """The kernels bound at import: the references must stand alone."""

    def test_reference_kernels_run_without_vector_mode(self):
        # The fallback is first-class: without numpy the reference
        # kernels are bound, so they must work on their own.
        stream = ls.LineStream()
        stream.page_write(1, b"x" * 64)
        stream.pages_fence()
        stream.page_write(2, b"y" * 64)
        end = stream.position()
        assert ls._base_durable_ref(stream, end) == {0}
        assert [r.seq for r in ls._in_flight_ref(stream, end)] == [2]
        plan = SimpleNamespace(point=end, applied=frozenset({2}),
                               partials=())
        assert set(ls._replay_plan_ref(stream, plan).pages) == {1, 2}
        assert plans._mix_column_ref(3) == [plans._mix(s) for s in range(3)]


def _synth_stream(rng: random.Random) -> ls.LineStream:
    """A randomized but well-formed line stream: CPU trains, DMA
    announcements with completions/cancellations, records, atomics,
    bookkeeping -- the shapes the real emitters produce."""
    stream = ls.LineStream()
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


@needs_numpy
class TestLineStreamParity:
    def test_durability_and_replay_on_seeded_streams(self):
        rng = random.Random(0xBEEF)
        for trial in range(25):
            stream = _synth_stream(rng)
            n = len(stream.records)
            points = sorted({0, 1 if n else 0, n}
                            | {rng.randrange(n + 1) for _ in range(10)})
            for pt in points:
                assert ls._base_durable_ref(stream, pt) \
                    == ls._base_durable_np(stream, pt), (trial, pt)
                assert [r.seq for r in ls._in_flight_ref(stream, pt)] \
                    == [r.seq for r in ls._in_flight_np(stream, pt)]
            # Random plans: arbitrary applied subsets + partials.
            for pt in points:
                flight = ls._in_flight_ref(stream, pt)
                applied = frozenset(r.seq for r in flight
                                    if rng.random() < 0.5)
                partials = tuple(
                    (r.seq, tuple(sorted(rng.sample(
                        range(r.nlines), rng.randint(1, r.nlines)))))
                    for r in flight
                    if r.nlines > 1 and r.klass in ("data", "record")
                    and rng.random() < 0.3)
                plan = SimpleNamespace(point=pt, applied=applied,
                                       partials=partials)
                a = _img_state(ls._replay_plan_ref(stream, plan))
                b = _img_state(ls._replay_plan_np(stream, plan))
                assert a == b, (trial, pt)

    def test_replay_full_identical_both_modes(self):
        # The no-crash plan replay_full builds, through each kernel.
        rng = random.Random(7)
        for _ in range(5):
            stream = _synth_stream(rng)
            end = stream.position()
            plan = SimpleNamespace(
                point=end, partials={},
                applied=frozenset(s.seq for s in
                                  ls._in_flight_ref(stream, end)))
            a = _img_state(ls._replay_plan_ref(stream, plan))
            b = _img_state(ls._replay_plan_np(stream, plan))
            assert a == b
            assert a == _img_state(ls.replay_full(stream))

    def test_empty_stream(self):
        stream = ls.LineStream()
        assert ls._base_durable_ref(stream, 0) \
            == ls._base_durable_np(stream, 0) == set()
        assert ls._in_flight_np(stream, 0) == []
        plan = SimpleNamespace(point=0, applied=frozenset(), partials={})
        img = ls._replay_plan_np(stream, plan)
        assert not img.pages and not img.logs

    def test_index_invalidated_by_stream_growth(self):
        stream = ls.LineStream()
        stream.page_write(1, b"x" * 64)
        stream.pages_fence()
        first = ls._base_durable_np(stream, stream.position())
        assert first == {0}
        stream.page_write(2, b"y" * 64)
        stream.pages_fence()
        assert ls._base_durable_np(stream, stream.position()) == {0, 2}
        assert ls._base_durable_ref(stream, stream.position()) == {0, 2}

    def test_cancellation_after_index_build(self):
        # cancel_sns arrives without appending records; the cached
        # index must not bake the cancelled set in.
        stream = ls.LineStream()
        stream.announce_dma_pages(0, 1, [1], [b"a" * 4096])
        stream.completion_update(0, 1)
        pt = stream.position()
        assert ls._base_durable_np(stream, pt) \
            == ls._base_durable_ref(stream, pt)
        stream.cancel_sns(0, [1])
        assert ls._base_durable_np(stream, pt) \
            == ls._base_durable_ref(stream, pt)


@needs_numpy
class TestPlannerParity:
    def test_mix_column_kernels_identical(self):
        for n in (0, 1, 2, 63, 64, 1000):
            assert plans._mix_column_ref(n) == plans._mix_column_np(n), n

    def test_identical_plan_lists_on_seeded_streams(self, monkeypatch):
        def plan_with(kernel, stream, **kw):
            monkeypatch.setattr(plans, "_mix_column", kernel)
            planner = CrashPlanner(stream, **kw)
            return planner, planner.plans()

        rng = random.Random(0xCAFE)
        for trial in range(10):
            stream = _synth_stream(rng)
            for per_sig, budget in ((3, None), (None, None), (2, 20)):
                kw = dict(per_signature=per_sig, budget=budget, seed=trial)
                pa, a = plan_with(plans._mix_column_np, stream, **kw)
                pb, b = plan_with(plans._mix_column_ref, stream, **kw)
                assert (pa.raw_states, pa.positions) \
                    == (pb.raw_states, pb.positions)
                assert [(p.point, p.cls, p.applied, p.partials, p.lo,
                         p.hi, p.signature) for p in a] \
                    == [(p.point, p.cls, p.applied, p.partials, p.lo,
                         p.hi, p.signature) for p in b], trial
