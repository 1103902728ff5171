"""Schedule-queue edge cases for the engine's timing wheel.

The engine's firing-order contract is ``(when, schedule-order)``.
These tests drive the corners of the wheel's representation:
same-timestamp FIFO runs, cancel-heavy compaction and its dead-entry
count, far-future overflow (epoch cascading), and zero-delay
self-rescheduling; a seeded random schedule is checked against a
``(when, schedule-order)`` sort.
"""

import itertools
import random

import pytest

from repro.sim import Engine
from repro.sim.queues import COMPACT_MIN_DEAD, WHEEL_HORIZON


@pytest.fixture
def engine():
    return Engine()


def run_proc(engine, gen):
    proc = engine.process(gen)
    engine.run()
    return proc


class TestSameTimestampFifo:
    def test_same_when_fires_in_schedule_order(self, engine):
        fired = []
        def waiter(i, delay):
            yield engine.timeout(delay)
            fired.append(i)
        # Interleave two target timestamps; within each, schedule order
        # must be preserved exactly.
        for i in range(40):
            engine.process(waiter(i, 100 if i % 2 else 200))
        engine.run()
        odds = [i for i in fired[:20]]
        evens = [i for i in fired[20:]]
        assert odds == [i for i in range(40) if i % 2]
        assert evens == [i for i in range(40) if not i % 2]

    def test_events_scheduled_while_firing_join_same_instant(self, engine):
        order = []
        def first():
            yield engine.timeout(50)
            order.append("first")
            engine.process(second())
        def second():
            order.append("spawned")
            yield engine.timeout(0)
            order.append("second")
        engine.process(first())
        engine.run()
        assert order == ["first", "spawned", "second"]
        assert engine.now == 50


class TestCancelHeavyCompaction:
    def test_lazy_compaction_bounds_queue_size(self, engine):
        def body():
            for _ in range(2000):
                engine.timeout(10_000_000).cancel()
                yield engine.sleep(1)
        run_proc(engine, body())
        assert engine.stats.events_cancelled == 2000
        assert engine.stats.heap_compactions > 0
        assert engine.heap_size < 200

    def test_compaction_preserves_survivor_order(self, engine):
        fired = []
        def body():
            doomed = [engine.timeout(5_000 + i) for i in range(300)]
            survivors = [engine.timeout(1_000 + i) for i in range(5)]
            for t in doomed:
                t.cancel()
            for i, t in enumerate(survivors):
                t.add_callback(lambda _ev, i=i: fired.append(i))
            yield engine.timeout(2_000)
        run_proc(engine, body())
        assert fired == [0, 1, 2, 3, 4]

    def test_far_future_cancellations_compact_too(self, engine):
        def body():
            for i in range(2000):
                engine.timeout(10 * WHEEL_HORIZON + i).cancel()
                yield engine.sleep(1)
        run_proc(engine, body())
        assert engine.heap_size < 200


class TestWheelOverflow:
    """Events past the near horizon cascade through far epochs."""

    def test_far_future_timer_fires_exactly(self, engine):
        fired = []
        def body():
            yield engine.timeout(3 * WHEEL_HORIZON + 17)
            fired.append(engine.now)
        run_proc(engine, body())
        assert fired == [3 * WHEEL_HORIZON + 17]

    def test_epochs_scheduled_out_of_order_fire_in_order(self, engine):
        fired = []
        whens = [5 * WHEEL_HORIZON + 1, WHEEL_HORIZON + 3,
                 9 * WHEEL_HORIZON, 2 * WHEEL_HORIZON - 1, 40]
        def waiter(when):
            yield engine.timeout(when)
            fired.append(when)
        for w in whens:
            engine.process(waiter(w))
        engine.run()
        assert fired == sorted(whens)

    def test_push_into_cascaded_window(self, engine):
        # After the clock has advanced past the first horizon, newly
        # scheduled near-window events land in the cascaded buckets.
        fired = []
        def body():
            yield engine.timeout(WHEEL_HORIZON + 10)
            yield engine.timeout(5)  # near push inside epoch 1
            fired.append(engine.now)
        run_proc(engine, body())
        assert fired == [WHEEL_HORIZON + 15]

    def test_same_when_fifo_across_cascade(self, engine):
        fired = []
        when = 2 * WHEEL_HORIZON + 500
        def waiter(i):
            yield engine.timeout(when)
            fired.append(i)
        for i in range(10):
            engine.process(waiter(i))
        engine.run()
        assert fired == list(range(10))


class TestZeroDelaySelfReschedule:
    def test_zero_delay_chain_stays_at_one_instant(self, engine):
        hops = []
        def body():
            yield engine.timeout(30)
            for i in range(50):
                hops.append(engine.now)
                yield engine.sleep(0)
        run_proc(engine, body())
        assert hops == [30] * 50
        assert engine.now == 30

    def test_zero_delay_interleaves_fairly(self, engine):
        order = []
        def looper(name):
            for _ in range(3):
                order.append(name)
                yield engine.sleep(0)
        engine.process(looper("a"))
        engine.process(looper("b"))
        engine.run()
        assert order == ["a", "b"] * 3


class TestDeadCount:
    """Cancelled entries leave the dead count when they leave the queue,
    so compaction only fires when there is something to compact."""

    @pytest.mark.parametrize("make_timer", ["timeout", "sleep"])
    def test_dropped_cancellations_trigger_no_compaction(self, engine,
                                                         make_timer):
        # "sleep" covers the run loop's cancelled-pooled-timer branch.
        for _ in range(3):
            engine.timeout(1_000_000_000)  # live, far off
        for _ in range(300):
            getattr(engine, make_timer)(5).cancel()
            engine.run(until=engine.now + 10)
        assert engine.stats.heap_compactions == 0
        assert engine._wheel._dead == 0
        assert engine.heap_size == 3

    def test_in_batch_cancellations_balance_out(self, engine):
        # One event cancels the rest of its own batch: the victims are
        # counted dead after they left the queue, so they may trigger a
        # compaction with nothing to evict -- but only one per
        # COMPACT_MIN_DEAD of them, and the count ends at zero.
        first = engine.timeout(50)
        victims = [engine.timeout(50) for _ in range(200)]
        first.add_callback(lambda _ev: [v.cancel() for v in victims])
        engine.timeout(10**9)
        engine.run(until=100)
        assert engine.stats.events_fired == 1
        assert engine.stats.heap_compactions <= 200 // COMPACT_MIN_DEAD
        assert engine._wheel._dead == 0
        assert engine.heap_size == 1


class TestRandomSchedules:
    def test_random_schedules_fire_in_when_then_schedule_order(self, engine):
        # Oracle: every timer that is not cancelled fires, in the order
        # of its (when, schedule-order) key.
        rng = random.Random(1234)
        seq = itertools.count()
        key = {}
        pending = []
        fired = []

        def schedule(label, delay, respawn):
            ev = engine.timeout(delay)
            key[label] = (engine.now + delay, next(seq))
            pending.append((label, ev))

            def fire(_ev):
                fired.append(label)
                if respawn:
                    schedule(label + 1000, rng.randrange(0, 3000), False)
                if rng.random() < 0.1:
                    # Cancel a still-queued timer, possibly one due at
                    # this very instant.
                    victim, vev = pending[rng.randrange(len(pending))]
                    if not vev.processed and vev.cancel():
                        del key[victim]
            ev.add_callback(fire)
            return ev

        for i in range(300):
            delay = rng.choice((0, 1, 7, 100, 100, 2048,
                                WHEEL_HORIZON + 13, 3 * WHEEL_HORIZON))
            schedule(i, delay, rng.random() < 0.3)
        for label, ev in pending[::7]:
            ev.cancel()
            del key[label]
        engine.run()
        assert fired == sorted(key, key=key.get)
        assert engine._wheel._dead == 0
        assert engine.heap_size == 0
