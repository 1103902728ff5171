"""Tests for the bandwidth-pool model and slow-memory device."""

import random

import pytest

from repro.hw.memory import (
    CPU_GROUP,
    DELEGATION_GROUP,
    DMA_GROUP,
    BandwidthPool,
    PoolFlow,
    SlowMemory,
    _waterfill,
    clear_waterfill_cache,
)
from repro.hw.params import CostModel
from repro.sim import Engine
from tests.conftest import run_proc


class TestWaterfill:
    def test_equal_split_under_capacity(self):
        rates = _waterfill([1, 1], [10, 10], 4)
        assert rates == [2, 2]

    def test_caps_bind(self):
        rates = _waterfill([1, 1], [1, 10], 4)
        assert rates == [1, 3]

    def test_conservation(self):
        rates = _waterfill([1, 1, 1], [5, 5, 5], 9)
        assert sum(rates) == pytest.approx(9)

    def test_never_exceeds_caps(self):
        rates = _waterfill([1, 1, 1], [1, 2, 3], 100)
        assert rates == [1, 2, 3]

    def test_weighted_shares(self):
        rates = _waterfill([2, 1], [100, 100], 9)
        assert rates == [6, 3]

    def test_empty(self):
        assert _waterfill([], [], 5) == []


class TestBandwidthPool:
    def test_single_flow_runs_at_cap(self, engine):
        pool = BandwidthPool(engine, "p", capacity=10.0)
        def body():
            yield pool.transfer(1000, cap=2.0)
        run_proc(engine, body())
        assert engine.now == 500  # 1000 B at 2 B/ns

    def test_two_flows_share_capacity(self, engine):
        pool = BandwidthPool(engine, "p", capacity=2.0)
        done = []
        def flow(i):
            yield pool.transfer(1000, cap=10.0, tag=i)
            done.append(engine.now)
        engine.process(flow(0))
        engine.process(flow(1))
        engine.run()
        # Both share 2 B/ns -> 1 B/ns each -> finish at 1000.
        assert done == [1000, 1000]

    def test_late_flow_slows_early_flow(self, engine):
        pool = BandwidthPool(engine, "p", capacity=2.0)
        done = {}
        def early():
            yield pool.transfer(1000, cap=2.0, tag="e")
            done["early"] = engine.now
        def late():
            yield engine.timeout(250)
            yield pool.transfer(500, cap=2.0, tag="l")
            done["late"] = engine.now
        engine.process(early())
        engine.process(late())
        engine.run()
        # early runs alone for 250ns (500B), then shares 1 B/ns for the
        # remaining 500B -> done at 750.
        assert done["early"] == 750
        # late: 500B at 1 B/ns alongside early -> done at 750 too.
        assert done["late"] == 750

    def test_zero_byte_transfer_completes_immediately(self, engine):
        pool = BandwidthPool(engine, "p", 1.0)
        ev = pool.transfer(0, cap=1.0)
        assert ev.triggered

    def test_negative_size_rejected(self, engine):
        pool = BandwidthPool(engine, "p", 1.0)
        with pytest.raises(ValueError):
            pool.transfer(-1, cap=1.0)

    def test_group_cap_enforced(self, engine):
        pool = BandwidthPool(engine, "p", capacity=10.0,
                             group_cap_fn=lambda counts: {"slow": 1.0})
        done = {}
        def flow(group, tag):
            yield pool.transfer(1000, cap=10.0, group=group, tag=tag)
            done[tag] = engine.now
        engine.process(flow("slow", "s"))
        engine.process(flow("fast", "f"))
        engine.run()
        assert done["s"] == 1000      # capped at 1 B/ns
        assert done["f"] == pytest.approx(112, abs=10)  # gets ~9 B/ns

    def test_statistics(self, engine):
        pool = BandwidthPool(engine, "p", 1.0)
        def body():
            yield pool.transfer(100, cap=1.0)
            yield pool.transfer(200, cap=1.0)
        run_proc(engine, body())
        assert pool.bytes_moved == 300
        assert pool.transfers_completed == 2
        assert pool.active_flows == 0

    def test_conservation_under_churn(self, engine):
        """Aggregate bytes moved never exceed capacity * time."""
        pool = BandwidthPool(engine, "p", capacity=3.0)
        def flow(delay, size):
            yield engine.timeout(delay)
            yield pool.transfer(size, cap=2.0)
        for i in range(10):
            engine.process(flow(i * 37, 500 + 77 * i))
        engine.run()
        total = sum(500 + 77 * i for i in range(10))
        assert pool.bytes_moved == total
        assert total <= 3.0 * engine.now + 1e-6


class TestSlowMemory:
    def test_cpu_copy_write_duration(self, node):
        model = node.model
        t = run_copy(node, 65536, write=True)
        # A single writer is limited by both its core rate and the
        # single-writer device capacity (the ramp term).
        rate = min(model.cpu_copy_write_rate,
                   model.cpu_write_capacity(node.config.total_dimms, 1))
        expected = (model.cpu_copy_op_overhead + model.pm_write_latency
                    + 65536 / rate)
        assert t == pytest.approx(expected, rel=0.01)

    def test_cpu_copy_read_duration(self, node):
        model = node.model
        t = run_copy(node, 65536, write=False)
        expected = (model.cpu_copy_op_overhead + model.pm_read_latency
                    + 65536 / model.cpu_copy_read_rate)
        assert t == pytest.approx(expected, rel=0.01)

    def test_write_collapse_with_many_writers(self, node):
        """16 concurrent writers achieve less aggregate bandwidth than 6."""
        def agg_bw(writers):
            from repro.hw.platform import Platform, PlatformConfig
            plat = Platform(PlatformConfig.single_node())
            done = []
            def w(i):
                yield from plat.memory.cpu_copy(1 << 20, write=True, tag=i)
                done.append(plat.engine.now)
            for i in range(writers):
                plat.engine.process(w(i))
            plat.engine.run()
            return writers * (1 << 20) / max(done)
        assert agg_bw(16) < agg_bw(6)

    def test_dma_read_class_capped_below_device_peak(self, node):
        model = node.model
        ceiling = model.dma_read_ceiling(node.config.total_dimms)
        assert ceiling < model.pm_read_peak(node.config.total_dimms) * 0.5

    def test_delegation_group_avoids_collapse(self, node):
        """Delegated writes are not subject to the CPU-writer collapse."""
        caps = node.memory._write_group_caps(
            {CPU_GROUP: 16, DELEGATION_GROUP: 16})
        peak = node.model.pm_write_peak(node.config.total_dimms)
        assert caps[CPU_GROUP] < peak
        assert DELEGATION_GROUP not in caps  # uncapped = device limit

    def test_dma_write_ceiling_declines_with_channels(self, node):
        model = node.model
        dimms = node.config.total_dimms
        values = [model.dma_write_ceiling(dimms, ch) for ch in (1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)

    def test_byte_counters(self, node):
        run_copy(node, 4096, write=True)
        assert node.memory.bytes_written() == 4096
        assert node.memory.bytes_read() == 0


def run_copy(platform, nbytes, write):
    t0 = platform.engine.now
    def body():
        yield from platform.memory.cpu_copy(nbytes, write=write)
    run_proc(platform.engine, body())
    return platform.engine.now - t0


def _mem():
    # 3 DIMMs (one node): two or more DMA write channels already pay
    # the interleave penalty, so the channel count moves the ceiling.
    return SlowMemory(Engine(), CostModel(), dimms=3)


class TestAllocationMemo:
    """The pool memo keys on shape, not on per-flow tags."""

    #: A small shape space, so shapes recur with other tags and the
    #: memo is hit; 50 B/ns DMA flows make the channel ceiling bind.
    CAPS = (2.0, 50.0)

    @staticmethod
    def _rates(mem, pool_name, shape):
        pool = getattr(mem, pool_name)
        pool._flows = [PoolFlow(4096, cap, group, tag, None, 0)
                       for group, cap, tag in shape]
        pool._allocate_rates()
        rates = [f.rate for f in pool._flows]
        pool._flows = []
        return rates

    def _random_shape(self, rng):
        shape = []
        for _ in range(rng.randint(1, 4)):
            group = rng.choice((CPU_GROUP, DMA_GROUP, DELEGATION_GROUP))
            if group == DMA_GROUP:
                tag = rng.randrange(4)                    # channel id
            else:
                tag = (rng.choice("rw"), rng.randrange(1, 40))  # per file
            shape.append((group, rng.choice(self.CAPS), tag))
        return shape

    @pytest.mark.parametrize("pool_name", ["write_pool", "read_pool"])
    def test_memoised_rates_equal_a_fresh_pool(self, pool_name):
        rng = random.Random(0x5EED)
        memo = _mem()
        hits = 0
        for _ in range(400):
            shape = self._random_shape(rng)
            cache = getattr(memo, pool_name)._alloc_cache
            before = len(cache)
            got = self._rates(memo, pool_name, shape)
            hits += len(cache) == before
            clear_waterfill_cache()
            fresh = _mem()
            want = self._rates(fresh, pool_name, shape)
            assert got == want, shape          # bit-identical floats
        assert hits > 50          # the memo was exercised, not bypassed

    def test_tags_alone_share_an_entry(self):
        mem = _mem()
        a = self._rates(mem, "write_pool", [(CPU_GROUP, 2.0, ("w", 1)),
                                            (DMA_GROUP, 3.0, 0)])
        b = self._rates(mem, "write_pool", [(CPU_GROUP, 2.0, ("w", 9)),
                                            (DMA_GROUP, 3.0, 5)])
        assert a == b
        assert len(mem.write_pool._alloc_cache) == 1

    def test_distinct_dma_channel_count_splits_entries(self):
        mem = _mem()
        one = [(DMA_GROUP, 50.0, 0), (DMA_GROUP, 50.0, 0)]
        two = [(DMA_GROUP, 50.0, 0), (DMA_GROUP, 50.0, 1)]
        r_one = self._rates(mem, "write_pool", one)
        r_two = self._rates(mem, "write_pool", two)
        assert len(mem.write_pool._alloc_cache) == 2
        # The write ceiling falls with more channels and binds here.
        assert sum(r_two) < sum(r_one)
        for shape, got in ((one, r_one), (two, r_two)):
            clear_waterfill_cache()
            fresh = _mem()
            assert self._rates(fresh, "write_pool", shape) == got
