"""Tests for metrics collection and report rendering."""

import pytest

from repro.analysis import LatencySeries, ThroughputMeter, Timeline
from repro.analysis.report import banner, fmt_series, fmt_table, sparkline


class TestLatencySeries:
    def test_empty_series(self):
        s = LatencySeries()
        assert s.mean() == 0.0
        assert s.p99() == 0.0
        assert s.maximum() == 0.0
        assert len(s) == 0

    def test_mean(self):
        s = LatencySeries()
        for v in (10, 20, 30):
            s.record(v)
        assert s.mean() == 20

    def test_percentiles_interpolate(self):
        s = LatencySeries()
        for v in range(1, 101):
            s.record(v)
        assert s.p50() == pytest.approx(50.5)
        assert s.percentile(100) == 100
        assert s.p99() == pytest.approx(99.01)

    def test_interleaved_records_and_queries(self):
        # The sorted view is cached between queries and must be
        # invalidated by every record() -- interleave appends with
        # p50/p99 reads and check against a freshly sorted reference.
        s = LatencySeries()
        values = [50, 10, 90, 30, 70, 20, 80, 60, 40, 100]
        for i, v in enumerate(values):
            s.record(v)
            ref = sorted(values[:i + 1])
            r = LatencySeries()
            for x in ref:
                r.record(x)
            assert s.p50() == pytest.approx(r.p50())
            assert s.p99() == pytest.approx(r.p99())
        assert s.percentile(100) == 100

    def test_direct_append_to_samples_is_seen(self):
        # Some call sites extend the public `samples` list directly;
        # the cache must notice the length change.
        s = LatencySeries()
        s.record(10)
        assert s.p50() == 10
        s.samples.append(30)
        assert s.p50() == pytest.approx(20)
        s.samples.extend([50, 70])
        assert s.percentile(100) == 70

    def test_incremental_insort_matches_full_sort(self):
        # Small appended tails are insorted into the cached view
        # instead of re-sorting; large backlogs re-sort.  Both paths
        # must agree with a scratch sort at every step.
        import random
        rng = random.Random(7)
        s = LatencySeries()
        reference = []
        for step in range(40):
            # Alternate tiny tails (insort path) with big batches
            # (past _INSORT_TAIL_MAX: the re-sort path).
            batch = 3 if step % 3 else 200
            for _ in range(batch):
                v = rng.randrange(1_000_000)
                s.record(v)
                reference.append(v)
            ref = sorted(reference)
            assert s._sorted_samples() == ref
            assert s.percentile(100) == ref[-1]
            assert s.p50() == pytest.approx(
                (ref[(len(ref) - 1) // 2] + ref[len(ref) // 2]) / 2)

    def test_query_between_every_append_stays_exact(self):
        s = LatencySeries()
        seen = []
        for v in [9, 1, 8, 2, 7, 3, 6, 4, 5, 5, 0, 10]:
            s.record(v)
            seen.append(v)
            assert list(s._sorted_samples()) == sorted(seen)
            assert s.maximum() == max(seen)
            assert s.mean() == pytest.approx(sum(seen) / len(seen))

    def test_percentile_bounds(self):
        s = LatencySeries()
        s.record(5)
        with pytest.raises(ValueError):
            s.percentile(0)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_unit_helpers(self):
        s = LatencySeries()
        s.record(2500)
        assert s.mean_us() == 2.5


class TestThroughputMeter:
    def test_counts_only_inside_window(self):
        m = ThroughputMeter(100, 200)
        assert not m.record(50)
        assert m.record(150, nbytes=10)
        assert not m.record(200)
        assert m.ops == 1 and m.bytes == 10

    def test_rates(self):
        m = ThroughputMeter(0, 1_000_000_000)  # 1 second
        for t in range(0, 1000, 10):
            m.record(t, nbytes=100)
        assert m.ops_per_sec() == pytest.approx(100)
        assert m.bandwidth_gbps() == pytest.approx(100 * 100 / 1e9)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter(5, 5)


class TestTimeline:
    def test_windowed_stats(self):
        t = Timeline()
        t.record(10, 1.0)
        t.record(20, 5.0)
        t.record(30, 2.0)
        assert t.max_value() == 5.0
        assert t.max_value(t_lo=25) == 2.0
        assert t.mean_value(t_lo=15, t_hi=25) == 5.0

    def test_bucketed_takes_max_per_bucket(self):
        t = Timeline()
        t.record(1, 1.0)
        t.record(2, 9.0)
        t.record(11, 3.0)
        assert t.bucketed(10) == [(0, 9.0), (10, 3.0)]

    def test_empty(self):
        t = Timeline()
        assert t.max_value() == 0.0
        assert t.mean_value() == 0.0


class TestReport:
    def test_table_alignment(self):
        out = fmt_table(["name", "value"], [["a", 1], ["bb", 22.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_series_format(self):
        out = fmt_series("NOVA", [1, 2], [3.14159, 2.0])
        assert "1=3.14" in out and "2=2.00" in out

    def test_banner_contains_title(self):
        assert "Figure 9" in banner("Figure 9")

    def test_sparkline_length_bounded(self):
        out = sparkline(list(range(1000)), width=50)
        assert 0 < len(out) <= 60

    def test_sparkline_empty(self):
        assert sparkline([]) == ""
