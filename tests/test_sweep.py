"""The sweep runner is deterministic and order-preserving.

Every point runs in a fresh engine with a fixed seed, so the
multiprocessing fan-out must return identical summaries for any
worker count -- including the serial in-process fallback -- for every
kind of point the figure grids run.  The specs are short (hundreds of
microseconds of simulated time, small crash-plan budgets) to keep the
fork cost the dominant term.
"""

import multiprocessing

import pytest

from repro.analysis.sweep import (app_point, crash_point, fuzz_point,
                                  fxmark_point, fxmark_sweep, run_points)
from repro.crash import CRASH_WORKLOADS
from repro.fuzz import seed_corpus
from repro.workloads.fxmark import FxmarkConfig


def _fxmark_specs():
    return [FxmarkConfig(kind=kind, op=op, io_size=16384, workers=workers,
                         duration_us=400, warmup_us=100, single_node=True)
            for op in ("write", "read")
            for kind in ("nova", "easyio")
            for workers in (1, 2)]


def _app_specs():
    return [{"kind": kind, "app_name": app, "cores": 2,
             "duration_us": 4000, "warmup_us": 800}
            for app in ("snappy", "fileserver")
            for kind in ("nova", "easyio")]


def _crash_specs():
    # The Table 2 line sweep of all four workloads.
    return [{"kind": "easyio", "workload": wl, "granularity": "line",
             "per_signature": 2}
            for wl in sorted(CRASH_WORKLOADS)]


def _fuzz_specs():
    return [{"tuple": t.to_dict(), "mutant": None}
            for t in seed_corpus()[:4]]


POINTS = {
    "fxmark": (fxmark_point, _fxmark_specs),
    "app": (app_point, _app_specs),
    "crash": (crash_point, _crash_specs),
    "fuzz": (fuzz_point, _fuzz_specs),
}


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("run_points started a pool")
    monkeypatch.setattr(multiprocessing, "Pool", refuse)


class TestSweepDeterminism:
    @pytest.fixture(scope="class", params=sorted(POINTS))
    def point(self, request):
        """(fn, specs, serial results) for one kind of point."""
        fn, specs = POINTS[request.param]
        return fn, specs(), run_points(fn, specs(), processes=1)

    @pytest.fixture(scope="class")
    def serial(self):
        return run_points(fxmark_point, _fxmark_specs(), processes=1)

    def test_serial_matches_two_workers(self, point):
        fn, specs, serial = point
        assert run_points(fn, specs, processes=2) == serial

    def test_order_is_preserved(self, point):
        # The pool returns results in spec order, not completion order:
        # the points are pairwise distinct, so any permutation shows.
        fn, specs, serial = point
        assert serial == [fn(spec) for spec in specs]
        assert len({repr(r) for r in serial}) == len(serial)

    def test_single_spec_spawns_no_pool(self, point, no_pool):
        fn, specs, serial = point
        assert run_points(fn, specs[:1], processes=8) == serial[:1]

    def test_empty_specs_return_empty(self, point, no_pool):
        fn, _specs, _serial = point
        assert run_points(fn, [], processes=8) == []

    def test_serial_matches_four_workers(self, serial):
        assert run_points(fxmark_point, _fxmark_specs(),
                          processes=4) == serial

    def test_repeat_runs_are_identical(self, serial):
        assert run_points(fxmark_point, _fxmark_specs(),
                          processes=1) == serial


class TestSweepApi:
    def test_summary_schema(self):
        point = fxmark_point(FxmarkConfig(
            kind="nova", duration_us=300, warmup_us=100, single_node=True))
        assert set(point) == {"throughput_ops", "bandwidth_gbps",
                              "total_ops", "mean_us", "p99_us",
                              "cpu_busy_fraction"}

    def test_fxmark_sweep_keys_and_elision(self):
        kw = dict(op="write", io_size=16384, duration_us=300,
                  warmup_us=100)
        plain = fxmark_sweep(("nova",), (1,), **kw)
        elided = fxmark_sweep(("nova",), (1,), elide=True, **kw)
        assert list(plain) == ["write/nova/1"]
        # Payload elision must not move a single number.
        assert elided == plain

    def test_crash_summaries_pass(self):
        # The crash case's specs are clean line sweeps: every plan of
        # every workload passes.
        for summary in run_points(crash_point, _crash_specs()):
            assert summary["passed"] == summary["total_crash_points"] > 0
            assert int(summary["raw_states"]) > 0
            assert summary["failures"] == []
