"""Golden equivalence: the refactored I/O pipeline is behaviour-preserving.

``tests/data/golden_pre_refactor.json`` holds fixed-seed summary
metrics (Figure 2 copy bandwidth, Figure 8 single-op latency and
breakdowns, Figure 9 throughput/latency) captured at the last commit
before the unified pipeline refactor, plus Figure 10 application
summaries and Table 2 line-sweep crash verdicts captured before the
event core and DMA engine were reduced to one path each.  The simulator is deterministic,
so the refactored code must reproduce every number **exactly** -- any
drift means the refactor changed the simulated event order, not just
the code structure.

Regenerate the golden file (only after an *intentional* behaviour
change) with::

    PYTHONPATH=src python tests/data/capture_golden.py
"""

import json
import os

import pytest

from repro.obs import default_tracing
from tests.data.capture_golden import fig02, fig08, fig09, fig10, table2

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "data", "golden_pre_refactor.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


def _assert_exact(actual, expected, label):
    assert sorted(actual) == sorted(expected), \
        f"{label}: key sets differ"
    for key in expected:
        assert actual[key] == expected[key], \
            f"{label}[{key}]: {actual[key]!r} != golden {expected[key]!r}"


@pytest.mark.slow
def test_fig02_copy_bandwidth_exact(golden):
    _assert_exact(fig02(), golden["fig02"], "fig02")


@pytest.mark.slow
def test_fig08_single_op_latency_exact(golden):
    actual = fig08()
    _assert_exact(actual, golden["fig08"], "fig08")
    # The breakdown dicts nest one level deeper; spot-check shape.
    sample = next(iter(actual.values()))
    assert set(sample) == {"lat", "cpu", "breakdown"}


@pytest.mark.slow
def test_fig09_throughput_latency_exact(golden):
    _assert_exact(fig09(), golden["fig09"], "fig09")


@pytest.mark.slow
def test_fig10_app_summaries_exact(golden):
    _assert_exact(fig10(), golden["fig10"], "fig10")


@pytest.mark.slow
def test_table2_line_sweep_verdicts_exact(golden):
    actual = table2()
    _assert_exact(actual, golden["table2"], "table2")
    assert all(v["passed"] == v["total_crash_points"] > 0
               for v in actual.values())


# ---------------------------------------------------------------------------
# Payload-elision / parallel-runner equivalence: the performance modes
# must reproduce the same golden numbers bit for bit.  (fig02 has no
# filesystem data plane -- it measures raw copy bandwidth -- so there
# is no elided variant of it to check.)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_fig08_elided_payloads_exact(golden):
    _assert_exact(fig08(elide=True), golden["fig08"], "fig08[elide]")


@pytest.mark.slow
def test_fig09_elided_payloads_exact(golden):
    _assert_exact(fig09(elide=True), golden["fig09"], "fig09[elide]")


@pytest.mark.slow
def test_fig09_parallel_runner_exact(golden):
    # Elision plus the multiprocessing sweep runner -- exactly how the
    # perf harness runs its "fast" configuration.
    _assert_exact(fig09(elide=True, processes=2), golden["fig09"],
                  "fig09[elide+parallel]")


# ---------------------------------------------------------------------------
# Tracing is sim-time neutral: with a tracer attached to every engine
# the fixed-seed summaries still match the goldens *exactly* -- the
# tracer only appends to a buffer, it never perturbs the simulation.
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_fig08_traced_exact(golden):
    tracers = []
    with default_tracing(collect=tracers):
        actual = fig08()
    _assert_exact(actual, golden["fig08"], "fig08[traced]")
    assert sum(tr.emitted for tr in tracers) > 0, "nothing was traced"


@pytest.mark.slow
def test_fig09_traced_ring_buffer_exact(golden):
    # Ring-buffer mode on a long sweep: bounded memory, same numbers.
    capacity = 4096
    tracers = []
    with default_tracing(capacity=capacity, collect=tracers):
        actual = fig09()
    _assert_exact(actual, golden["fig09"], "fig09[traced+ring]")
    assert tracers, "nothing was traced"
    assert all(len(tr) <= capacity for tr in tracers)
