"""Tests for the benchmark's own helpers.

Run from the repository root with::

    python3 -m pytest e2ebench/tests -q
"""

import ast
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PKG = os.path.join(os.sep, "x", "checkout", "src", "repro")


# -- file path -> layer ------------------------------------------------

@pytest.mark.parametrize("path, layer", [
    (os.path.join(PKG, "sim", "engine.py"), "sim"),
    (os.path.join(PKG, "hw", "memory.py"), "hw"),
    (os.path.join(PKG, "crash", "linestream.py"), "crash"),
    (os.path.join(PKG, "baselines", "odinfs.py"), "baselines"),
    (os.path.join(PKG, "vector.py"), "vector"),
    (os.path.join(PKG, "__init__.py"), "other"),
    (os.path.join(PKG + "_old", "sim", "engine.py"), "other"),
    (os.path.join(os.sep, "usr", "lib", "python3", "random.py"), "other"),
    (os.path.join(os.sep, "home", "repro", "sim", "engine.py"), "other"),
    ("~", "builtins"),
    ("<string>", "builtins"),
    ("<frozen importlib._bootstrap>", "builtins"),
])
def test_layer_of(path, layer):
    assert layers.layer_of(path, PKG) == layer
    assert layers.layer_of(path, PKG + os.sep) == layer


def test_every_repro_package_is_a_layer():
    src = os.path.join(ROOT, "src", "repro")
    packages = {name for name in os.listdir(src)
                if os.path.isdir(os.path.join(src, name))
                and name != "__pycache__"}
    assert packages <= set(layers.LAYERS)


class _FakeStats:
    def __init__(self, stats):
        self.stats = stats


def test_attribute_sums_self_time_and_calls_per_layer():
    stats = _FakeStats({
        (os.path.join(PKG, "sim", "engine.py"), 1, "run"):
            (3, 5, 0.5, 1.0, {}),
        (os.path.join(PKG, "sim", "sync.py"), 9, "get"):
            (2, 2, 0.25, 0.3, {}),
        ("~", 0, "<built-in method len>"): (7, 7, 0.25, 0.25, {}),
    })
    attr = layers.attribute(stats, PKG)
    assert attr["sim"] == {"tottime": 0.75, "calls": 7}
    assert attr["builtins"] == {"tottime": 0.25, "calls": 7}
    assert attr["fs"] == {"tottime": 0.0, "calls": 0}


# -- per-unit accounting -----------------------------------------------

def test_tally_assembles_a_repetition_from_per_unit_medians():
    t = measure.Tally()
    for s in (1.0, 9.0, 2.0):          # one slow outlier sample
        t.add("a", s, work=10, attempted=1, failed=0)
    for s in (3.0, 4.0):
        t.add("b", s, work=30, attempted=2, failed=0)
    assert t.wall_s() == 2.0 + 3.5
    assert t.total_work() == 40
    assert t.host_us_per_unit() == pytest.approx(5.5e6 / 40)
    assert t.samples() == 2
    assert t.attempted == 7


def test_failed_frac_counts_failed_over_attempted_units():
    t = measure.Tally()
    t.add("plans", 1.0, work=8, attempted=8, failed=2, problems=["x", "y"])
    t.add_error("boom", "ValueError: no")
    assert (t.attempted, t.failed) == (9, 3)
    assert t.failed_frac() == pytest.approx(3 / 9)
    assert t.pass_frac() == pytest.approx(6 / 9)
    assert len(t.problems) == 3
    assert "boom" not in t.seconds      # a raising unit has no sample


def test_failed_frac_is_zero_when_nothing_failed():
    t = measure.Tally()
    t.add("a", 1.0, work=1, attempted=4, failed=0)
    assert t.failed_frac() == 0.0 and t.pass_frac() == 1.0


def test_layer_metrics_divide_by_work_and_shares_sum_to_one():
    attr = {layer: {"tottime": 0.0, "calls": 0} for layer in layers.LAYERS}
    attr["sim"] = {"tottime": 3.0, "calls": 300}
    attr["fs"] = {"tottime": 1.0, "calls": 100}
    c = layers.Counters()
    c.values.update(events_fired=90, events_cancelled=10, dma_desc=4,
                    dma_aggregated=1, plans_replayed=0)
    m = layers.layer_metrics(attr, c, work=10)
    assert m["sim.self_share"] == 0.75
    assert m["sim.calls_per_unit"] == 30.0
    assert m["sim.events_per_unit"] == 9.0
    assert m["sim.cancelled_frac"] == 0.1
    assert m["hw.dma_aggregated_frac"] == 0.25
    assert m["crash.replay_ms_per_plan"] == 0.0     # no plans: no division
    assert sum(m[f"{layer}.self_share"] for layer in layers.LAYERS) == 1.0


def test_digest_ignores_key_order():
    assert measure.digest({"a": 1, "b": [1, 2]}) == \
        measure.digest({"b": [1, 2], "a": 1})
    assert measure.digest({"a": 1}) != measure.digest({"a": 2})


def test_non_default_switches_are_flagged():
    assert measure.non_default(dict(measure.SWITCH_DEFAULTS)) == []
    eff = dict(measure.SWITCH_DEFAULTS, REPRO_SIM_SCHEDULER="heap",
               REPRO_VECTOR="0")
    assert measure.non_default(eff) == ["REPRO_SIM_SCHEDULER",
                                        "REPRO_VECTOR"]


# -- metric names --------------------------------------------------------

@pytest.mark.parametrize("name, ok", [
    ("setup_s", True), ("sim.events_per_unit", True), ("a-b.c_9", True),
    ("9lives", True), (".hidden", False), ("_x", False), ("has space", False),
    ("slash/name", False), ("x" * 64, True), ("x" * 65, False), ("", False),
])
def test_metric_name_charset(name, ok):
    assert bool(measure.NAME_RE.match(name)) is ok
    assert measure.check_metric_names({name: {}}) == ([] if ok else [name])


def _emitted_per_layer():
    attr = {layer: {"tottime": 1.0, "calls": 1} for layer in layers.LAYERS}
    names = set(layers.layer_metrics(attr, layers.Counters(), work=1))
    return names | {"trace.overhead_x"} | set(workloads.SIM_METRICS)


def test_benchmark_json_names_exactly_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _unit in run.END_TO_END]
    assert {m["name"] for m in spec["per_layer"]} == _emitted_per_layer()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert measure.NAME_RE.match(metric["name"])
    units = {name: unit for name, unit in run.END_TO_END}
    for metric in spec["end_to_end"]:
        assert metric["unit"] == units[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


def test_timed_metrics_are_the_only_nondeterministic_ones():
    assert set(layers.TIMED) <= _emitted_per_layer()


# -- reference context ----------------------------------------------------

def test_fig10_paper_values_match_the_figure_benchmark():
    path = os.path.join(ROOT, "benchmarks", "test_fig10_applications.py")
    with open(path) as f:
        tree = ast.parse(f.read())
    (paper,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "PAPER"]
    assert workloads.PAPER_FIG10 == {app: v[0] for app, v in paper.items()}


def test_fxmark_grid_follows_the_fig9_odinfs_limit():
    points = workloads.fxmark_points()
    assert ("odinfs", 16) not in points
    assert ("easyio", 16) in points and len(points) == 15


# -- instruments ----------------------------------------------------------

def test_instrument_records_instances_and_restores_the_originals():
    from repro.fs.nova import NovaFS
    from repro.hw.platform import Platform
    from repro.workloads.factory import make_fs, make_platform

    init, write = NovaFS.__init__, NovaFS.write
    counters = layers.Counters()
    with layers.instrument(counters):
        # make_fs routes keyword arguments by the constructor signature,
        # which the recording wrapper must keep visible.
        make_fs("nova", make_platform(), elide_payloads=True)
        counters.harvest()
    assert counters.values["span_ns"] == 0          # nothing ran yet
    assert NovaFS.__init__ is init and NovaFS.write is write
    assert "__init__" in Platform.__dict__
    make_fs("nova", make_platform(), elide_payloads=True)
    counters.harvest()
    assert counters.values["events_fired"] == 0     # no longer recording
