"""Soundness of the incremental crash oracle.

:class:`~repro.crash.crashmonkey.OracleRecorder` keeps the post-op
state of a recording run by recomputing only what each op changed.
:func:`~repro.crash.crashmonkey.snapshot_with_content` -- a full walk
of the live tree -- stays its definition: after every recorded op the
recorder's snapshot must equal a fresh walk, across every crash
workload and filesystem kind, under faults, under each planted crash
mutant, over the fuzz corpora, and when a write's DMA lands after its
op was recorded.
"""

import os

import pytest

from repro.core import EasyIoFS
from repro.core.easyio import CRASH_MUTANTS
from repro.crash.crashmonkey import (CRASH_WORKLOADS, OracleRecorder,
                                     _record_workload,
                                     snapshot_with_content)
from repro.faults import ChannelHaltFault, FaultPlan, TransferErrorFault
from repro.fs import PMImage
from repro.fuzz import ScenarioTuple, load_reproducers, run_scenario
from repro.fuzz.corpus import seed_corpus
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import FS_KINDS
from tests.conftest import run_proc

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
REPRODUCERS = load_reproducers(CORPUS_DIR)

#: The fault plan of the fault-tolerance benchmark's crash sweeps.
FAULT_PLAN = dict(seed=42, p_xfer_error=0.02, p_media=0.02, max_faults=24,
                  schedule=(ChannelHaltFault(0, 5), TransferErrorFault(1, 9)))


@pytest.fixture
def checked(monkeypatch):
    """Compare every recorded snapshot with a fresh full walk; returns
    the list of recorders seen, so a test can assert it recorded."""
    seen = []
    record = OracleRecorder.record
    #: The reference's own content memo (content-keyed, so sound).
    memo: dict = {}

    def cross_checked(self, start, end):
        record(self, start, end)
        if not seen or seen[-1] is not self:
            seen.append(self)
        got = self.oracle[-1][2]
        want = snapshot_with_content(self.fs, memo)
        assert got == want, (
            f"op {len(self.oracle) - 1}: incremental oracle diverged: "
            f"{sorted(set(got.items()) ^ set(want.items()))[:4]}")
    monkeypatch.setattr(OracleRecorder, "record", cross_checked)
    return seen


def _ops(recorders):
    return sum(len(r.oracle) for r in recorders)


@pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
@pytest.mark.parametrize("kind", FS_KINDS)
@pytest.mark.parametrize("lines", [False, True], ids=["page", "line"])
def test_workloads(checked, workload, kind, lines):
    _desc, driver, iterations = CRASH_WORKLOADS[workload]
    _image, oracle = _record_workload(kind, driver, iterations, lines=lines)
    assert len(oracle) == _ops(checked) > iterations


@pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
def test_easyio_under_fault_plan(checked, workload):
    _desc, driver, iterations = CRASH_WORKLOADS[workload]
    _record_workload("easyio", driver, iterations,
                     fault_plan=lambda: FaultPlan(**FAULT_PLAN))
    assert _ops(checked) > iterations


@pytest.mark.parametrize("mutant", CRASH_MUTANTS)
@pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
def test_crash_mutants(checked, workload, mutant):
    _desc, driver, iterations = CRASH_WORKLOADS[workload]
    _record_workload("easyio", driver, iterations, lines=True,
                     mutant=mutant)
    assert _ops(checked) > iterations


@pytest.mark.parametrize("fname,payload", REPRODUCERS,
                         ids=[f for f, _ in REPRODUCERS])
def test_committed_corpus(checked, fname, payload):
    t = ScenarioTuple.from_dict(payload["tuple"])
    run_scenario(t)
    run_scenario(t, mutant=payload["mutant"])
    assert len(checked) == 2


@pytest.mark.parametrize("index", range(len(seed_corpus())))
def test_seed_corpus(checked, index):
    """The fuzzer's seed population: truncates, deadlines, admission
    pressure and fault storms."""
    run_scenario(seed_corpus()[index])
    assert len(checked) == 1


def test_dma_landing_after_its_op_was_recorded(checked):
    """An orderless EasyIO write commits its mapping before its DMA
    lands.  Its op is recorded inside that window, with the pre-DMA
    content; the next record must see what landed although no inode
    changed in between."""
    image = PMImage(record=True)
    fs = EasyIoFS(Platform(PlatformConfig.single_node()), image).mount()
    recorder = OracleRecorder(fs)

    def scenario():
        ino = yield from fs.create(fs.context(), "/f")
        recorder.record(0, len(image.mutations))
        res = yield from fs.write(fs.context(), ino, 0, 65536,
                                  b"z" * 65536)
        assert res.is_async, "the write must still be in flight"
        recorder.record(0, len(image.mutations))
        yield res.pending
        recorder.record(0, len(image.mutations))
    run_proc(fs.engine, scenario())
    in_flight, landed = recorder.oracle[1][2], recorder.oracle[2][2]
    assert in_flight != landed
    assert landed["/f"][1] == 65536


def test_renamed_directory_moves_its_subtree(checked):
    """Names moving between two directories in one op, a directory
    subtree moving with its name, and a hard link's entry following
    its inode's content."""
    image = PMImage(record=True)
    fs = EasyIoFS(Platform(PlatformConfig.single_node()), image).mount()
    recorder = OracleRecorder(fs)

    def op():
        recorder.record(0, len(image.mutations))

    def scenario():
        yield from fs.mkdir(fs.context(), "/a")
        yield from fs.mkdir(fs.context(), "/b")
        yield from fs.mkdir(fs.context(), "/a/d")
        op()
        ino = yield from fs.create(fs.context(), "/a/d/f")
        res = yield from fs.write(fs.context(), ino, 0, 8192, b"q" * 8192)
        if res.is_async:
            yield res.pending
        yield from fs.link(fs.context(), "/a/d/f", "/b/g")
        op()
        yield from fs.rename(fs.context(), "/a/d", "/b/d")
        op()
        yield from fs.truncate(fs.context(), ino, 100)
        op()
        yield from fs.unlink(fs.context(), "/b/d/f")
        op()
    run_proc(fs.engine, scenario())
    assert set(recorder.oracle[2][2]) == {"/a", "/b", "/b/d", "/b/d/f",
                                          "/b/g"}
    assert recorder.oracle[3][2]["/b/g"][1] == 100
