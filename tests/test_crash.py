"""Crash-consistency harness tests (Table 2, reduced crash budget --
the full 1000-point sweep runs in benchmarks/test_tab02_crashmonkey.py)."""

import pytest

from repro.core import EasyIoFS
from repro.crash import CRASH_WORKLOADS, run_crash_test
from repro.crash.crashmonkey import (_mechanism_checks, _record_workload,
                                     snapshot_with_content)
from repro.crash.linestream import replay_plan
from repro.crash.plans import CrashPlanner
from repro.fs import NovaFS, PMImage
from repro.fs.recovery import (TornLogEntryError,
                               completion_buffer_validator, recover)
from repro.hw.platform import Platform, PlatformConfig
from repro.workloads.factory import FS_KINDS, fs_class
from tests.conftest import run_proc


class TestHarness:
    def test_workload_catalogue_matches_table2(self):
        assert set(CRASH_WORKLOADS) == {"create_delete", "generic_056",
                                        "generic_090", "generic_322"}

    def test_snapshot_includes_content_digest(self):
        fs = NovaFS(Platform(PlatformConfig.single_node()), PMImage()).mount()
        def scenario():
            ino = yield from fs.create(fs.context(), "/f")
            yield from fs.write(fs.context(), ino, 0, 4096, b"x" * 4096)
        run_proc(fs.engine, scenario())
        snap = snapshot_with_content(fs)
        assert snap["/f"][0] == "file"
        assert snap["/f"][1] == 4096
        assert snap["/f"][2] is not None

    def test_content_digest_distinguishes_payloads(self):
        def snap_for(payload):
            fs = NovaFS(Platform(PlatformConfig.single_node()),
                        PMImage()).mount()
            def scenario():
                ino = yield from fs.create(fs.context(), "/f")
                yield from fs.write(fs.context(), ino, 0, 4096, payload)
            run_proc(fs.engine, scenario())
            return snapshot_with_content(fs)["/f"][2]
        assert snap_for(b"a" * 4096) != snap_for(b"b" * 4096)

    def test_shared_memo_sees_in_flight_dma_land(self):
        """An orderless EasyIO write commits its mapping before its DMA
        lands.  A snapshot taken in that window hashes the pre-DMA
        content; a later snapshot with the same memo must still hash
        what landed, exactly like a memo-free snapshot."""
        fs = EasyIoFS(Platform(PlatformConfig.single_node()),
                      PMImage()).mount()
        memo: dict = {}
        snaps = {}

        def scenario():
            ino = yield from fs.create(fs.context(), "/f")
            res = yield from fs.write(fs.context(), ino, 0, 65536,
                                      b"z" * 65536)
            assert res.is_async, "the write must still be in flight"
            snaps["in_flight"] = snapshot_with_content(fs, memo)
            yield res.pending
            snaps["landed"] = snapshot_with_content(fs, memo)
        run_proc(fs.engine, scenario())
        assert snaps["in_flight"] != snaps["landed"]
        assert snaps["landed"] == snapshot_with_content(fs)


@pytest.mark.parametrize("workload", sorted(CRASH_WORKLOADS))
class TestCrashSweeps:
    def test_easyio_passes(self, workload):
        report = run_crash_test("easyio", workload, crash_points=60)
        assert report.all_passed, report.failures[:3]

    def test_nova_passes(self, workload):
        report = run_crash_test("nova", workload, crash_points=40)
        assert report.all_passed, report.failures[:3]

    def test_naive_passes(self, workload):
        report = run_crash_test("naive", workload, crash_points=40)
        assert report.all_passed, report.failures[:3]


def _recovered_state(fs, validator):
    """Everything recovery rebuilds, plus the checks' verdicts on it."""
    try:
        recover(fs, validator)
    except TornLogEntryError as exc:
        return ("torn", str(exc))
    inodes = {ino: (m.kind, m.links, m.size, dict(m.index),
                    dict(m.dentries)) for ino, m in fs._mem.items()}
    return (inodes, list(fs.allocator._free),
            fs.recovered_discarded_entries,
            _mechanism_checks(fs, fs.image, validator),
            snapshot_with_content(fs))


class TestRecoveryMount:
    @pytest.mark.parametrize("kind", FS_KINDS)
    def test_bare_mount_recovers_like_the_variant(self, kind):
        """Sweeps recover every plan on a bare NovaFS over one shared
        platform: it must rebuild exactly what the variant's own class
        does, and must leave nothing scheduled on the shared engine."""
        _desc, driver, _iters = CRASH_WORKLOADS["generic_322"]
        image, _oracle = _record_workload(kind, driver, 4, lines=True)
        stream = image.linestream
        total = image.crash_points()
        plans = CrashPlanner(stream, per_signature=None).plans()
        images = ([lambda k=k: image.replay(k)
                   for k in range(0, total + 1, max(1, total // 12))]
                  + [lambda p=p: replay_plan(stream, p)
                     for p in plans[::max(1, len(plans) // 24)]])
        needs_validator = kind in ("easyio", "naive")
        shared = Platform(PlatformConfig.single_node())
        scheduled = len(shared.engine._wheel)
        for make_image in images:
            states = []
            for fs in (NovaFS(shared, make_image()),
                       fs_class(kind)(Platform(PlatformConfig.single_node()),
                                      make_image())):
                validator = (completion_buffer_validator(fs.image)
                             if needs_validator else None)
                states.append(_recovered_state(fs, validator))
            assert states[0] == states[1]
        assert len(shared.engine._wheel) == scheduled


class TestDetection:
    def test_checker_detects_broken_recovery(self):
        """If EasyIO recovery ignored SN validation, some crash point
        must fail -- proving the checker has teeth."""
        from repro.crash import crashmonkey as cmky
        from repro.fs.recovery import recover

        desc, driver, iterations = CRASH_WORKLOADS["generic_090"]
        image, oracle = cmky._record_workload("easyio", driver, 8)
        total = image.crash_points()
        failures = 0
        for k in range(0, total + 1, max(1, total // 80)):
            img = image.replay(k)
            plat = Platform(PlatformConfig.single_node())
            fs2 = NovaFS(plat, img)
            recover(fs2, None)   # deliberately skip SN validation
            snap = snapshot_with_content(fs2)
            durable = sum(1 for (_s, e, _sn) in oracle if e <= k)
            started = sum(1 for (s, _e, _sn) in oracle if s <= k)
            cands = [{} if i == 0 else oracle[i - 1][2]
                     for i in range(durable, started + 1)]
            if not any(snap == c for c in cands):
                failures += 1
        assert failures > 0, \
            "disabling SN validation should corrupt some crash point"
