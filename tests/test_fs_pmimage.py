"""Tests for the persistent-memory image and its mutation journal."""

import pytest

from repro.faults import FaultPlan
from repro.fs.pmimage import ELIDED, MutationRecord, PMImage
from repro.fs.structures import FileKind, Inode, WriteEntry


class TestMutations:
    def test_recording_off_by_default(self):
        img = PMImage()
        img.write_page(1, b"x")
        assert img.mutations == []

    def test_recording_captures_persist_order(self):
        img = PMImage(record=True)
        img.write_page(1, b"x")
        img.append_log(5, "entry")
        img.commit_log_tail(5, 1)
        assert [m.op for m in img.mutations] == [
            "write_page", "append_log", "commit_log_tail"]

    def test_page_free_does_not_erase_content(self):
        """PM does not zero freed pages; recovery may fall back to them."""
        img = PMImage(record=True)
        img.write_page(3, b"old")
        img.drop_page(3)
        assert img.pages[3] == b"old"

    def test_committed_log_respects_tail(self):
        img = PMImage()
        img.append_log(1, "a")
        img.append_log(1, "b")
        img.commit_log_tail(1, 1)
        assert img.committed_log(1) == ["a"]

    def test_alloc_counters_monotonic(self):
        img = PMImage(record=True)
        assert img.alloc_ino() == 1
        assert img.alloc_ino() == 2
        ids = img.alloc_page_ids(3)
        assert ids == [0, 1, 2]
        assert img.alloc_page_ids(1) == [3]


class TestReplay:
    def test_replay_requires_recording(self):
        with pytest.raises(RuntimeError):
            PMImage().replay(0)

    def test_full_replay_reproduces_state(self):
        img = PMImage(record=True)
        img.put_inode(1, Inode(1, FileKind.FILE, 1, 0))
        img.write_page(0, b"data")
        entry = WriteEntry(0, (0,), 4096, 10)
        img.append_log(1, entry)
        img.commit_log_tail(1, 1)
        img.update_completion_buffer(2, 7)
        replayed = img.replay(img.crash_points())
        assert replayed.pages == img.pages
        assert replayed.inodes == img.inodes
        assert replayed.logs == img.logs
        assert replayed.log_tails == img.log_tails
        assert replayed.completion_buffers == img.completion_buffers

    def test_prefix_replay_stops_at_crash_point(self):
        img = PMImage(record=True)
        img.write_page(0, b"a")
        img.write_page(1, b"b")
        half = img.replay(1)
        assert 0 in half.pages and 1 not in half.pages

    def test_replay_preserves_alloc_high_water_marks(self):
        img = PMImage(record=True)
        img.alloc_ino()
        img.alloc_page_ids(5)
        replayed = img.replay(img.crash_points())
        assert replayed.alloc_ino() == 2
        assert replayed.alloc_page_ids(1) == [5]

    def test_journal_begin_end_replay(self):
        img = PMImage(record=True)
        img.journal_begin("txn")
        mid = img.replay(img.crash_points())
        assert mid.journal == ["txn"]
        img.journal_end()
        done = img.replay(img.crash_points())
        assert done.journal == []

    def test_unknown_mutation_rejected(self):
        img = PMImage()
        with pytest.raises(ValueError):
            img.apply(MutationRecord("nonsense", ()))

    def test_append_log_not_valid_until_tail_commit(self):
        """NOVA's two-step append+commit: the appended entry is not part
        of the committed log until the tail moves."""
        img = PMImage(record=True)
        img.append_log(1, "e")
        crashed = img.replay(img.crash_points())
        assert crashed.committed_log(1) == []
        img.commit_log_tail(1, 1)
        crashed = img.replay(img.crash_points())
        assert crashed.committed_log(1) == ["e"]


def _records(stream):
    """A line stream's records as comparable tuples."""
    if stream is None:
        return None
    return [(type(r).__name__,) + tuple(getattr(r, a) for a in r.__slots__)
            for r in stream.records]


class TestWritePages:
    """The bulk page store equals a write_page loop on every image kind."""

    PIDS = [7, 8, 9, 3, 4, 20, 21, 22]

    @staticmethod
    def _contents(kind):
        # Line recording journals real payloads only (no ELIDED pages).
        elided = ELIDED if kind != "lines" else b"e" * 64
        return [bytes([i]) * 4096 if i % 3 else elided
                for i in range(len(TestWritePages.PIDS))]

    @staticmethod
    def _image(kind):
        img = PMImage(record=kind in ("recording", "lines"))
        if kind == "lines":
            img.enable_line_recording()
        if kind == "media":
            img.fault_plan = FaultPlan(seed=5, p_media=0.4)
        # Some state before the train, so journal positions matter.
        img.put_inode(1, Inode(1, FileKind.FILE, 1, 0))
        img.write_page(3, b"old" * 100)
        return img

    @pytest.mark.parametrize("kind", ["plain", "recording", "lines",
                                      "media"])
    def test_bulk_store_matches_per_page_loop(self, kind):
        bulk, loop = self._image(kind), self._image(kind)
        bulk.write_pages(self.PIDS, self._contents(kind))
        for pid, data in zip(self.PIDS, self._contents(kind)):
            loop.write_page(pid, data)
        # A second train on top: the stores stay in persist order.
        tail = self._contents(kind)[:2]
        bulk.write_pages([3, 40], tail)
        for pid, data in zip([3, 40], tail):
            loop.write_page(pid, data)
        assert bulk.pages == loop.pages
        assert list(bulk.pages) == list(loop.pages)
        assert bulk.mutations == loop.mutations
        assert _records(bulk.linestream) == _records(loop.linestream)
        if kind == "media":
            assert bulk.fault_plan.trace == loop.fault_plan.trace
            assert bulk.fault_plan.injected["media"] > 0
        if kind in ("recording", "lines"):
            assert [m.op for m in bulk.mutations].count("write_page") == 11
