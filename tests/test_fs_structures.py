"""Tests for the persistent metadata structures and volatile mirrors."""

from repro.fs.structures import (
    PAGE_SIZE,
    DentryEntry,
    FileKind,
    MemInode,
    WriteEntry,
)


class TestWriteEntry:
    def test_num_pages(self):
        entry = WriteEntry(0, (5, 6, 7), 3 * PAGE_SIZE, 100)
        assert entry.num_pages == 3

    def test_entries_are_immutable(self):
        entry = WriteEntry(0, (5,), PAGE_SIZE, 100)
        try:
            entry.pgoff = 9
            assert False, "frozen dataclass accepted a mutation"
        except AttributeError:
            pass

    def test_default_sns_empty(self):
        assert WriteEntry(0, (1,), PAGE_SIZE, 1).sns == ()


class TestExtentRuns:
    def make(self, mapping):
        m = MemInode(ino=1, kind=FileKind.FILE)
        for off, pid in mapping.items():
            m.index[off] = pid
        return m

    def test_contiguous_pages_form_one_run(self):
        m = self.make({0: 10, 1: 11, 2: 12})
        runs = list(m.extent_runs(0, 3))
        assert runs == [(0, [10, 11, 12])]

    def test_discontiguous_pages_split_runs(self):
        m = self.make({0: 10, 1: 50, 2: 51})
        runs = list(m.extent_runs(0, 3))
        assert runs == [(0, [10]), (1, [50, 51])]

    def test_hole_emits_empty_run(self):
        m = self.make({0: 10, 2: 12})
        runs = list(m.extent_runs(0, 3))
        assert (1, []) in runs
        assert (0, [10]) in runs

    def test_subrange(self):
        m = self.make({i: 100 + i for i in range(8)})
        runs = list(m.extent_runs(2, 3))
        assert runs == [(2, [102, 103, 104])]

    def test_all_holes(self):
        m = self.make({})
        runs = list(m.extent_runs(0, 2))
        assert runs == [(0, []), (1, [])]


class TestDentryEntry:
    def test_valid_flag_round_trip(self):
        add = DentryEntry("x", 5, FileKind.FILE, True, 0)
        rm = DentryEntry("x", 5, FileKind.FILE, False, 1)
        assert add.valid and not rm.valid
