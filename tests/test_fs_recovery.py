"""Tests for post-crash recovery (tail scan, SN validation, journal,
orphans)."""


from repro.fs import NovaFS, PMImage
from repro.fs.recovery import completion_buffer_validator, recover
from repro.fs.structures import (PAGE_SIZE, DentryEntry, FileKind, Inode,
                                 WriteEntry)
from repro.hw.platform import Platform, PlatformConfig
from tests.conftest import run_proc


def fresh_fs(image=None):
    return NovaFS(Platform(PlatformConfig.single_node()),
                  image if image is not None else PMImage())


def _root_with_file(img, ino=1, name="f"):
    """Root dir + one linked file inode (so the orphan scan keeps it)."""
    img.put_inode(0, Inode(0, FileKind.DIR, 2, 0))
    img.put_inode(ino, Inode(ino, FileKind.FILE, 1, 0))
    img.append_log(0, DentryEntry(name, ino, FileKind.FILE, True, 0))
    img.commit_log_tail(0, 1)


def snapshot_namespace(fs):
    """Flatten a filesystem into {path: (kind, size, page index)}.

    The page index is each file's sorted (pgoff, page_id) pairs, so a
    recovery that drops, swaps or misdirects page mappings changes it
    even when the pages hold no payload.
    """
    out = {}

    def walk(ino, prefix):
        for name, child_ino in sorted(fs._mem[ino].dentries.items()):
            child = fs._mem.get(child_ino)
            if child is None:
                continue
            path = f"{prefix}/{name}"
            if child.kind is FileKind.DIR:
                out[path] = ("dir", 0, None)
                walk(child_ino, path)
            else:
                out[path] = ("file", child.size,
                             tuple(sorted(child.index.items())))

    walk(0, "")
    return out


def build_and_crash(scenario, upto=None):
    """Run scenario on a recording FS; return the crashed image."""
    fs = fresh_fs(PMImage(record=True)).mount()
    run_proc(fs.engine, scenario(fs))
    k = upto if upto is not None else fs.image.crash_points()
    return fs, fs.image.replay(k)


class TestTailScan:
    def test_uncommitted_log_entry_discarded(self):
        img = PMImage()
        _root_with_file(img)
        img.append_log(1, WriteEntry(0, (0,), PAGE_SIZE, 5))
        # No tail commit: the entry must not survive.
        fs = recover(fresh_fs(img))
        assert fs._mem[1].size == 0

    def test_committed_entry_survives(self):
        img = PMImage()
        _root_with_file(img)
        img.write_page(0, b"d" * PAGE_SIZE)
        img.append_log(1, WriteEntry(0, (0,), PAGE_SIZE, 5))
        img.commit_log_tail(1, 1)
        fs = recover(fresh_fs(img))
        assert fs._mem[1].size == PAGE_SIZE
        assert fs._mem[1].index[0] == 0


class TestSnValidation:
    def _image_with_sn_entry(self, completion_sn):
        img = PMImage()
        _root_with_file(img)
        img.append_log(1, WriteEntry(0, (0,), PAGE_SIZE, 5, sns=((3, 7),)))
        img.commit_log_tail(1, 1)
        img.update_completion_buffer(3, completion_sn)
        return img

    def test_entry_with_unfinished_dma_discarded(self):
        img = self._image_with_sn_entry(completion_sn=6)
        fs = recover(fresh_fs(img), completion_buffer_validator(img))
        assert fs._mem[1].size == 0
        assert fs.recovered_discarded_entries == 1

    def test_entry_with_finished_dma_kept(self):
        img = self._image_with_sn_entry(completion_sn=7)
        fs = recover(fresh_fs(img), completion_buffer_validator(img))
        assert fs._mem[1].size == PAGE_SIZE

    def test_completion_sn_greater_than_entry_is_valid(self):
        img = self._image_with_sn_entry(completion_sn=100)
        fs = recover(fresh_fs(img), completion_buffer_validator(img))
        assert fs._mem[1].size == PAGE_SIZE

    def test_discard_truncates_everything_after(self):
        img = self._image_with_sn_entry(completion_sn=6)
        img.append_log(1, WriteEntry(1, (1,), 2 * PAGE_SIZE, 9, sns=()))
        img.commit_log_tail(1, 2)
        fs = recover(fresh_fs(img), completion_buffer_validator(img))
        # Defensive suffix discard: the later entry goes too.
        assert fs._mem[1].size == 0

    def test_without_validator_sn_entries_pass(self):
        img = self._image_with_sn_entry(completion_sn=6)
        fs = recover(fresh_fs(img))   # sync-filesystem recovery
        assert fs._mem[1].size == PAGE_SIZE


class TestNamespaceRecovery:
    def test_full_namespace_round_trip(self):
        def scenario(fs):
            yield from fs.mkdir(fs.context(), "/d")
            ino = yield from fs.create(fs.context(), "/d/f")
            yield from fs.write(fs.context(), ino, 0, 2 * PAGE_SIZE)
            yield from fs.create(fs.context(), "/top")
        live, img = build_and_crash(scenario)
        recovered = recover(fresh_fs(img))
        assert snapshot_namespace(recovered) == snapshot_namespace(live)

    def test_orphan_inode_dropped(self):
        img = PMImage()
        img.put_inode(0, Inode(0, FileKind.DIR, 2, 0))
        img.put_inode(9, Inode(9, FileKind.FILE, 1, 0))  # no dentry
        fs = recover(fresh_fs(img))
        assert 9 not in fs._mem

    def test_unlink_survives_crash(self):
        def scenario(fs):
            yield from fs.create(fs.context(), "/a")
            yield from fs.create(fs.context(), "/b")
            yield from fs.unlink(fs.context(), "/a")
        _live, img = build_and_crash(scenario)
        fs = recover(fresh_fs(img))
        names = snapshot_namespace(fs)
        assert "/b" in names and "/a" not in names

    def test_rename_crash_is_atomic_at_every_point(self):
        def scenario(fs):
            ino = yield from fs.create(fs.context(), "/old")
            yield from fs.write(fs.context(), ino, 0, PAGE_SIZE)
            yield from fs.rename(fs.context(), "/old", "/new")
        live, _img = build_and_crash(scenario)
        total = live.image.crash_points()
        for k in range(total + 1):
            fs = recover(fresh_fs(live.image.replay(k)))
            names = set(snapshot_namespace(fs))
            # Atomicity: exactly one of the two names (or neither,
            # before the create committed) -- never both-or-neither
            # after the rename started with the file existing.
            assert names in ({"/old"}, {"/new"}, set())

    def test_every_prefix_recovers_without_error(self):
        def scenario(fs):
            yield from fs.mkdir(fs.context(), "/d")
            a = yield from fs.create(fs.context(), "/d/a")
            yield from fs.write(fs.context(), a, 0, 3 * PAGE_SIZE)
            yield from fs.link(fs.context(), "/d/a", "/d/b")
            yield from fs.rename(fs.context(), "/d/a", "/d/c")
            yield from fs.unlink(fs.context(), "/d/b")
            yield from fs.truncate(fs.context(), a, PAGE_SIZE)
        live, _ = build_and_crash(scenario)
        for k in range(live.image.crash_points() + 1):
            fs = recover(fresh_fs(live.image.replay(k)))
            snapshot_namespace(fs)

    def test_recovered_allocator_reuses_dead_pages(self):
        def scenario(fs):
            ino = yield from fs.create(fs.context(), "/a")
            yield from fs.write(fs.context(), ino, 0, PAGE_SIZE)
            yield from fs.write(fs.context(), ino, 0, PAGE_SIZE)  # CoW
        live, img = build_and_crash(scenario)
        fs = recover(fresh_fs(img))
        assert fs.allocator.free_pages >= 1
