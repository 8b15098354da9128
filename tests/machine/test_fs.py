"""Tests for the deterministic in-guest filesystem."""

import random

import pytest

from repro.core import PASSTHROUGH
from repro.machine import FileSystemError, Host, SimpleFileSystem
from repro.machine.fs import BLOCK_SIZE
from repro.mitigation import PassthroughPolicy
from repro.net import Network
from repro.sim import Simulator
from repro.vmm import ReplicaVMM


def make_fs(seed=1, cache_blocks=64):
    sim = Simulator(seed=seed)
    network = Network(sim)
    host = Host(sim, 0, network, jitter_sigma=0.0)
    vmm = ReplicaVMM(sim, host, "vm1", 0, PASSTHROUGH, random.Random(7),
                     PassthroughPolicy())
    fs = SimpleFileSystem(vmm.guest, cache_blocks=cache_blocks)
    vmm.start()
    return sim, vmm, fs


class TestPathsAndMetadata:
    def test_preload_and_lookup(self):
        _, _, fs = make_fs()
        fs.preload_file("/a/b/file.txt", 1000)
        inode = fs.lookup("/a/b/file.txt")
        assert inode.size == 1000
        assert fs.lookup("/a").is_dir

    def test_missing_path_raises(self):
        _, _, fs = make_fs()
        with pytest.raises(FileSystemError):
            fs.lookup("/nope")

    def test_getattr_fields(self):
        _, _, fs = make_fs()
        fs.preload_file("/f", 4097)
        attrs = fs.getattr("/f")
        assert attrs["size"] == 4097
        assert attrs["kind"] == "file"

    def test_duplicate_preload_rejected(self):
        _, _, fs = make_fs()
        fs.preload_file("/f", 10)
        with pytest.raises(FileSystemError):
            fs.preload_file("/f", 20)

    def test_exists(self):
        _, _, fs = make_fs()
        fs.preload_file("/f", 1)
        assert fs.exists("/f")
        assert not fs.exists("/g")


class TestJournalledMutations:
    def test_create_commits_through_journal(self):
        sim, _, fs = make_fs()
        created = []
        fs.create("/newfile", created.append)
        assert fs.exists("/newfile")      # visible immediately
        assert created == []              # but not yet committed
        sim.run(until=0.2)
        assert len(created) == 1
        assert fs.stats["journal_commits"] == 1

    def test_create_in_missing_dir_rejected(self):
        _, _, fs = make_fs()
        with pytest.raises(FileSystemError):
            fs.create("/no/such/dir/f", lambda inode: None)

    def test_mkdir_then_create(self):
        sim, _, fs = make_fs()
        done = []
        fs.mkdir("/d", lambda i: fs.create("/d/f", done.append))
        sim.run(until=0.3)
        assert len(done) == 1
        assert fs.lookup("/d/f").kind == "file"

    def test_setattr_truncate(self):
        sim, _, fs = make_fs()
        fs.preload_file("/f", 10_000)
        fs.setattr("/f", lambda i: None, truncate_to=100)
        assert fs.lookup("/f").size == 100

    def test_unlink_removes_and_drops_cache(self):
        sim, _, fs = make_fs()
        fs.preload_file("/f", BLOCK_SIZE * 4)
        done = []
        fs.read("/f", 0, BLOCK_SIZE * 4, lambda n: None)
        sim.run(until=0.2)
        assert len(fs._cache) == 4
        fs.unlink("/f", done.append)
        sim.run(until=0.4)
        assert not fs.exists("/f")
        assert len(fs._cache) == 0

    def test_unlink_nonempty_dir_rejected(self):
        _, _, fs = make_fs()
        fs.preload_file("/d/f", 1)
        with pytest.raises(FileSystemError):
            fs.unlink("/d", lambda i: None)


class TestDataPathAndCache:
    def test_cold_read_hits_disk_warm_read_does_not(self):
        sim, vmm, fs = make_fs()
        fs.preload_file("/f", BLOCK_SIZE * 8)
        reads = []
        fs.read("/f", 0, BLOCK_SIZE * 8, reads.append)
        sim.run(until=0.3)
        assert reads == [BLOCK_SIZE * 8]
        assert fs.stats["cache_misses"] == 8
        disk_before = vmm.stats["disk_interrupts"]
        fs.read("/f", 0, BLOCK_SIZE * 8, reads.append)
        sim.run(until=0.6)
        assert reads[-1] == BLOCK_SIZE * 8
        assert vmm.stats["disk_interrupts"] == disk_before  # pure hit
        assert fs.stats["cache_hits"] == 8

    def test_read_past_eof_truncated(self):
        sim, _, fs = make_fs()
        fs.preload_file("/f", 100)
        got = []
        fs.read("/f", 50, 1000, got.append)
        sim.run(until=0.2)
        assert got == [50]

    def test_read_at_eof_returns_zero_immediately(self):
        _, _, fs = make_fs()
        fs.preload_file("/f", 100)
        got = []
        fs.read("/f", 100, 10, got.append)
        assert got == [0]

    def test_write_extends_size_and_dirties_cache(self):
        sim, _, fs = make_fs()
        fs.preload_file("/f", 0)
        done = []
        fs.write("/f", 0, BLOCK_SIZE * 2 + 1, done.append)
        sim.run(until=0.2)
        assert done == [BLOCK_SIZE * 2 + 1]
        assert fs.lookup("/f").size == BLOCK_SIZE * 2 + 1
        assert sum(1 for dirty in fs._cache.values() if dirty) == 3

    def test_lru_eviction_flushes_dirty_blocks(self):
        sim, _, fs = make_fs(cache_blocks=4)
        fs.preload_file("/f", BLOCK_SIZE * 16)
        fs.write("/f", 0, BLOCK_SIZE * 4, lambda n: None)
        # reading far blocks evicts the dirty ones
        fs.read("/f", BLOCK_SIZE * 8, BLOCK_SIZE * 8, lambda n: None)
        sim.run(until=0.5)
        assert fs.stats["flushes"] >= 4
        assert len(fs._cache) <= 4

    def test_directory_data_ops_rejected(self):
        _, _, fs = make_fs()
        fs.preload_file("/d/f", 1)
        with pytest.raises(FileSystemError):
            fs.read("/d", 0, 10, lambda n: None)
        with pytest.raises(FileSystemError):
            fs.write("/d", 0, 10, lambda n: None)

    def test_fingerprint_tracks_state(self):
        sim, _, fs = make_fs()
        fs.preload_file("/f", 100)
        before = fs.fingerprint()
        fs.write("/f", 0, 50, lambda n: None)
        assert fs.fingerprint() != before
