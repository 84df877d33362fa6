"""Tests for the simulated PFS: namespace, accounting, cache, striping."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs.costmodel import PFSCostModel
from repro.pfs.simfs import SimulatedPFS


@pytest.fixture()
def fs() -> SimulatedPFS:
    return SimulatedPFS(PFSCostModel(ost_count=4, stripe_size=16))


class TestNamespace:
    def test_create_write_read(self, fs):
        fs.write_file("/a/b", b"hello world")
        assert fs.exists("/a/b")
        assert fs.size("/a/b") == 11
        assert fs.session().open("/a/b").read_all() == b"hello world"

    def test_create_no_overwrite(self, fs):
        fs.create("/x")
        with pytest.raises(FileExistsError):
            fs.create("/x", overwrite=False)

    def test_append_returns_offset(self, fs):
        fs.create("/x")
        assert fs.append("/x", b"abc") == 0
        assert fs.append("/x", b"de") == 3
        assert fs.size("/x") == 5

    def test_missing_file(self, fs):
        with pytest.raises(FileNotFoundError):
            fs.size("/nope")
        with pytest.raises(FileNotFoundError):
            fs.session().open("/nope")

    def test_delete(self, fs):
        fs.write_file("/x", b"1")
        fs.delete("/x")
        assert not fs.exists("/x")
        with pytest.raises(FileNotFoundError):
            fs.delete("/x")

    def test_list_and_total(self, fs):
        fs.write_file("/d/a", b"12")
        fs.write_file("/d/b", b"345")
        fs.write_file("/e/c", b"6")
        assert fs.list_files("/d/") == ["/d/a", "/d/b"]
        assert fs.total_bytes("/d/") == 5
        assert fs.total_bytes() == 6

    def test_prefix_queries_equal_a_scan_of_the_namespace(self, fs, tmp_path):
        """``list_files``/``total_bytes`` bisect a sorted path list; the
        answer is the full scan's — nested and sibling prefixes (``/a/b``
        vs ``/a/bc``), overwrites, deletes, a fault-injecting view that
        shares the namespace, and a reloaded snapshot included."""
        from repro.pfs.faults import FaultyPFS

        view = FaultyPFS(fs)
        paths = [
            "/a/b", "/a/b/c", "/a/b/c/d", "/a/bc", "/a/bc/e", "/a/b0", "/a/b\U0010ffffz",
            "/a", "/ab", "/b/a", "/", "z", "/a/b/c.index", "/a/b.data",
        ]
        for i, path in enumerate(paths):
            (view if i % 3 == 0 else fs).write_file(path, bytes(i + 1))
        fs.write_file("/a/b/c", b"overwritten")
        view.delete("/a/bc")
        fs.delete("/a/b/c/d")
        fs.save(tmp_path / "snap")

        live = {p: fs.size(p) for p in paths if fs.exists(p)}
        assert len(live) == len(paths) - 2
        prefixes = ["", "/", "/a", "/a/", "/a/b", "/a/b/", "/a/bc", "/a/b/c", "/b", "/c"]
        prefixes += ["z", "zz"]
        for handle in (fs, view, SimulatedPFS.load(tmp_path / "snap")):
            for prefix in prefixes:
                want = sorted(p for p in live if p.startswith(prefix))
                assert handle.list_files(prefix) == want, prefix
                assert handle.total_bytes(prefix) == sum(live[p] for p in want), prefix

    def test_stat(self, fs):
        fs.write_file("/s", bytes(40))
        st = fs.stat("/s")
        assert st.size == 40
        assert st.n_stripes == 3  # 40 bytes over 16-byte stripes
        assert 0 <= st.first_ost < 4


class TestReadAccounting:
    def test_open_counted_once_per_session(self, fs):
        fs.write_file("/f", bytes(100))
        s = fs.session()
        s.open("/f")
        s.open("/f")
        assert s.stats.opens == 1
        s2 = fs.session()
        s2.open("/f")
        assert s2.stats.opens == 1

    def test_seek_on_discontinuity_only(self, fs):
        fs.write_file("/f", bytes(100))
        s = fs.session()
        h = s.open("/f")
        h.read(0, 10)      # first read: 1 seek
        h.read(10, 10)     # sequential: no seek
        h.read(50, 10)     # jump: seek
        h.read(60, 5)      # sequential again
        assert s.stats.seeks == 2
        assert s.stats.reads == 4

    def test_out_of_range_read(self, fs):
        fs.write_file("/f", bytes(10))
        h = fs.session().open("/f")
        with pytest.raises(ValueError, match="out of range"):
            h.read(5, 10)
        with pytest.raises(ValueError, match="out of range"):
            h.read(-1, 2)

    def test_bytes_distributed_across_osts(self, fs):
        fs.write_file("/f", bytes(64))  # 4 stripes of 16 over 4 OSTs
        s = fs.session()
        s.open("/f").read(0, 64)
        assert s.stats.bytes_read == 64
        # Every OST gets exactly one stripe.
        assert sorted(s.ost_bytes.tolist()) == [16.0, 16.0, 16.0, 16.0]

    def test_partial_stripe_read(self, fs):
        fs.write_file("/f", bytes(64))
        s = fs.session()
        s.open("/f").read(8, 16)  # second half of stripe 0 + first half of stripe 1
        nonzero = np.sort(s.ost_bytes[s.ost_bytes > 0])
        assert nonzero.tolist() == [8.0, 8.0]


class TestCache:
    def test_cached_rereads_free(self, fs):
        fs.write_file("/f", bytes(100))
        s1 = fs.session()
        s1.open("/f").read(0, 100)
        assert s1.stats.bytes_read == 100
        s2 = fs.session()
        s2.open("/f").read(20, 50)
        assert s2.stats.bytes_read == 0

    def test_partial_overlap_charges_cold_bytes(self, fs):
        fs.write_file("/f", bytes(100))
        s1 = fs.session()
        s1.open("/f").read(0, 50)
        s2 = fs.session()
        s2.open("/f").read(25, 50)  # 25 warm + 25 cold
        assert s2.stats.bytes_read == 25

    def test_clear_cache(self, fs):
        fs.write_file("/f", bytes(100))
        fs.session().open("/f").read(0, 100)
        fs.clear_cache()
        s = fs.session()
        s.open("/f").read(0, 100)
        assert s.stats.bytes_read == 100

    def test_overwrite_drops_cache(self, fs):
        fs.write_file("/f", bytes(100))
        fs.session().open("/f").read(0, 100)
        fs.write_file("/f", bytes(100))
        s = fs.session()
        s.open("/f").read(0, 100)
        assert s.stats.bytes_read == 100

    def test_interval_merging(self, fs):
        fs.write_file("/f", bytes(100))
        s = fs.session()
        h = s.open("/f")
        h.read(0, 30)
        h.read(30, 30)
        h.read(10, 40)  # fully covered by [0, 60)
        assert s.stats.bytes_read == 60


def test_a_dropped_file_system_is_freed_without_a_collection():
    # An open handle must not point back at its session: the session's
    # handle table would close a cycle that keeps the whole file
    # system alive until the cyclic collector runs.
    gc.collect()
    gc.disable()
    try:
        fs = SimulatedPFS()
        config = mloc_col(chunk_shape=(16, 16), n_bins=4)
        MLOCWriter(fs, "/s", config).write(gts_like((64, 64), seed=1), variable="f")
        store = MLOCStore.open(fs, "/s", "f", n_ranks=2)
        store.query(Query(region=((0, 32), (0, 32)), output="values"))
        alive = weakref.ref(fs)
        del fs, store
        assert alive() is None
    finally:
        gc.enable()
