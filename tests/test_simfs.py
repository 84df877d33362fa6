"""Tests for the simulated PFS: namespace, accounting, cache, striping."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs.costmodel import IOStats, PFSCostModel
from repro.pfs.faults import FaultyPFS
from repro.pfs.simfs import SimulatedPFS, _ExtentCache


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
        """A file's size, and the OST its first stripe lands on: one
        the cost model has, drawn from the path alone."""
        fs.write_file("/s", bytes(40))
        assert fs.size("/s") == 40
        first = fs._files["/s"].first_ost
        assert 0 <= first < fs.cost_model.ost_count == 4
        fs.delete("/s")
        fs.write_file("/s", bytes(8))
        assert fs._files["/s"].first_ost == first


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


class _ReferenceReader:
    """The NumPy read accounting the scalar per-OST charge replaced:
    an int64 load vector over every OST, scaled by ``cold / total`` and
    added whole.  Kept as the oracle the handles must match bit for bit."""

    def __init__(self, fs: SimulatedPFS) -> None:
        self.fs = fs
        self.cache = _ExtentCache()
        self.stats = IOStats()
        self.ost_bytes = np.zeros(fs.cost_model.ost_count, dtype=np.float64)
        self.pos: dict[str, int | None] = {}

    def _ost_loads(self, path, offset, length):
        cost = self.fs.cost_model
        loads = np.zeros(cost.ost_count, dtype=np.int64)
        if length <= 0:
            return loads
        stripe = cost.stripe_size
        first = offset // stripe
        last = (offset + length - 1) // stripe
        stripes = np.arange(first, last + 1, dtype=np.int64)
        starts = np.maximum(stripes * stripe, offset)
        ends = np.minimum((stripes + 1) * stripe, offset + length)
        osts = (self.fs._files[path].first_ost + stripes) % cost.ost_count
        np.add.at(loads, osts, ends - starts)
        return loads

    def read(self, path, offset, length):
        if path not in self.pos:  # the session opens each path once
            self.stats.opens += 1
            self.pos[path] = None
        if self.pos[path] != offset:
            self.stats.seeks += 1
        self.pos[path] = offset + length
        self.stats.reads += 1
        cold = self.cache.uncached_bytes(path, offset, length)
        if cold > 0:
            loads = self._ost_loads(path, offset, length)
            total = int(loads.sum())
            if total > 0:
                self.ost_bytes += loads.astype(np.float64) * (cold / total)
            self.stats.bytes_read += cold
            self.cache.mark(path, offset, length)


class TestReadAccountingOracle:
    """Seeded reads through real handles against the reference charge:
    ``ost_bytes`` array-equal and ``IOStats`` equal."""

    SIZES = {"/o/a": 7 * 1024 * 3 + 5, "/o/b": 1024 * 3, "/o/c": 999}

    def _fs(self, faulty: bool) -> SimulatedPFS:
        # Stripes of 1 KiB over 5 OSTs: long reads wrap round the OSTs.
        fs = SimulatedPFS(PFSCostModel(ost_count=5, stripe_size=1024))
        rng = np.random.default_rng(0)
        for path, size in self.SIZES.items():
            fs.write_file(path, rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        return FaultyPFS(fs) if faulty else fs

    def _reads(self, seed: int) -> list[tuple[str, int, int]]:
        rng = np.random.default_rng(seed)
        stripe = 1024
        reads = []
        for _ in range(300):
            path = str(rng.choice(list(self.SIZES)))
            size = self.SIZES[path]
            kind = rng.integers(5)
            if kind == 0:  # inside one stripe
                s = int(rng.integers(size // stripe + 1))
                lo = min(s * stripe + int(rng.integers(stripe)), size)
                hi = min(int(rng.integers(lo, (s + 1) * stripe + 1)), size)
            elif kind == 1:  # stripe-aligned
                lo = int(rng.integers(size // stripe + 1)) * stripe
                hi = min(lo + int(rng.integers(1, 4)) * stripe, size)
                lo = min(lo, hi)
            elif kind == 2:  # zero length
                lo = hi = int(rng.integers(size + 1))
            else:  # stripe-crossing, up to past every OST
                lo = int(rng.integers(size))
                hi = int(rng.integers(lo, min(size, lo + 9 * stripe) + 1))
            reads.append((path, lo, hi - lo))
        return reads

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_reads_charge_what_the_reference_charges(self, faulty, seed):
        fs = self._fs(faulty)
        session = fs.session()
        reference = _ReferenceReader(fs)
        for i, (path, offset, length) in enumerate(self._reads(seed)):
            if i % 100 == 99:  # later reads are partly cached, then cold again
                fs.clear_cache()
                reference.cache.clear()
            data = session.open(path).read(offset, length)
            reference.read(path, offset, length)
            assert data == fs._files[path].data[offset : offset + length]
        assert np.array_equal(session.ost_bytes, reference.ost_bytes)
        assert session.stats == reference.stats
        assert session.stats.reads == 300 and session.stats.bytes_read > 0

    @pytest.mark.parametrize("faulty", [False, True])
    def test_read_all_of_a_three_stripe_file(self, faulty):
        fs = self._fs(faulty)
        session = fs.session()
        reference = _ReferenceReader(fs)
        session.open("/o/b").read(100, 50)  # partly cached first
        reference.read("/o/b", 100, 50)
        assert session.open("/o/b").read_all() == bytes(fs._files["/o/b"].data)
        reference.read("/o/b", 0, fs.size("/o/b"))
        assert np.array_equal(session.ost_bytes, reference.ost_bytes)
        assert session.stats == reference.stats


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
