"""Tests for the per-bin subfiling layout helpers."""

import pytest

from repro.pfs.costmodel import IOStats, PFSCostModel
from repro.pfs.layout import BinFileSet, aggregate_parallel_time
from repro.pfs.simfs import SimulatedPFS
from tests.test_costmodel import one_client


class TestBinFileSet:
    def test_paths(self):
        files = BinFileSet("/data/var", 3)
        assert files.data_path(0) == "/data/var/bin0000.data"
        assert files.index_path(2) == "/data/var/bin0002.index"
        assert files.meta_path == "/data/var/meta"
        assert len(files.all_data_paths()) == 3
        assert len(files.all_index_paths()) == 3

    def test_bin_id_range_checked(self):
        files = BinFileSet("/d", 2)
        with pytest.raises(ValueError, match="out of range"):
            files.data_path(2)
        with pytest.raises(ValueError, match="out of range"):
            files.index_path(-1)

    def test_requires_positive_bins(self):
        with pytest.raises(ValueError):
            BinFileSet("/d", 0)

    def test_create_and_account(self):
        fs = SimulatedPFS()
        files = BinFileSet("/d/v", 2)
        fs.write_file(files.data_path(0), b"12345")
        fs.write_file(files.data_path(1), b"12")
        fs.write_file(files.index_path(0), b"9")
        fs.write_file(files.index_path(1), b"")
        assert files.data_bytes(fs) == 7
        assert files.index_bytes(fs) == 1

    def test_trailing_slash_normalized(self):
        assert BinFileSet("/d/v/", 1).data_path(0) == "/d/v/bin0000.data"


class TestAggregateParallelTime:
    def test_empty_sessions(self):
        model = PFSCostModel()
        assert aggregate_parallel_time(model, []) == 0.0

    def test_combines_rank_ost_loads(self):
        model = PFSCostModel(ost_count=2, ost_bandwidth=100e6, client_bandwidth=1e12)
        fs = SimulatedPFS(model)
        fs.write_file("/f", bytes(2 * model.stripe_size))
        s1 = fs.session()
        s1.open("/f").read(0, model.stripe_size)
        fs.clear_cache()
        s2 = fs.session()
        s2.open("/f").read(model.stripe_size, model.stripe_size)
        t = aggregate_parallel_time(model, [s1, s2])
        serial = one_client(model, IOStats(opens=1, seeks=1, bytes_read=model.stripe_size))
        # Two ranks on two different OSTs beat one rank doing both reads.
        assert 0 < t < 2 * serial
