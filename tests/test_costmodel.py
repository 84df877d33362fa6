"""Tests for the PFS cost model: monotonicity and scaling semantics."""

import pytest

from repro.pfs.costmodel import IOStats, PFSCostModel


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ost_count": 0},
            {"stripe_size": 0},
            {"ost_bandwidth": -1},
            {"client_bandwidth": 0},
            {"seek_time": -0.1},
            {"byte_scale": 0},
            {"cores_per_node": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            PFSCostModel(**kwargs)


def one_client(model: PFSCostModel, stats: IOStats) -> float:
    """A lone client's seconds: one rank, every byte on one OST."""
    per_ost = [stats.bytes_read] + [0] * (model.ost_count - 1)
    return model.parallel_time([stats], per_ost)


class TestSerialTime:
    def test_components_additive(self):
        m = PFSCostModel(ost_bandwidth=100e6, seek_time=0.01, open_time=0.001)
        t = one_client(m, IOStats(opens=2, seeks=3, bytes_read=100_000_000))
        assert t == pytest.approx(2 * 0.001 + 3 * 0.01 + 1.0)

    def test_monotone_in_bytes(self):
        m = PFSCostModel()
        t1 = one_client(m, IOStats(bytes_read=1000))
        t2 = one_client(m, IOStats(bytes_read=2000))
        assert t2 > t1

    def test_client_bandwidth_bounds_serial(self):
        # A slow node link dominates a fast OST.
        m = PFSCostModel(ost_bandwidth=1e9, client_bandwidth=1e6)
        t = one_client(m, IOStats(bytes_read=1_000_000))
        assert t == pytest.approx(1.0)

    def test_byte_scale_multiplies_transfer(self):
        base = PFSCostModel(seek_time=0.0, open_time=0.0)
        scaled = PFSCostModel(seek_time=0.0, open_time=0.0, byte_scale=10.0)
        s = IOStats(bytes_read=1_000_000)
        assert one_client(scaled, s) == pytest.approx(10 * one_client(base, s))


class TestParallelTime:
    def test_wrong_ost_vector_length(self):
        m = PFSCostModel(ost_count=4)
        with pytest.raises(ValueError, match="expected 4"):
            m.parallel_time([], [0, 0])

    def test_max_ost_governs_transfer(self):
        m = PFSCostModel(
            ost_count=2, ost_bandwidth=100e6, client_bandwidth=1e12, seek_time=0, open_time=0
        )
        # One hot OST: 200 MB on OST 0 -> 2 s regardless of OST 1.
        t = m.parallel_time([IOStats()], [200_000_000, 0])
        assert t == pytest.approx(2.0)
        balanced = m.parallel_time([IOStats()], [100_000_000, 100_000_000])
        assert balanced == pytest.approx(1.0)

    def test_node_link_bounds_aggregate(self):
        m = PFSCostModel(
            ost_count=4, ost_bandwidth=100e6, client_bandwidth=200e6, seek_time=0, open_time=0
        )
        # 4 x 100 MB spread perfectly: OST-bound says 1 s, node says 2 s.
        t = m.parallel_time([IOStats()], [100_000_000] * 4)
        assert t == pytest.approx(2.0)

    def test_rank_overhead_is_max(self):
        m = PFSCostModel(seek_time=0.01, open_time=0.0)
        light = IOStats(seeks=1)
        heavy = IOStats(seeks=10)
        t = m.parallel_time([light, heavy], [0] * m.ost_count)
        assert t == pytest.approx(0.1)

    def test_empty_access_is_free(self):
        m = PFSCostModel()
        assert m.parallel_time([], [0] * m.ost_count) == 0.0


class TestCpuScale:
    def test_scaled_bytes(self):
        assert PFSCostModel(byte_scale=3.0).scaled_bytes(10) == 30.0

    def test_cpu_seconds_scale_with_byte_scale(self):
        # (bytes x byte_scale) / throughput, in that order.
        assert PFSCostModel().cpu_seconds(10, 4.0) == 2.5
        assert PFSCostModel(byte_scale=7.0).cpu_seconds(10, 4.0) == 17.5


class TestIOStats:
    def test_merge(self):
        a = IOStats(opens=1, seeks=2, bytes_read=3, reads=4)
        b = IOStats(opens=10, seeks=20, bytes_read=30, reads=40)
        a.merge(b)
        assert (a.opens, a.seeks, a.bytes_read, a.reads) == (11, 22, 33, 44)

    def test_copy_is_independent(self):
        a = IOStats(opens=1)
        c = a.copy()
        c.opens = 99
        assert a.opens == 1


class TestMultiNode:
    def test_node_links_aggregate_with_ranks(self):
        """The paper's 128-process runs span nodes, so the node-link
        bound relaxes as ranks grow (Fig. 7's 2 GB/s aggregate)."""
        m = PFSCostModel(
            ost_count=16,
            ost_bandwidth=100e6,
            client_bandwidth=400e6,
            cores_per_node=16,
            seek_time=0,
            open_time=0,
        )
        per_ost = [100_000_000] * 16  # 1.6 GB spread evenly
        one_node = m.parallel_time([IOStats()] * 8, per_ost)
        many_nodes = m.parallel_time([IOStats()] * 128, per_ost)
        assert one_node == pytest.approx(1.6e9 / 400e6)  # node-link bound
        # 8 nodes x 400 MB/s = 3.2 GB/s > 16 OSTs x 100 MB/s = 1.6 GB/s:
        # the OST side becomes the binding constraint.
        assert many_nodes == pytest.approx(1.0)

    def test_cores_per_node_validated(self):
        with pytest.raises(ValueError):
            PFSCostModel(cores_per_node=0)
