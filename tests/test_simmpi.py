"""Tests for the simulated MPI communicator."""

import numpy as np
import pytest

from repro.parallel.simmpi import CommCostModel, SimCommunicator, payload_nbytes


class TestPayloadNbytes:
    def test_arrays_and_bytes(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(b"abc") == 3
        assert payload_nbytes(None) == 0
        assert payload_nbytes(3.14) == 8

    def test_containers_recursive(self):
        assert payload_nbytes([np.zeros(2), b"ab"]) == 18
        assert payload_nbytes({"k": b"abcd"}) == 4 + 64  # value + opaque key

    def test_opaque_object(self):
        class Thing:
            pass

        assert payload_nbytes(Thing()) == 64

    def test_object_with_nbytes(self):
        class Sized:
            nbytes = 123

        assert payload_nbytes(Sized()) == 123


class TestCollectives:
    def test_gather_returns_all(self):
        comm = SimCommunicator(3)
        assert comm.gather([1, 2, 3]) == [1, 2, 3]
        assert comm.comm_seconds > 0

    def test_contribution_count_checked(self):
        comm = SimCommunicator(3)
        with pytest.raises(ValueError, match="one contribution per rank"):
            comm.gather([1, 2])

    def test_bcast(self):
        comm = SimCommunicator(4)
        assert comm.bcast("v") == ["v"] * 4

    def test_allreduce_or(self):
        comm = SimCommunicator(3)
        result = comm.allreduce([{1}, {2}, {3}], lambda a, b: a | b)
        assert result == {1, 2, 3}

    def test_allreduce_empty_rejected(self):
        comm = SimCommunicator(1)
        # size-1 communicator still needs exactly one contribution
        assert comm.allreduce([5], lambda a, b: a + b) == 5

    def test_allgather(self):
        comm = SimCommunicator(2)
        assert comm.allgather(["a", "b"]) == ["a", "b"]

    def test_single_rank_free(self):
        comm = SimCommunicator(1)
        comm.gather([np.zeros(1000)])
        assert comm.comm_seconds == 0.0

    def test_size_validated(self):
        with pytest.raises(ValueError):
            SimCommunicator(0)


class TestCommCost:
    def test_cost_grows_with_payload(self):
        model = CommCostModel()
        small = model.collective_seconds(8, 100)
        big = model.collective_seconds(8, 1_000_000)
        assert big > small

    def test_log_latency_term(self):
        model = CommCostModel(latency=1.0, byte_time=0.0)
        assert model.collective_seconds(8, 0) == pytest.approx(3.0)
        assert model.collective_seconds(2, 0) == pytest.approx(1.0)

    def test_comm_seconds_accumulate(self):
        comm = SimCommunicator(4)
        comm.gather([b"x" * 1000] * 4)
        first = comm.comm_seconds
        comm.gather([b"x" * 1000] * 4)
        assert comm.comm_seconds == pytest.approx(2 * first)
