"""Fault plans and the verified, self-healing read path.

Covers the three tentpole guarantees of the fault-injection subsystem:

* a :class:`FaultPlan` is a pure function of its seed — identical
  decisions across plan objects, runs, and attempt orderings;
* the executor's verified read retries transient failures with
  exponential backoff charged to the *simulated* clock, and quarantines
  blocks that exhaust their retries;
* a decoded block can only enter the shared cache after its payload
  passed the CRC check, so the cache can never serve corrupt bytes —
  not even to a later clean store sharing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DegradedResultError, MLOCStore, MLOCWriter, Query, mloc_col
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.pfs.blockcache import BlockCache
from repro.pfs.faults import (
    FaultDecision,
    FaultPlan,
    FaultyPFS,
    TransientIOError,
)

pytestmark = pytest.mark.chaos

BUSY_PLAN = dict(
    transient_error_rate=0.3,
    bitflip_rate=0.2,
    torn_read_rate=0.1,
    sticky_corruption_rate=0.1,
    latency_spike_rate=0.2,
)

_SAMPLE_EXTENTS = [
    (path, offset, length, attempt)
    for path in ("/s/f/bin_0000.data", "/s/f/bin_0003.index")
    for offset in (0, 512, 4096)
    for length in (1, 100, 8192)
    for attempt in (0, 1, 2)
]


# ----------------------------------------------------------------------
# FaultPlan: pure, seeded, validated
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(seed=42, **BUSY_PLAN)
        b = FaultPlan(seed=42, **BUSY_PLAN)
        for ext in _SAMPLE_EXTENTS:
            assert a.decide(*ext) == b.decide(*ext)

    def test_seed_changes_schedule(self):
        a = FaultPlan(seed=1, **BUSY_PLAN)
        b = FaultPlan(seed=2, **BUSY_PLAN)
        assert any(a.decide(*ext) != b.decide(*ext) for ext in _SAMPLE_EXTENTS)

    def test_zero_rates_are_clean(self):
        plan = FaultPlan(seed=7)
        for ext in _SAMPLE_EXTENTS:
            assert plan.decide(*ext).clean

    def test_rate_one_transient_always_fails(self):
        plan = FaultPlan(seed=7, transient_error_rate=1.0)
        for ext in _SAMPLE_EXTENTS:
            assert plan.decide(*ext).transient

    def test_non_subfile_paths_never_faulted(self):
        plan = FaultPlan(
            seed=7, transient_error_rate=1.0, bitflip_rate=1.0, torn_read_rate=1.0
        )
        assert plan.decide("/s/f/meta", 0, 100, 0).clean
        assert plan.decide("/s/f/meta", 0, 100, 0) == FaultDecision()

    def test_rates_validated(self):
        with pytest.raises(ValueError, match="bitflip_rate"):
            FaultPlan(bitflip_rate=1.5)
        with pytest.raises(ValueError, match="latency_spike_seconds"):
            FaultPlan(latency_spike_seconds=-1.0)

    def test_sticky_only_keeps_rot_drops_transients(self):
        plan = FaultPlan(seed=11, sticky_corruption_rate=0.5, **{
            k: v for k, v in BUSY_PLAN.items() if k != "sticky_corruption_rate"
        })
        quiet = FaultPlan(seed=11, sticky_corruption_rate=0.5)
        for ext in _SAMPLE_EXTENTS:
            decision = quiet.decide(*ext)
            assert not decision.transient
            assert decision.torn_length is None
            assert decision.stall_seconds == 0.0
            # Rot is attempt-independent and agrees between the plans.
            path, offset, length, _ = ext
            assert quiet.is_sticky(path, offset, length) == plan.is_sticky(
                path, offset, length
            )

    def test_sticky_flip_is_stable_and_in_range(self):
        plan = FaultPlan(seed=3, sticky_corruption_rate=1.0)
        for length in (1, 7, 4096):
            byte, bit = plan.sticky_flip("/s/f/bin_0000.data", 64, length)
            assert (byte, bit) == plan.sticky_flip("/s/f/bin_0000.data", 64, length)
            assert 0 <= byte < length and 0 <= bit < 8


# ----------------------------------------------------------------------
# FaultyPFS: wrapping, passthrough, injection accounting
# ----------------------------------------------------------------------
def _one_file_fs(payload: bytes = b"x" * 1000):
    fs = SimulatedPFS()
    fs.write_file("/s/f/bin_0000.data", payload)
    return fs


class TestFaultyPFS:
    def test_zero_plan_is_bit_exact_passthrough(self):
        payload = bytes(range(256)) * 4
        fs = _one_file_fs(payload)
        ffs = FaultyPFS(fs)
        assert bytes(ffs.session().open("/s/f/bin_0000.data").read(0, 1024)) == payload
        assert not any(ffs.injected.as_dict().values())

    def test_shared_namespace_with_base(self):
        fs = _one_file_fs()
        ffs = FaultyPFS(fs)
        fs.write_file("/s/f/bin_0001.data", b"later")
        assert ffs.exists("/s/f/bin_0001.data")
        assert fs.exists("/s/f/bin_0000.data")

    def test_cost_model_conflict_rejected(self):
        fs = _one_file_fs()
        with pytest.raises(ValueError, match="cost_model"):
            FaultyPFS(fs, cost_model=fs.cost_model)

    def test_transient_error_attributes_and_accounting(self):
        fs = _one_file_fs()
        ffs = FaultyPFS(fs, FaultPlan(seed=5, transient_error_rate=1.0))
        session = ffs.session()
        handle = session.open("/s/f/bin_0000.data")
        seeks_before = session.stats.seeks
        with pytest.raises(TransientIOError) as excinfo:
            handle.read(100, 50)
        assert excinfo.value.path == "/s/f/bin_0000.data"
        assert excinfo.value.offset == 100
        assert excinfo.value.length == 50
        assert excinfo.value.attempt == 0
        # The failed request still positioned the handle: one seek.
        assert session.stats.seeks == seeks_before + 1
        assert ffs.injected.transient_errors == 1
        # Attempt numbering advances per retry of the same extent.
        with pytest.raises(TransientIOError) as excinfo:
            handle.read(100, 50)
        assert excinfo.value.attempt == 1

    def test_reset_attempts_replays_the_same_draws(self):
        fs = _one_file_fs()
        plan = FaultPlan(seed=9, **BUSY_PLAN)
        ffs = FaultyPFS(fs, plan)

        def draw_round():
            out = []
            session = ffs.session()
            handle = session.open("/s/f/bin_0000.data")
            for offset in (0, 128, 512):
                try:
                    out.append(bytes(handle.read(offset, 64)))
                except TransientIOError:
                    out.append(None)
            return out

        first = draw_round()
        ffs.reset_attempts()
        assert draw_round() == first

    def test_latency_spike_charges_session_stall(self):
        fs = _one_file_fs()
        ffs = FaultyPFS(
            fs, FaultPlan(seed=2, latency_spike_rate=1.0, latency_spike_seconds=0.25)
        )
        session = ffs.session()
        session.open("/s/f/bin_0000.data").read(0, 100)
        assert session.stats.stall_seconds == pytest.approx(0.25)
        assert ffs.injected.latency_spikes == 1

    def test_with_plan_shares_files(self):
        fs = _one_file_fs(b"\x00" * 64)
        ffs = FaultyPFS(fs, FaultPlan(seed=1, bitflip_rate=1.0))
        quiet = FaultyPFS(fs, FaultPlan())
        data = bytes(quiet.session().open("/s/f/bin_0000.data").read(0, 64))
        assert data == b"\x00" * 64


# ----------------------------------------------------------------------
# Executor: retry/backoff on the simulated clock, quarantine, cache
# ----------------------------------------------------------------------
class _FirstAttemptFails(FaultPlan):
    """Every subfile extent fails exactly its first read attempt."""

    def decide(self, path, offset, length, attempt):
        if not self.applies_to(path) or length <= 0 or attempt > 0:
            return FaultDecision()
        return FaultDecision(transient=True)


def _small_store(fs=None, **options):
    if fs is None:
        fs = SimulatedPFS()
        config = mloc_col(chunk_shape=(16, 16), n_bins=4, target_block_bytes=2048)
        MLOCWriter(fs, "/s", config).write(gts_like((64, 64), seed=4), variable="f")
    return fs, MLOCStore.open(fs, "/s", "f", n_ranks=4, **options)


class TestVerifiedReadPath:
    def test_retry_recovers_and_charges_backoff(self):
        fs, clean_store = _small_store()
        ffs = FaultyPFS(fs, _FirstAttemptFails(seed=0))
        _, store = _small_store(ffs, max_read_retries=1, read_backoff=0.02)
        query = Query(value_range=(-np.inf, np.inf), output="values")
        fs.clear_cache()
        expected = clean_store.query(query)
        fs.clear_cache()
        result = store.query(query)
        # Every extent failed once and succeeded on retry: identical
        # answer, no quarantine, and one backoff stall per retry.
        assert np.array_equal(result.positions, expected.positions)
        assert np.array_equal(result.values, expected.values)
        assert result.stats["io_retries"] > 0
        assert result.stats["crc_failures"] == 0
        assert result.stats["quarantined_blocks"] == 0
        assert result.stats["stall_seconds"] == pytest.approx(
            0.02 * result.stats["io_retries"]
        )
        # The stalls flow into the cost model's response time.
        assert result.times.io > expected.times.io

    def test_exhausted_retries_quarantine_with_exact_accounting(self):
        fs, _ = _small_store()
        ffs = FaultyPFS(fs, FaultPlan(seed=0, transient_error_rate=1.0))
        retries, backoff = 2, 0.01
        _, store = _small_store(
            ffs, max_read_retries=retries, read_backoff=backoff, allow_partial=True
        )
        fs.clear_cache()
        result = store.query(Query(output="values"))
        # Every index block fails all attempts -> quarantined; with the
        # whole index gone every chunk is dropped before any data read.
        quarantined = result.stats["quarantined_blocks"]
        total_index_blocks = len(store.meta.index_blocks.rows)
        assert quarantined == total_index_blocks
        assert result.n_results == 0
        assert result.stats["dropped_points"] == store.n_elements
        assert sorted(result.stats["partial_chunks"]) == list(
            range(store.grid.n_chunks)
        )
        # Retry/backoff accounting is exact: R retries per extent, with
        # backoff * (2**R - 1) simulated stall each.
        assert result.stats["io_retries"] == retries * quarantined
        assert result.stats["stall_seconds"] == pytest.approx(
            quarantined * backoff * (2**retries - 1)
        )
        for (path, offset), reason in store.quarantined_blocks.items():
            assert path.endswith(".index") and offset >= 0
            assert "transient" in reason

    def test_strict_mode_raises_degraded_result_error(self):
        fs, _ = _small_store()
        ffs = FaultyPFS(fs, FaultPlan(seed=0, transient_error_rate=1.0))
        _, store = _small_store(ffs, max_read_retries=0)
        fs.clear_cache()
        with pytest.raises(DegradedResultError) as excinfo:
            store.query(Query(output="values"))
        assert excinfo.value.kind == "index"
        assert "allow_partial" in str(excinfo.value)

    def test_quarantine_persists_across_queries(self):
        fs, _ = _small_store()
        ffs = FaultyPFS(
            fs, FaultPlan(seed=1, sticky_corruption_rate=0.4, fault_suffixes=(".data",))
        )
        _, store = _small_store(ffs, max_read_retries=1, allow_partial=True)
        fs.clear_cache()
        store.query(Query(output="values"))
        first = set(store.quarantined_blocks)
        assert first
        fs.clear_cache()
        ffs.reset_attempts()
        second = store.query(Query(output="values"))
        # Rot is sticky: the same blocks stay quarantined, answered by
        # the degradation policy without burning fresh retries on them.
        assert set(store.quarantined_blocks) == first
        assert second.stats["io_retries"] == 0

    def test_cache_never_serves_a_corrupt_decode(self):
        fs, reference_store = _small_store()
        query = Query(value_range=(-np.inf, np.inf), output="values")
        fs.clear_cache()
        expected = reference_store.query(query)

        cache = BlockCache(32 << 20)
        ffs = FaultyPFS(fs, FaultPlan(seed=6, sticky_corruption_rate=0.5))
        _, faulty_store = _small_store(
            ffs, cache=cache, max_read_retries=1, allow_partial=True
        )
        fs.clear_cache()
        damaged = faulty_store.query(query)
        assert damaged.stats["quarantined_blocks"] > 0
        assert damaged.n_results < expected.n_results

        # A clean store sharing the *same* cache object must answer
        # bit-identically: only CRC-verified decodes ever entered it.
        _, clean_store = _small_store(fs, cache=cache)
        fs.clear_cache()
        result = clean_store.query(query)
        assert np.array_equal(result.positions, expected.positions)
        assert np.array_equal(result.values, expected.values)
