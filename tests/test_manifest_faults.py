"""Crash safety of the append protocol under scripted write faults.

``FaultyPFS.fail_next_write`` crashes an append at chosen points —
mid member seal, before the manifest commit, or mid commit (torn) —
and these tests pin the recovery contract from FORMAT.md:

* a failed append leaves the previous generation *fully readable* and
  bit-identical (never a half-sealed member, never a lost one);
* a torn manifest commit is invisible to readers and retryable;
* leftovers of the crash are exactly what ``fsck --dataset`` reports
  (``manifest-torn`` / ``orphaned-member``), and a successful retry
  clears them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ManifestError, MLOCDataset, Query, load_manifest, mloc_col
from repro.datasets import gts_like
from repro.pfs.faults import FaultyPFS, WriteInterrupted
from repro.tools.fsck import check_dataset

QUERY = Query(region=((8, 40), (8, 40)), output="values")


def _config():
    return mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)


@pytest.fixture()
def faulty_dataset():
    """Two sealed timesteps on a fault-capable PFS, plus their answers."""
    fs = FaultyPFS()
    ds = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    for t in range(2):
        ds.append(gts_like((64, 64), seed=t), "temp", t)
    baseline = {
        t: ds.snapshot().store("temp", t).query(QUERY) for t in range(2)
    }
    return fs, ds, baseline


def _assert_previous_generation_intact(fs, baseline, *, generation=2):
    """A *fresh* handle sees the old generation, bit-identically."""
    check = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    assert check.generation == generation
    snap = check.snapshot()
    assert snap.timesteps("temp") == list(range(generation))
    for t, expected in baseline.items():
        got = snap.store("temp", t).query(QUERY)
        assert np.array_equal(got.positions, expected.positions)
        assert np.array_equal(got.values, expected.values)


def test_torn_manifest_commit_preserves_previous_generation(faulty_dataset):
    fs, ds, baseline = faulty_dataset
    fs.fail_next_write("manifest.g", torn_at=13)
    with pytest.raises(WriteInterrupted):
        ds.append(gts_like((64, 64), seed=2), "temp", 2)
    assert fs.injected.interrupted_writes == 1

    _assert_previous_generation_intact(fs, baseline)
    # The torn leftover is on disk but unreadable; fsck calls it out.
    issues = check_dataset(fs, "/ds")
    assert any(i.kind == "manifest-torn" for i in issues)

    # Retrying the append succeeds by overwriting the torn leftover.
    ds2 = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    ds2.append(gts_like((64, 64), seed=2), "temp", 2)
    assert ds2.generation == 3
    assert check_dataset(fs, "/ds") == []


def test_lost_manifest_commit_leaves_only_orphans(faulty_dataset):
    """Crash *before* the manifest write is durable: the new member's
    files exist but no generation references them."""
    fs, ds, baseline = faulty_dataset
    fs.fail_next_write("manifest.g")  # nothing committed
    with pytest.raises(WriteInterrupted):
        ds.append(gts_like((64, 64), seed=2), "temp", 2)

    _assert_previous_generation_intact(fs, baseline)
    issues = check_dataset(fs, "/ds")
    orphans = [i for i in issues if i.kind == "orphaned-member"]
    assert len(orphans) == 1
    assert "temp@000002" in orphans[0].location
    # A half-sealed member is never *exposed*: snapshots don't list it.
    snap = MLOCDataset(fs, "/ds", _config(), n_ranks=4).snapshot()
    assert 2 not in snap.timesteps("temp")


def test_interrupted_member_seal_never_commits(faulty_dataset):
    """Crash mid member subfile write: generation unchanged, nothing
    half-sealed becomes visible, prior data bit-identical."""
    fs, ds, baseline = faulty_dataset
    fs.fail_next_write("temp@000002", torn_at=7)
    with pytest.raises(WriteInterrupted):
        ds.append(gts_like((64, 64), seed=2), "temp", 2)

    assert load_manifest(fs, "/ds").generation == 2
    _assert_previous_generation_intact(fs, baseline)
    # Whatever partial files exist are orphans, not members.
    issues = check_dataset(fs, "/ds")
    assert {i.kind for i in issues} <= {"orphaned-member"}


def test_repeated_crashes_then_success(faulty_dataset):
    """Every failed attempt is recoverable; the first clean attempt
    commits and fsck comes back green (modulo earlier orphans)."""
    fs, ds, baseline = faulty_dataset
    for attempt, (match, torn) in enumerate(
        [("temp@000002", None), ("manifest.g", 5), ("manifest.g", None)]
    ):
        fs.fail_next_write(match, torn_at=torn)
        handle = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
        with pytest.raises(WriteInterrupted):
            handle.append(gts_like((64, 64), seed=2), "temp", 2)
        _assert_previous_generation_intact(fs, baseline)

    final = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    final.append(gts_like((64, 64), seed=2), "temp", 2)
    assert final.generation == 3
    assert final.snapshot().timesteps("temp") == [0, 1, 2]
    assert check_dataset(fs, "/ds") == []


def test_stale_handle_after_crash_refuses_wrong_generation(faulty_dataset):
    """A handle that crashed mid-append can keep appending: its next
    attempt reloads the on-disk chain rather than trusting memory."""
    fs, ds, baseline = faulty_dataset
    fs.fail_next_write("manifest.g", torn_at=3)
    with pytest.raises(WriteInterrupted):
        ds.append(gts_like((64, 64), seed=2), "temp", 2)
    # Same (now stale) handle retries a *different* timestep: the chain
    # advances from the last durable generation, not the in-memory one.
    ds.append(gts_like((64, 64), seed=3), "temp", 3)
    assert load_manifest(fs, "/ds").generation == 3
    snap = MLOCDataset(fs, "/ds", _config(), n_ranks=4).snapshot()
    assert snap.timesteps("temp") == [0, 1, 3]
    with pytest.raises(ManifestError, match="already sealed"):
        ds.append(gts_like((64, 64), seed=9), "temp", 3)
