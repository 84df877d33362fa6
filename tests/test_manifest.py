"""Dataset manifests: record framing, the commit protocol, snapshots.

The append path's single source of truth is the generation-numbered
manifest chain (``repro.core.manifest``).  These tests pin the record
format (magic/version/CRC framing like ``hbi``/``peb``), the
commit-protocol invariants (strict +1 bumps, append-only member sets,
torn-leftover overwrite), and the reader-facing semantics built on
top: ``MLOCDataset.append`` / ``DatasetSnapshot`` pinning and the
``fsck`` dataset checks with their distinct ``Issue.kind`` values.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    Manifest,
    ManifestError,
    ManifestMember,
    MLOCDataset,
    MLOCWriter,
    Query,
    load_manifest,
    load_manifest_at,
    manifest_path,
    mloc_col,
)
from repro.core.manifest import CHECKPOINT_EVERY, commit_manifest, manifest_generations
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.tools.fsck import check_dataset
from tests.counting_pfs import CountingPFS


def _member(key: str, gen: int, *, timestep: int | None = None) -> ManifestMember:
    return ManifestMember(
        key=key,
        timestep=timestep,
        sealed_generation=gen,
        meta_crc=0xDEADBEEF ^ gen,
        total_bytes=1000 + gen,
    )


def _config():
    return mloc_col(chunk_shape=(16, 16), n_bins=8, target_block_bytes=4096)


# ----------------------------------------------------------------------
# Record framing


def test_manifest_round_trip():
    """Each generation's record (a delta) resolves back on its parent."""
    m = Manifest(0)
    for member in (
        _member("temp@000000", 1, timestep=0),
        _member("temp@000001", 2, timestep=1),
        _member("pressure", 3),
    ):
        parent, m = m, m.with_member(member)
        back = Manifest.from_bytes(m.to_bytes(), parent=parent)
        assert back == m and back.record_crc == m.record_crc
    assert back.member("pressure").timestep is None
    assert back.member("temp@000001").variable == "temp"
    assert back.keys() == {"temp@000000", "temp@000001", "pressure"}


def test_empty_manifest_round_trip():
    assert Manifest.from_bytes(Manifest(0).to_bytes()) == Manifest(0)


def test_manifest_rejects_corruption():
    raw = bytearray(
        Manifest(0).with_member(_member("t@000000", 1, timestep=0)).to_bytes()
    )
    raw[len(raw) // 2] ^= 0xFF
    with pytest.raises(ManifestError, match="CRC"):
        Manifest.from_bytes(bytes(raw))


def test_manifest_rejects_bad_magic_truncation_and_trailer():
    good = Manifest(0).with_member(_member("t@000000", 1)).to_bytes()
    with pytest.raises(ManifestError, match="magic"):
        Manifest.from_bytes(b"NOTMLOC!" + good[8:])
    with pytest.raises(ManifestError, match="truncated"):
        Manifest.from_bytes(good[:6])


def test_with_member_enforces_chain():
    m = Manifest(0).with_member(_member("a", 1))
    assert m.generation == 1
    with pytest.raises(ManifestError, match="already sealed"):
        m.with_member(_member("a", 2))
    with pytest.raises(ManifestError, match="next generation"):
        m.with_member(_member("b", 5))


# ----------------------------------------------------------------------
# Commit protocol on the PFS


def test_commit_and_load_chain():
    fs = SimulatedPFS()
    m1 = Manifest(0).with_member(_member("a", 1))
    m2 = m1.with_member(_member("b", 2))
    commit_manifest(fs, "/ds", m1, parent=Manifest(0))
    commit_manifest(fs, "/ds", m2, parent=load_manifest(fs, "/ds"))
    assert manifest_generations(fs, "/ds") == [1, 2]
    assert load_manifest(fs, "/ds") == m2
    assert load_manifest_at(fs, "/ds", 1) == m1
    assert load_manifest_at(fs, "/ds", 0) == Manifest(0)
    with pytest.raises(ManifestError, match="no manifest"):
        load_manifest_at(fs, "/ds", 7)


def test_commit_requires_strict_bump():
    fs = SimulatedPFS()
    m1 = Manifest(0).with_member(_member("a", 1))
    commit_manifest(fs, "/ds", m1, parent=Manifest(0))
    with pytest.raises(ManifestError, match="refused"):
        commit_manifest(fs, "/ds", m1, parent=load_manifest(fs, "/ds"))  # same generation again
    m3 = Manifest(3, m1.members + (_member("b", 3),))
    with pytest.raises(ManifestError, match="refused"):
        commit_manifest(fs, "/ds", m3, parent=load_manifest(fs, "/ds"))  # skips generation 2


def test_commit_refuses_unsealing():
    fs = SimulatedPFS()
    commit_manifest(fs, "/ds", Manifest(0).with_member(_member("a", 1)), parent=Manifest(0))
    with pytest.raises(ManifestError, match="append-only"):
        commit_manifest(
            fs, "/ds", Manifest(2, (_member("b", 2),)), parent=load_manifest(fs, "/ds")
        )


def test_commit_refuses_what_does_not_extend_the_parent_before_writing():
    """New members must be new keys sealed at the new generation, on top
    of the parent's record CRC; a refused commit writes nothing."""
    fs = SimulatedPFS()
    m1 = Manifest(0).with_member(_member("a", 1))
    commit_manifest(fs, "/ds", m1, parent=Manifest(0))
    crc = m1.record_crc
    for bad, message in [
        (Manifest(2, m1.members + (_member("b", 1),), parent_crc=crc), "new key sealed"),
        (Manifest(2, m1.members + (_member("a", 2),), parent_crc=crc), "new key sealed"),
        (Manifest(2, m1.members + (_member("b", 2),), parent_crc=crc ^ 1), "extends record CRC"),
    ]:
        for parent in (Manifest(0), m1):
            with pytest.raises(ManifestError, match=message):
                commit_manifest(fs, "/ds", bad, parent=parent)
    assert manifest_generations(fs, "/ds") == [1]


def test_torn_manifest_is_skipped_and_retryable():
    fs = SimulatedPFS()
    m1 = Manifest(0).with_member(_member("a", 1))
    commit_manifest(fs, "/ds", m1, parent=Manifest(0))
    # A torn generation-2 commit: readers fall back to generation 1.
    m2 = m1.with_member(_member("b", 2))
    fs.write_file(manifest_path("/ds", 2), m2.to_bytes()[:11])
    assert load_manifest(fs, "/ds") == m1
    with pytest.raises(ManifestError):
        load_manifest_at(fs, "/ds", 2)
    # Retrying the commit overwrites the unreadable leftover.
    commit_manifest(fs, "/ds", m2, parent=m1)
    assert load_manifest(fs, "/ds") == m2


def test_filename_generation_mismatch_is_torn():
    fs = SimulatedPFS()
    m1 = Manifest(0).with_member(_member("a", 1))
    fs.write_file(manifest_path("/ds", 3), m1.to_bytes())
    with pytest.raises(ManifestError, match="filename"):
        load_manifest_at(fs, "/ds", 3)
    assert load_manifest(fs, "/ds") == Manifest(0)


def test_commit_never_overwrites_a_record_that_decodes():
    """Only a torn leftover may be overwritten: a readable record on
    another parent at the target generation refuses the commit."""
    fs = SimulatedPFS()
    m1 = Manifest(0).with_member(_member("a", 1))
    commit_manifest(fs, "/ds", m1, parent=Manifest(0))
    fork = Manifest(2, m1.members + (_member("b", 2),), parent_crc=m1.record_crc ^ 1)
    fs.write_file(manifest_path("/ds", 2), fork.to_bytes())
    with pytest.raises(ManifestError, match="does not extend generation 1"):
        commit_manifest(fs, "/ds", m1.with_member(_member("c", 2)), parent=m1)
    assert fs.session().open(manifest_path("/ds", 2)).read_all() == fork.to_bytes()


def test_held_handle_finds_the_chain_past_interior_damage():
    """A handle holds generation 5 while another commits 6..20; then 6 is
    bit-flipped.  The held handle sees 20 (resolved from checkpoint 16),
    appends 21, and rewrites neither 6 nor the checkpoint."""
    fs = SimulatedPFS()
    config = mloc_col(chunk_shape=(8, 8), n_bins=4)
    data = gts_like((8, 8), seed=0)
    held = MLOCDataset(fs, "/ds", config, n_ranks=2)
    for t in range(5):
        held.append(data, "temp", t)
    other = MLOCDataset(fs, "/ds", config, n_ranks=2)
    for t in range(5, 20):
        other.append(data, "temp", t)
    assert CHECKPOINT_EVERY == 16 and other.generation == 20

    def read(g):
        return bytes(fs.session().open(manifest_path("/ds", g)).read_all())

    damaged = bytearray(read(6))
    damaged[len(damaged) // 2] ^= 0x01
    fs.write_file(manifest_path("/ds", 6), bytes(damaged))
    before = {g: read(g) for g in (6, 16)}

    assert held.snapshot().generation == 20
    held.append(data, "temp", 20)
    assert held.generation == 21
    assert load_manifest(fs, "/ds").generation == 21
    assert {g: read(g) for g in (6, 16)} == before


def _append_work(n: int) -> dict[str, tuple[int, int]]:
    """Manifest bytes (read, written) of appends onto ``n - 1`` generations."""
    fs = CountingPFS()
    parent = Manifest(0)
    for g in range(1, n):
        manifest = parent.with_member(_member(f"temp@{g:06d}", g, timestep=g))
        commit_manifest(fs, "/ds", manifest, parent=parent)
        parent = manifest
    writer = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    other = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    other.snapshot()
    data = gts_like((16, 16), seed=0)
    writer.append(data, "temp", n)  # a handle's first append loads the chain
    work = {}
    for name, handle, timestep in [
        ("held", writer, n + 1),  # the handle committed the parent itself
        ("snapshot", writer, None),
        ("behind", other, n + 2),  # another handle committed two since
    ]:
        fs.manifest_read = fs.manifest_written = 0
        if timestep is None:
            handle.snapshot()
        else:
            handle.append(data, "temp", timestep)
        work[name] = (fs.manifest_read, fs.manifest_written)
    return work


def test_append_work_does_not_grow_with_the_dataset():
    """An append reads only the generations its handle did not write and
    writes one delta: the same bytes at 10 generations as at 500."""
    small, large = _append_work(10), _append_work(500)
    assert small == large
    delta = small["held"][1]
    assert small["held"] == (0, delta)
    assert small["snapshot"] == (0, 0)
    assert small["behind"] == (2 * delta, delta)


# ----------------------------------------------------------------------
# MLOCDataset.append + DatasetSnapshot


@pytest.fixture()
def appended_dataset():
    fs = SimulatedPFS()
    ds = MLOCDataset(fs, "/ds", _config(), n_ranks=4)
    for t in range(3):
        ds.append(gts_like((64, 64), seed=t), "temp", t)
    return fs, ds


def test_append_bumps_generation_and_refuses_duplicates(appended_dataset):
    fs, ds = appended_dataset
    assert ds.generation == 3
    assert [m.key for m in ds.manifest.members] == [
        "temp@000000",
        "temp@000001",
        "temp@000002",
    ]
    with pytest.raises(ManifestError, match="already sealed"):
        ds.append(gts_like((64, 64), seed=9), "temp", 1)


def test_snapshot_pins_exactly_one_generation(appended_dataset):
    fs, ds = appended_dataset
    snap1 = ds.snapshot(generation=1)
    assert snap1.timesteps("temp") == [0]
    with pytest.raises(KeyError, match="generation 1"):
        snap1.store("temp", 2)

    latest = ds.snapshot()
    assert latest.generation == 3
    assert latest.timesteps("temp") == [0, 1, 2]

    # An old snapshot keeps answering identically after more appends.
    q = Query(region=((0, 32), (0, 32)), output="values")
    before = snap1.store("temp", 0).query(q)
    ds.append(gts_like((64, 64), seed=3), "temp", 3)
    after = snap1.store("temp", 0).query(q)
    assert np.array_equal(before.positions, after.positions)
    assert np.array_equal(before.values, after.values)
    assert snap1.timesteps("temp") == [0]
    assert ds.snapshot().timesteps("temp") == [0, 1, 2, 3]


def test_snapshot_query_series_and_sharded_store(appended_dataset):
    fs, ds = appended_dataset
    snap = ds.snapshot()
    q = Query(value_range=(3.0, 5.0), output="positions")
    series = snap.query_series("temp", q)
    assert sorted(series) == [0, 1, 2]
    sharded = snap.store("temp", 1, n_shards=2)
    flat = snap.store("temp", 1)
    a, b = sharded.query(q), flat.query(q)
    assert np.array_equal(a.positions, b.positions)


def test_rewritten_member_is_refused_under_a_pinned_snapshot(appended_dataset):
    """Snapshots share one handle per sealed member, for good; a member
    rewritten from outside the catalog no longer hashes to its sealed
    record and is refused, never served."""
    fs, ds = appended_dataset
    snap = ds.snapshot()
    assert snap.store("temp", 0) is ds.snapshot().store("temp", 0)
    MLOCWriter(fs, "/ds", _config()).write(
        gts_like((64, 64), seed=99), variable="temp@000001"
    )
    with pytest.raises(ManifestError, match="does not match its sealed"):
        snap.store("temp", 1)
    ds.append(gts_like((64, 64), seed=3), "temp", 3)
    assert snap.store("temp", 0) is ds.snapshot().store("temp", 0)
    assert ds.runtime_stats()["open_handles"] == 1


def test_runtime_stats_counters(appended_dataset):
    fs, ds = appended_dataset
    ds.snapshot(generation=1)
    ds.snapshot()
    assert ds.runtime_stats() == {"generation": 3, "open_handles": 0}


# ----------------------------------------------------------------------
# fsck dataset checks


def test_fsck_clean_dataset(appended_dataset):
    fs, ds = appended_dataset
    assert check_dataset(fs, "/ds") == []
    assert check_dataset(fs, "/ds", deep=True) == []


def test_fsck_reports_unmanifested_stores_as_orphans():
    """A root with no manifest is generation 0: nothing under it is sealed."""
    fs = SimulatedPFS()
    for name in ("f", "g"):
        MLOCWriter(fs, "/plain", _config()).write(
            gts_like((64, 64), seed=0), variable=name
        )
    issues = check_dataset(fs, "/plain")
    assert [(i.kind, i.path, i.severity) for i in issues] == [
        ("orphaned-member", "/plain/f", "warning"),
        ("orphaned-member", "/plain/g", "warning"),
    ]
    assert check_dataset(SimulatedPFS(), "/empty") == []


def test_fsck_flags_torn_newest_manifest(appended_dataset):
    fs, ds = appended_dataset
    raw = load_manifest(fs, "/ds")
    torn = raw.with_member(
        ManifestMember("x@000009", 9, raw.generation + 1, 1, 1)
    )
    fs.write_file(manifest_path("/ds", 4), torn.to_bytes()[:10])
    issues = check_dataset(fs, "/ds")
    assert any(i.kind == "manifest-torn" for i in issues)
    # newest-generation torn commit is recoverable -> warning, not error
    assert all(i.severity == "warning" for i in issues if i.kind == "manifest-torn")


@pytest.mark.parametrize(
    "damage,message",
    [
        (lambda members: members[1:], "missing from checkpoint 16; manifests are append-only"),
        (
            lambda members: (dataclasses.replace(members[0], total_bytes=1),) + members[1:],
            "record changed between the deltas and checkpoint 16",
        ),
        (
            lambda members: members[:3] + (_member("x@000003", 3),) + members[3:],
            "not the replay of the deltas",
        ),
    ],
    ids=["unsealed", "changed", "never-sealed"],
)
def test_fsck_flags_a_checkpoint_that_is_not_the_replay(damage, message):
    """A checkpoint on the right parent CRC must still list exactly the
    members the deltas before it sealed, plus its own."""
    fs = SimulatedPFS()
    parent = Manifest(0)
    for g in range(1, CHECKPOINT_EVERY):
        manifest = parent.with_member(_member(f"t@{g:06d}", g, timestep=g))
        commit_manifest(fs, "/ds", manifest, parent=parent)
        parent = manifest
    good = parent.with_member(_member("t@000016", CHECKPOINT_EVERY, timestep=16))
    bad = Manifest(good.generation, damage(good.members), parent_crc=good.parent_crc)
    path = manifest_path("/ds", CHECKPOINT_EVERY)
    fs.write_file(path, bad.to_bytes())
    chain = [i for i in check_dataset(fs, "/ds") if i.location == path]
    assert [(i.kind, i.severity) for i in chain] == [("other", "error")]
    assert message in chain[0].message
    fs.write_file(path, good.to_bytes())
    assert not [i for i in check_dataset(fs, "/ds") if i.location == path]


def test_fsck_orphans_a_member_only_an_unresolved_generation_lists(appended_dataset):
    """A member is sealed only by a generation that resolves: one listed
    only by a delta on the wrong parent CRC is still an orphan."""
    fs, ds = appended_dataset
    MLOCWriter(fs, "/ds", _config()).write(
        gts_like((64, 64), seed=8), variable="temp@000009"
    )
    latest = load_manifest(fs, "/ds")
    stray = Manifest(
        4,
        latest.members + (ManifestMember("temp@000009", 9, 4, 1, 1),),
        parent_crc=latest.record_crc ^ 1,
    )
    path = manifest_path("/ds", 4)
    fs.write_file(path, stray.to_bytes())
    issues = check_dataset(fs, "/ds")
    assert [i.kind for i in issues if i.path == path] == ["manifest-torn"]
    assert [i.path for i in issues if i.kind == "orphaned-member"] == ["/ds/temp@000009"]


def test_fsck_flags_meta_crc_mismatch(appended_dataset):
    fs, ds = appended_dataset
    meta_path = "/ds/temp@000001/meta"
    raw = bytearray(fs.session().open(meta_path).read_all())
    raw[-1] ^= 0xFF
    fs.write_file(meta_path, bytes(raw))
    issues = check_dataset(fs, "/ds")
    kinds = {i.kind for i in issues}
    assert "crc-mismatch" in kinds or "decode-error" in kinds


def test_fsck_flags_orphaned_member(appended_dataset):
    fs, ds = appended_dataset
    # A sealed-looking member directory no generation references.
    MLOCWriter(fs, "/ds", _config()).write(
        gts_like((64, 64), seed=8), variable="temp@000009"
    )
    issues = check_dataset(fs, "/ds")
    orphans = [i for i in issues if i.kind == "orphaned-member"]
    assert len(orphans) == 1
    assert "temp@000009" in orphans[0].location
    assert orphans[0].severity == "warning"
