"""Seeded fuzzing of the manifest v2 decoders (FORMAT.md, "Dataset manifests").

A checkpoint and two deltas of a real dataset are truncated, bit-flipped,
given oversized member counts and wrong parent CRCs — each both torn
(stale CRC) and re-signed (a valid frame around bytes no writer
produces).  For every case, ``ManifestRecord.from_bytes``,
``Manifest.from_bytes`` and ``load_manifest_at`` raise nothing but
:class:`~repro.core.manifest.ManifestError`, a count is bounded before
anything is sized by it, ``load_manifest`` still resolves, and
``check_dataset`` names the damage at a manifest generation: as
``manifest-torn`` or as a chain issue at that generation.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core import MLOCDataset, mloc_col
from repro.core.manifest import (
    CHECKPOINT_EVERY,
    Manifest,
    ManifestError,
    ManifestMember,
    ManifestRecord,
    load_manifest,
    load_manifest_at,
    manifest_path,
)
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.tools.fsck import check_dataset

pytestmark = pytest.mark.chaos

N_GENERATIONS = CHECKPOINT_EVERY + 4
#: Interior records, so a later delta always names the damaged one:
#: the first delta, the checkpoint, and a delta past it.
TARGETS = {"delta-1": 1, "checkpoint": CHECKPOINT_EVERY, "delta-past": CHECKPOINT_EVERY + 2}
CASES_PER_KIND = 12
HEADER = 12  # magic + version
COUNT_AT = HEADER + 21  # n_members in the <qqIBI header
PARENT_CRC_AT = HEADER + 16


@pytest.fixture(scope="module")
def dataset() -> tuple[SimulatedPFS, dict[int, Manifest]]:
    fs = SimulatedPFS()
    ds = MLOCDataset(fs, "/ds", mloc_col(chunk_shape=(8, 8), n_bins=4), n_ranks=2)
    manifests = {0: Manifest(0)}
    for t in range(N_GENERATIONS):
        ds.append(gts_like((8, 8), seed=t), "temp", t)
        manifests[ds.generation] = ds.manifest
    assert check_dataset(fs, "/ds") == []
    return fs, manifests


def _sign(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _patched(raw: bytes, offset: int, fmt: str, value: int) -> bytes:
    body = bytearray(raw[:-4])
    struct.pack_into(fmt, body, offset, value)
    return _sign(bytes(body))


def _mutations(raw: bytes, rng: np.random.Generator, kind: str) -> list[bytes]:
    """``CASES_PER_KIND`` seeded damages of one kind, torn and re-signed."""
    out = []
    for _ in range(CASES_PER_KIND):
        if kind == "truncate":
            cut = int(rng.integers(0, len(raw)))
            out += [raw[:cut], _sign(raw[: max(cut - 4, 0)])]
        elif kind == "bitflip":
            flipped = bytearray(raw)
            at = int(rng.integers(0, len(raw)))
            flipped[at] ^= 1 << int(rng.integers(0, 8))
            out += [bytes(flipped), _sign(bytes(flipped[:-4]))]
        elif kind == "count":
            n = int(rng.choice([2**32 - 1, 2**31, 2**20, int(rng.integers(2, 1 << 16))]))
            out.append(_patched(raw, COUNT_AT, "<I", n))
        else:  # parent-crc
            out.append(_patched(raw, PARENT_CRC_AT, "<I", int(rng.integers(0, 2**32))))
    return [bad for bad in out if bad != raw]


def _decodes_typed(decode) -> None:
    """``decode()`` returns or raises ManifestError, allocating no more
    than a few times the record it reads."""
    tracemalloc.start()
    try:
        decode()
    except ManifestError:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("kind", ["truncate", "bitflip", "count", "parent-crc"])
@pytest.mark.parametrize("target", TARGETS)
def test_damaged_record_fails_typed_and_fsck_names_it(dataset, target, kind, chaos_seed):
    fs, manifests = dataset
    generation = TARGETS[target]
    path = manifest_path("/ds", generation)
    good = bytes(fs.session().open(path).read_all())
    rng = np.random.default_rng([chaos_seed, generation, len(kind)])
    cases = _mutations(good, rng, kind)
    assert cases
    try:
        for bad in cases:
            _decodes_typed(lambda: ManifestRecord.from_bytes(bad))
            _decodes_typed(lambda: Manifest.from_bytes(bad))
            _decodes_typed(lambda: Manifest.from_bytes(bad, parent=manifests[generation - 1]))
            fs.write_file(path, bad)
            for g in (generation, N_GENERATIONS):
                _decodes_typed(lambda: load_manifest_at(fs, "/ds", g))
            # Readers fall back to the damaged generation's parent at worst.
            latest = load_manifest(fs, "/ds").generation
            assert latest in (generation - 1, generation, N_GENERATIONS)
            issues = check_dataset(fs, "/ds")
            assert any(
                issue.kind == "manifest-torn" or "/manifest.g" in issue.location
                for issue in issues
            ), (target, kind, bad, issues)
    finally:
        fs.write_file(path, good)
    assert check_dataset(fs, "/ds") == []


def test_oversized_count_fails_before_allocating():
    """A count no record can hold is refused from the bytes left."""
    member = ManifestMember("temp@000000", 0, 1, 0xDEADBEEF, 1000)
    raw = Manifest(0).with_member(member).to_bytes()
    for n in (2**32 - 1, 2**31, 1 << 16, 2):
        with pytest.raises(ManifestError, match=f"truncated: {n} members"):
            ManifestRecord.from_bytes(_patched(raw, COUNT_AT, "<I", n))
