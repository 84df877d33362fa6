"""Every framed record decoder fails typed (DESIGN.md §6, FORMAT.md
"Record frame").

``meta``, ``hbi``, ``peb``, ``MLOCMAN`` and the PFS snapshot share one
frame and one reader, so one contract covers all five: bytes no writer
produces — with a valid CRC or not — raise
:class:`~repro.util.record.FormatError`, never another exception type.
``fsck`` names the same bytes as a ``decode-error`` (a member's derived
record), a ``crc-mismatch`` (a member's ``meta``, which the manifest
pins by its record CRC) or ``manifest-torn`` (the manifest); the CLI
refuses the snapshot and says how to rebuild it.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro import cli
from repro.core import MLOCDataset, MLOCWriter, StoreMeta, mloc_col
from repro.core.manifest import Manifest, ManifestError, manifest_path
from repro.datasets import gts_like
from repro.index.hbi import HBIndex, hbi_path
from repro.pfs import SimulatedPFS
from repro.plod.bounds import ErrorBoundsTable, peb_path
from repro.tools.fsck import check_dataset, check_store
from repro.util.record import FormatError

KEY = "temp@000000"
RECORDS = {
    # record -> (decoder, its path under /ds, the fsck kind that names it);
    # the snapshot is the file system itself, so it has neither.
    "meta": (StoreMeta, f"/ds/{KEY}/meta", "crc-mismatch"),
    "hbi": (HBIndex, hbi_path(f"/ds/{KEY}"), "decode-error"),
    "peb": (ErrorBoundsTable, peb_path(f"/ds/{KEY}"), "decode-error"),
    "manifest": (Manifest, manifest_path("/ds", 1), "manifest-torn"),
    "snapshot": (SimulatedPFS, None, None),
}
HEADER = 12  # magic + version: where every record's own fields start


def _sealed() -> SimulatedPFS:
    fs = SimulatedPFS()
    dataset = MLOCDataset(fs, "/ds", mloc_col(chunk_shape=(8, 8), n_bins=4), n_ranks=2)
    dataset.append(gts_like((16, 16), seed=3), "temp", 0)
    return fs


@pytest.fixture(scope="module")
def good() -> dict[str, bytes]:
    fs = _sealed()
    return {
        name: fs.to_bytes() if path is None else bytes(fs.session().open(path).read_all())
        for name, (_, path, _) in RECORDS.items()
    }


def _sign(body: bytes) -> bytes:
    """``body`` under a fresh CRC: malformed, yet not torn."""
    return body + struct.pack("<I", zlib.crc32(body))


def _patched(raw: bytes, offset: int, fmt: str, *values) -> bytes:
    body = bytearray(raw[:-4])
    struct.pack_into(fmt, body, offset, *values)
    return _sign(bytes(body))


def _flipped(raw: bytes) -> bytes:
    body = bytearray(raw)
    body[len(body) // 2] ^= 0x40
    return bytes(body)


#: Damage any record can suffer: name -> (bytes -> bytes, message).
FRAME_DAMAGE = {
    "bad-magic": (lambda raw: _sign(b"NOTMLOC!" + raw[8:-4]), "bad magic"),
    "bad-crc": (_flipped, "CRC mismatch"),
    "wrong-version": (lambda raw: _patched(raw, 8, "<I", 99), "unsupported version 99"),
    "trailing-bytes": (lambda raw: _sign(raw[:-4] + bytes(8)), "8 trailing bytes"),
    "cut-in-header": (lambda raw: raw[:10], "truncated"),
}
#: Geometry no writer produces, per record, each under a valid CRC:
#: (record, name) -> (offset of the patched field, its format, value, message).
GEOMETRY_DAMAGE = {
    # meta: <qqdqI n_bins.. ndim, i64 chunk_shape + shape, then the text
    # fields "VMS", "hilbert", "equal-frequency", "zlib-bytes" and KEY.
    ("meta", "zero-bins"): (HEADER, "<q", 0, "n_bins must be positive"),
    ("meta", "fraction-above-1"): (HEADER + 16, "<d", 2.0, "sample_fraction"),
    ("meta", "huge-ndim"): (HEADER + 32, "<I", 2**31, "truncated"),
    ("meta", "chunk-not-tiling"): (HEADER + 36, "<q", 7, "not a multiple"),
    ("meta", "negative-extent"): (HEADER + 52, "<q", -16, r"shape \(-16, 16\)"),
    ("meta", "level-order"): (HEADER + 70, "<B", ord("X"), "level_order must be one of"),
    ("meta", "unknown-codec"): (HEADER + 101, "<B", ord("X"), "codec 'Xlib-bytes'"),
    ("meta", "row-count"): (HEADER + 124, "<I", 2**20, "the geometry wants"),
    ("hbi", "leaf-span-0"): (HEADER, "<I", 0, "impossible geometry"),
    ("hbi", "fanout-1"): (HEADER + 4, "<I", 1, "impossible geometry"),
    ("hbi", "negative-bins"): (HEADER + 8, "<q", -2, "impossible geometry"),
    # hbi: <IIqqq leaf_span (8), fanout, n_bins (4), n_chunks (4),
    # chunk_size, then the (bin, run) counts: one run per bin, so a
    # leaf_span of 1 wants four runs per bin.
    ("hbi", "huge-chunk-count"): (HEADER + 16, "<q", 2**62, "truncated"),
    ("hbi", "run-counts-truncated"): (HEADER, "<I", 1, "truncated"),
    ("hbi", "v1-record"): (8, "<I", 1, "unsupported version 1"),
    ("peb", "six-levels"): (HEADER, "<q", 6, "impossible shape"),
    ("peb", "negative-chunks"): (HEADER + 8, "<q", -1, "impossible shape"),
    # manifest (generation 1, a delta): <qqIBI generation, parent
    # generation, parent CRC, kind (4), n_members (4), then the member
    # KEY (11 bytes) and its <qqIq timestep, sealed_generation, ...
    ("manifest", "negative-generation"): (HEADER, "<q", -1, "negative generation"),
    ("manifest", "wrong-parent"): (HEADER + 8, "<q", 5, "names parent generation 5"),
    ("manifest", "wrong-parent-crc"): (HEADER + 16, "<I", 0, "names parent CRC"),
    ("manifest", "unknown-kind"): (HEADER + 20, "<B", 7, "unknown record kind 7"),
    ("manifest", "misplaced-checkpoint"): (HEADER + 20, "<B", 1, "written as a checkpoint"),
    ("manifest", "member-count"): (HEADER + 21, "<I", 2**31, "truncated"),
    ("manifest", "key-overrun"): (HEADER + 25, "<H", 0xFFFF, "truncated"),
    ("manifest", "key-not-utf8"): (HEADER + 27, "<B", 0xFF, "not UTF-8"),
    ("manifest", "delta-seals-later"): (HEADER + 46, "<q", 2, "outside"),
    ("manifest", "v1-record"): (8, "<I", 1, "unsupported version 1"),
    # snapshot: <qqddqddd cost model, <I n_files, then the first file,
    # "/ds/manifest.g00000001" (22 bytes), and its <IQ first_ost, size.
    ("snapshot", "zero-osts"): (HEADER, "<q", 0, "ost_count must be positive"),
    ("snapshot", "file-count"): (HEADER + 64, "<I", 2**31, "truncated"),
    ("snapshot", "name-overrun"): (HEADER + 68, "<H", 0xFFFF, "truncated"),
    ("snapshot", "first-ost"): (HEADER + 92, "<I", 16, "first OST 16"),
}
#: Block-table rows no writer produces, re-serialized into a sound frame:
#: name -> (tables, row of bin 0's table, column, value, message).  Bin 0
#: has one index row over chunks [0, 4) and seven data rows, one per
#: byte group, over cells [0, 28).
TABLE_DAMAGE = {
    "index-end-past-bin": ("index_blocks", 0, 1, 10**6, "index block table of bin 0: row 0"),
    "data-end-past-bin": ("data_blocks", 0, 1, 10**6, "data block table of bin 0: row 1"),
    "data-row-gap": ("data_blocks", 1, 0, 5, "data block table of bin 0: row 1"),
}


def _retabled(raw: bytes, tables: str, row: int, column: int, value: int) -> bytes:
    """``raw`` re-serialized with one cell of bin 0's block table changed."""
    meta = StoreMeta.from_bytes(raw)
    getattr(meta, tables).of_bin(0)[row, column] = value
    return meta.to_bytes()


CASES = [
    pytest.param(record, damage, message, id=f"{record}-{name}")
    for record in RECORDS
    for name, (damage, message) in FRAME_DAMAGE.items()
] + [
    pytest.param(
        record,
        lambda raw, patch=(offset, fmt, value): _patched(raw, *patch),
        message,
        id=f"{record}-{name}",
    )
    for (record, name), (offset, fmt, value, message) in GEOMETRY_DAMAGE.items()
] + [
    pytest.param(
        "meta",
        lambda raw, patch=patch: _retabled(raw, *patch[:4]),
        patch[4],
        id=f"meta-{name}",
    )
    for name, patch in TABLE_DAMAGE.items()
]


@pytest.mark.parametrize("record,damage,message", CASES)
def test_malformed_record_fails_typed_and_fsck_names_it(
    good, record, damage, message, tmp_path
):
    decoder, path, kind = RECORDS[record]
    bad = damage(good[record])
    assert bad != good[record]
    with pytest.raises(FormatError, match=message) as failed:
        decoder.from_bytes(bad)
    if decoder is Manifest:
        assert isinstance(failed.value, ManifestError)  # what load_manifest skips
    if path is None:
        snapshot = tmp_path / "bad.pfs"
        snapshot.write_bytes(bad)
        with pytest.raises(SystemExit, match="rebuild the snapshot with `demo`"):
            cli.main(["info", str(snapshot)])
        return

    fs = _sealed()
    assert check_dataset(fs, "/ds") == []
    fs.write_file(path, bad)
    assert (kind, path) in [(issue.kind, issue.path) for issue in check_dataset(fs, "/ds")]


@pytest.mark.parametrize("record", RECORDS)
def test_truncation_anywhere_fails_typed(good, record):
    """Cut at every offset — every field boundary and every byte between
    — both torn (stale CRC) and re-signed (CRC-valid, body short)."""
    decoder, raw = RECORDS[record][0], good[record]
    for cut in range(len(raw)):
        for bad in (raw[:cut], _sign(raw[:cut])):
            if bad != raw:  # re-signing the whole body is the record itself
                with pytest.raises(FormatError):
                    decoder.from_bytes(bad)


@pytest.mark.parametrize("record", RECORDS)
def test_round_trip_is_byte_identical(good, record):
    decoder = RECORDS[record][0]
    assert decoder.from_bytes(good[record]).to_bytes() == good[record]


@pytest.mark.parametrize("name", TABLE_DAMAGE)
def test_block_table_damage_is_a_meta_decode_error_to_fsck(name):
    """Outside a dataset no manifest pins ``meta``'s CRC: fsck decodes
    the damaged table, names the record and raises nothing."""
    fs = SimulatedPFS()
    MLOCWriter(fs, "/s", mloc_col(chunk_shape=(8, 8), n_bins=4)).write(
        gts_like((16, 16), seed=3), "f"
    )
    raw = bytes(fs.session().open("/s/f/meta").read_all())
    fs.write_file("/s/f/meta", _retabled(raw, *TABLE_DAMAGE[name][:4]))
    issues = check_store(fs, "/s", "f")
    assert [(issue.kind, issue.path) for issue in issues] == [("decode-error", "/s/f/meta")]
