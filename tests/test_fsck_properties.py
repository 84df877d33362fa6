"""Property test: fsck detects arbitrary single-byte corruption.

Every byte of every subfile is live payload covered by either the
metadata CRCs (data/index blocks) or the record frame's own CRC
(meta), so any bit flip anywhere must surface as at least one fsck
issue.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MLOCWriter, mloc_col, mloc_iso
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.tools import check_store


def _build(maker):
    fs = SimulatedPFS()
    data = gts_like((64, 64), seed=4)
    cfg = maker(chunk_shape=(16, 16), n_bins=4, target_block_bytes=2048)
    MLOCWriter(fs, "/p", cfg).write(data, variable="f")
    return fs


@pytest.fixture(scope="module")
def col_fs_snapshot(tmp_path_factory):
    fs = _build(mloc_col)
    path = tmp_path_factory.mktemp("snap") / "col.pfs"
    fs.save(path)
    return path


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_bitflip_detected(col_fs_snapshot, data):
    fs = SimulatedPFS.load(col_fs_snapshot)
    subfiles = [
        p for p in fs.list_files("/p/f/") if p.endswith((".data", ".index", "/meta"))
    ]
    target = data.draw(st.sampled_from(subfiles))
    raw = bytearray(fs.session().open(target).read_all())
    assert raw, target
    offset = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    raw[offset] ^= 1 << bit
    fs.write_file(target, bytes(raw))
    issues = check_store(fs, "/p", "f")
    assert issues, f"undetected corruption: {target} byte {offset} bit {bit}"
    # Payload corruption is classified, not just detected: the CRC
    # check pins it to the damaged subfile with kind "crc-mismatch"
    # ("decode-error" for the metadata record, which fails its frame),
    # naming the extent in quarantine-registry coordinates.
    kind = "decode-error" if target.endswith("/meta") else "crc-mismatch"
    crc_issues = [i for i in issues if i.kind == kind]
    assert crc_issues, f"flip in {target} not classified as {kind}"
    for issue in crc_issues:
        assert issue.path == target
        assert issue.offset is not None and 0 <= issue.offset <= offset


def test_every_meta_bitflip_is_a_decode_error():
    """Bit 4 of every ``meta`` byte in turn: fsck never raises, and names
    each flip as a ``decode-error`` of the metadata record."""
    fs = _build(mloc_col)
    raw = bytes(fs.session().open("/p/f/meta").read_all())
    for offset in range(len(raw)):
        bad = bytearray(raw)
        bad[offset] ^= 1 << 4
        fs.write_file("/p/f/meta", bytes(bad))
        issues = check_store(fs, "/p", "f")
        assert ("decode-error", "/p/f/meta") in [(i.kind, i.path) for i in issues], offset


def test_pristine_store_has_no_issues_of_any_kind():
    fs = _build(mloc_col)
    assert check_store(fs, "/p", "f") == []


def test_issue_kind_defaults_to_other_for_structural_damage():
    fs = _build(mloc_col)
    # Chop the last block off a data table: a structural inconsistency,
    # not payload damage — must surface with the generic kind.
    from repro.core import StoreMeta
    from repro.core.meta import BlockTable

    meta = StoreMeta.from_bytes(bytes(fs.session().open("/p/f/meta").read_all()))
    table = meta.data_blocks
    meta.data_blocks = BlockTable.stack(
        [table.of_bin(0)[:-1], *map(table.of_bin, range(1, table.bounds.size - 1))]
    )
    fs.write_file("/p/f/meta", meta.to_bytes())
    issues = check_store(fs, "/p", "f")
    assert issues
    assert all(i.kind == "other" for i in issues if "table" in i.location)


def test_truncating_any_subfile_detected():
    fs = _build(mloc_iso)
    for target in fs.list_files("/p/f/"):
        if target.endswith("/meta"):
            continue
        pristine = fs.session().open(target).read_all()
        fs.write_file(target, pristine[:-1])
        assert check_store(fs, "/p", "f"), target
        fs.write_file(target, pristine)  # restore for the next subfile
    assert check_store(fs, "/p", "f") == []
