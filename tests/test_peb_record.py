"""The persisted per-chunk error-bounds (``peb``) record.

Three contracts, in dependency order:

* **Determinism** — the record is a pure function of the written data
  (the builder is fed slab by slab in curve order, like the
  hierarchical index, and ``tests/test_writer_golden.py`` pins its
  bytes), and its rows are, bit for bit, the per-chunk bounds of the written field —
  :func:`~repro.plod.bounds.compute_bounds_batch`'s per-chunk
  reductions are those of each chunk computed alone.
* **fsck cross-check** — the record parses under fsck, corruption is
  reported as a decode error, and a record violating the monotonicity
  invariant (bounds increasing with level) is flagged even when its
  CRC is intact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binning.binner import per_bin_segments
from repro.core import MLOCStore, MLOCWriter, Query, mloc_col, mloc_iso
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS
from repro.plod.accuracy import relative_errors
from repro.plod.bounds import (
    ErrorBoundsTable,
    compute_bounds_batch,
    compute_chunk_bounds,
    peb_path,
)
from repro.plod.byteplanes import N_GROUPS, assemble_from_groups, split_byte_groups
from repro.tools.fsck import check_store

CONFIG_KW = dict(n_bins=8, target_block_bytes=4096)


@pytest.fixture(scope="module")
def peb_field() -> np.ndarray:
    return gts_like((128, 128), seed=21)


def _write(config, data):
    fs = SimulatedPFS()
    MLOCWriter(fs, "/wb", config).write(data, variable="field")
    return fs


def _peb_blob(fs) -> bytes:
    return bytes(fs.session().open(peb_path("/wb/field")).read_all())


class TestPersistedBytes:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(level_order="VMS", curve="hilbert"),
            dict(level_order="VSM", curve="zorder"),
            dict(level_order="VMS", curve="rowmajor"),
        ],
    )
    def test_roundtrip_and_validate(self, peb_field, overrides):
        fs = _write(mloc_col((16, 16), **CONFIG_KW, **overrides), peb_field)
        blob = _peb_blob(fs)
        table = ErrorBoundsTable.from_bytes(blob)
        assert table.to_bytes() == blob
        table.validate()  # monotone, level-7 zero, mean <= max
        assert table.n_chunks == 64

    def test_persisted_rows_match_field_oracle(self, peb_field):
        """Every row of the record, recomputed one chunk at a time from
        the written field in the writer's (bin, local id) order."""
        fs = _write(mloc_col((16, 16), **CONFIG_KW), peb_field)
        store = MLOCStore.open(fs, "/wb", "field")
        table = store.peb
        for cpos, chunk_id in enumerate(store.curve.order):
            values = peb_field[store.grid.chunk_slices(int(chunk_id))].reshape(-1)
            bids = store.scheme.assign(values)
            _, segmented, _ = per_bin_segments(values, bids, store.meta.config.n_bins)
            want_max, want_mean = _reference_chunk_bounds(segmented)
            assert table.max_rel[:, cpos].tobytes() == want_max.tobytes()
            assert table.mean_rel[:, cpos].tobytes() == want_mean.tobytes()

    def test_non_plod_layout_writes_no_record(self, peb_field):
        """VS layouts keep no byte planes, so there are no per-level
        bounds to record — and tol queries on them must refuse rather
        than guess."""
        fs = _write(mloc_iso((16, 16), **CONFIG_KW), peb_field)
        assert not fs.exists(peb_path("/wb/field"))
        store = MLOCStore.open(fs, "/wb", "field")
        with pytest.raises(ValueError, match="PLoD"):
            store.query(Query(value_range=(0.2, 0.8), tol=1e-3))


class TestBoundsSemantics:
    def test_min_level_for_monotone_in_tol(self, peb_field):
        fs = _write(mloc_col((16, 16), **CONFIG_KW), peb_field)
        table = ErrorBoundsTable.from_bytes(_peb_blob(fs))
        prev = None
        for tol in (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0):
            levels = table.min_level_for(tol)
            assert levels.min() >= 1 and levels.max() <= 7
            # Recorded bound at the resolved level actually meets tol.
            assert (table.bound_at(levels) <= tol).all()
            if prev is not None:
                assert (levels <= prev).all()  # looser tol, shallower
            prev = levels
        assert (table.min_level_for(0.0) == 7).all()

    def test_mean_metric_resolves_no_deeper_than_max(self, peb_field):
        fs = _write(mloc_col((16, 16), **CONFIG_KW), peb_field)
        table = ErrorBoundsTable.from_bytes(_peb_blob(fs))
        for tol in (1e-6, 1e-3):
            assert (
                table.min_level_for(tol, "mean_rel")
                <= table.min_level_for(tol, "max_rel")
            ).all()


class TestFsckCrossCheck:
    def test_clean_store_has_no_issues(self, peb_field):
        fs = _write(mloc_col((16, 16), **CONFIG_KW), peb_field)
        assert check_store(fs, "/wb", "field") == []

    def test_corrupt_record_is_a_decode_error(self, peb_field):
        fs = _write(mloc_col((16, 16), **CONFIG_KW), peb_field)
        blob = bytearray(_peb_blob(fs))
        blob[len(blob) // 2] ^= 0xFF
        fs.write_file(peb_path("/wb/field"), bytes(blob))
        issues = [i for i in check_store(fs, "/wb", "field") if i.location == "peb"]
        assert len(issues) == 1
        assert issues[0].kind == "decode-error"

    def test_non_monotone_bounds_are_flagged(self, peb_field):
        """A CRC-intact record whose bounds *increase* with level must
        fail the cross-check: monotonicity is what lets the planner
        trust ``min_level_for``."""
        fs = _write(mloc_col((16, 16), **CONFIG_KW), peb_field)
        table = ErrorBoundsTable.from_bytes(_peb_blob(fs))
        bad_max = table.max_rel.copy()
        bad_max[3, 0] = bad_max[2, 0] + 1.0  # deeper level, larger bound
        fs.write_file(
            peb_path("/wb/field"),
            ErrorBoundsTable(bad_max, np.minimum(table.mean_rel, bad_max)).to_bytes(),
        )
        issues = [i for i in check_store(fs, "/wb", "field") if i.location == "peb"]
        assert len(issues) == 1
        assert "consistency" in issues[0].message

    def test_geometry_mismatch_is_flagged(self, peb_field):
        fs = _write(mloc_col((16, 16), **CONFIG_KW), peb_field)
        small = ErrorBoundsTable(np.zeros((7, 3)), np.zeros((7, 3)))
        fs.write_file(peb_path("/wb/field"), small.to_bytes())
        issues = [i for i in check_store(fs, "/wb", "field") if i.location == "peb"]
        assert len(issues) == 1
        assert "chunks" in issues[0].message


def _reference_chunk_bounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-chunk-at-a-time reductions the batched kernel replaced."""
    max_rel, mean_rel = np.zeros(N_GROUPS), np.zeros(N_GROUPS)
    groups = split_byte_groups(values)
    for level in range(1, N_GROUPS):
        approx = assemble_from_groups(groups[:level], values.size, level)
        rel = relative_errors(values, approx)
        max_rel[level - 1] = float(rel.max())
        mean_rel[level - 1] = float(rel.mean())
    return max_rel, mean_rel


@settings(max_examples=60, deadline=None)
@given(
    n_chunks=st.integers(min_value=1, max_value=6),
    chunk_size=st.sampled_from([1, 7, 64, 129, 1000]),
    n_bins=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_bounds_equal_per_chunk_bit_for_bit(n_chunks, chunk_size, n_bins, seed):
    """Mean included: the rows of the batched error array reduce in
    exactly the order each chunk's own bin-segmented vector does."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 10.0 ** rng.integers(-3, 6), size=n_chunks * chunk_size)
    values[rng.random(values.size) < 0.05] = 0.0  # the zero guard
    bids = rng.integers(0, n_bins, size=values.size).astype(np.int32)
    # The writer's slab order: one stable sort by bin over all chunks.
    _, slab_values, _ = per_bin_segments(values, bids, n_bins)
    counts = np.stack(
        [np.bincount(b, minlength=n_bins) for b in bids.reshape(n_chunks, chunk_size)],
        axis=1,
    )
    max_rel, mean_rel = compute_bounds_batch(slab_values, counts)
    for c in range(n_chunks):
        chunk = slice(c * chunk_size, (c + 1) * chunk_size)
        _, segmented, _ = per_bin_segments(values[chunk], bids[chunk], n_bins)
        want_max, want_mean = _reference_chunk_bounds(segmented)
        assert max_rel[:, c].tobytes() == want_max.tobytes()
        assert mean_rel[:, c].tobytes() == want_mean.tobytes()
        one_max, one_mean = compute_chunk_bounds(segmented)
        assert one_max.tobytes() == want_max.tobytes()
        assert one_mean.tobytes() == want_mean.tobytes()


def test_batched_bounds_reject_unequal_chunks():
    with pytest.raises(ValueError, match="equal-sized"):
        compute_bounds_batch(np.ones(5), np.array([[3, 2]]))
