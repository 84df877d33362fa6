"""Tests for the MLOC writer: layout invariants and storage accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MLOCStore, MLOCWriter, Query, mloc_col, mloc_isa, mloc_iso
from repro.core.config import MLOCConfig
from repro.core.writer import _BlockStream, _encode_cut, make_curve
from repro.datasets import gts_like
from repro.pfs import BinFileSet, SimulatedPFS


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return gts_like((128, 128), seed=4)


def write(data, config, fs=None):
    fs = fs if fs is not None else SimulatedPFS()
    report = MLOCWriter(fs, "/w", config).write(data, variable="f")
    return fs, report


class TestWriteReport:
    def test_accounting_matches_fs(self, data):
        fs, report = write(data, mloc_col((16, 16), n_bins=8, target_block_bytes=4096))
        files = BinFileSet("/w/f", 8)
        assert report.data_bytes == files.data_bytes(fs)
        assert report.index_bytes == files.index_bytes(fs)
        assert report.meta_bytes == fs.size(files.meta_path)
        assert report.raw_bytes == data.nbytes
        assert report.total_bytes == (
            report.data_bytes + report.index_bytes + report.meta_bytes
        )
        assert 0 < report.data_ratio < 1.2
        assert report.total_ratio < 1.5

    def test_compression_orders_match_table1(self, data):
        """Table I shape: ISA much smaller than COL/ISO; all MLOC
        variants smaller than raw + index bounded."""
        ratios = {}
        for maker, name in [(mloc_col, "col"), (mloc_iso, "iso"), (mloc_isa, "isa")]:
            _, report = write(data, maker((16, 16), n_bins=8, target_block_bytes=4096))
            ratios[name] = report.data_ratio
        assert ratios["isa"] < 0.5 * min(ratios["col"], ratios["iso"])
        assert ratios["col"] < 1.0 and ratios["iso"] < 1.0


class TestLayoutInvariants:
    def test_one_file_pair_per_bin(self, data):
        fs, _ = write(data, mloc_col((16, 16), n_bins=8, target_block_bytes=4096))
        names = fs.list_files("/w/f/")
        assert len([n for n in names if n.endswith(".data")]) == 8
        assert len([n for n in names if n.endswith(".index")]) == 8
        assert "/w/f/meta" in names

    def test_counts_cover_everything(self, data):
        fs, _ = write(data, mloc_col((16, 16), n_bins=8, target_block_bytes=4096))
        store = MLOCStore.open(fs, "/w", "f")
        assert int(store.meta.counts.sum()) == data.size
        assert store.meta.counts.shape == (8, 64)

    def test_block_tables_partition_cells(self, data):
        fs, _ = write(data, mloc_col((16, 16), n_bins=4, target_block_bytes=4096))
        store = MLOCStore.open(fs, "/w", "f")
        n_cells = 7 * store.meta.n_chunks  # 7 byte groups (V-M-S)
        for b in range(4):
            table = store.meta.data_blocks.of_bin(b)
            assert table[0, 0] == 0
            assert table[-1, 1] == n_cells
            # contiguous, non-overlapping cell ranges
            assert np.array_equal(table[1:, 0], table[:-1, 1])
            # offsets consistent with payload lengths
            assert np.array_equal(table[1:, 2], (table[:-1, 2] + table[:-1, 3]))
            assert table[-1, 2] + table[-1, 3] == store.fs.size(
                store.files.data_path(b)
            )

    def test_index_tables_partition_chunks(self, data):
        fs, _ = write(data, mloc_iso((16, 16), n_bins=4, target_block_bytes=4096))
        store = MLOCStore.open(fs, "/w", "f")
        for b in range(4):
            table = store.meta.index_blocks.of_bin(b)
            assert table[0, 0] == 0
            assert table[-1, 1] == store.meta.n_chunks
            assert np.array_equal(table[1:, 0], table[:-1, 1])

    def test_block_sizes_near_target(self, data):
        target = 4096
        fs, _ = write(data, mloc_iso((16, 16), n_bins=4, target_block_bytes=target))
        store = MLOCStore.open(fs, "/w", "f")
        raw_lens = store.meta.data_blocks.rows[:, 4]
        # All blocks but the last of each stream end at/above the target,
        # and none is wildly above it (one cell of slack).
        assert raw_lens.max() < 4 * target

    def test_smaller_blocks_more_rows(self, data):
        fs_a, _ = write(data, mloc_iso((16, 16), n_bins=4, target_block_bytes=2048))
        fs_b, _ = write(data, mloc_iso((16, 16), n_bins=4, target_block_bytes=16384))
        a = MLOCStore.open(fs_a, "/w", "f")
        b = MLOCStore.open(fs_b, "/w", "f")
        rows_a = len(a.meta.data_blocks.rows)
        rows_b = len(b.meta.data_blocks.rows)
        assert rows_a > rows_b


class TestCodecTypeChecking:
    def test_plod_requires_byte_codec(self, data):
        cfg = MLOCConfig(chunk_shape=(16, 16), level_order="VMS", codec="isobar")
        with pytest.raises(TypeError, match="ByteCodec"):
            write(data, cfg)

    def test_vs_requires_float_codec(self, data):
        cfg = MLOCConfig(chunk_shape=(16, 16), level_order="VS", codec="zlib-bytes")
        with pytest.raises(TypeError, match="FloatCodec"):
            write(data, cfg)


def test_writer_takes_no_execution_options():
    """The writer is one serial pass: it has no backend to choose."""
    for option in ({"write_backend": "threads"}, {"execution": None}):
        with pytest.raises(TypeError):
            MLOCWriter(SimulatedPFS(), "/w", mloc_col((16, 16)), **option)


class TestCurveVariants:
    @pytest.mark.parametrize("curve", ["hilbert", "zorder", "rowmajor", "hierarchical"])
    def test_all_curves_roundtrip(self, data, curve):
        cfg = mloc_col((16, 16), n_bins=4, curve=curve, target_block_bytes=4096)
        fs, _ = write(data, cfg)
        store = MLOCStore.open(fs, "/w", "f")
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.3, 0.4])
        r = store.query(Query(value_range=(lo, hi), output="positions"))
        expect = np.flatnonzero((flat >= lo) & (flat <= hi))
        assert np.array_equal(r.positions, expect)


class TestDeterminism:
    def test_same_seed_same_bytes(self, data):
        cfg = mloc_col((16, 16), n_bins=4, target_block_bytes=4096)
        fs1, r1 = write(data, cfg)
        fs2, r2 = write(data, cfg)
        assert r1.data_bytes == r2.data_bytes
        assert r1.index_bytes == r2.index_bytes
        p = "/w/f/bin0000.data"
        assert fs1.session().open(p).read_all() == fs2.session().open(p).read_all()


class TestWrittenStoreServesQueries:
    def test_roundtrip_query_matches_data(self, data):
        fs, _ = write(data, mloc_col((16, 16), n_bins=8, target_block_bytes=2048))
        store = MLOCStore.open(fs, "/w", "f")
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.4, 0.6])
        result = store.query(Query(value_range=(float(lo), float(hi)), output="values"))
        expect = np.flatnonzero((flat >= lo) & (flat <= hi))
        assert np.array_equal(result.positions, expect)
        assert np.allclose(np.sort(result.values), np.sort(flat[expect]))


class TestEqualWidthFullRange:
    def test_edges_span_true_extremes(self):
        """Equal-width edges come from the full array, not the sample.

        Plant extremes the boundary sample is unlikely to draw; the
        edges must still span them exactly, so outliers land in real
        bins instead of silently clamping into the end bins.
        """
        rng = np.random.default_rng(5)
        data = rng.normal(0.0, 1.0, size=(64, 64))
        data[0, 0] = -50.0
        data[63, 63] = 75.0
        config = mloc_col(
            (16, 16),
            n_bins=8,
            binning="equal-width",
            sample_fraction=0.01,
            target_block_bytes=2048,
        )
        fs, _ = write(data, config)
        store = MLOCStore.open(fs, "/w", "f")
        assert store.meta.edges[0] == data.min()
        assert store.meta.edges[-1] == data.max()
        # With sample-derived edges both outliers would clamp into the
        # end bins alongside ordinary values; with true-range edges the
        # interior bins actually partition [-50, 75].
        widths = np.diff(store.meta.edges)
        assert np.allclose(widths, widths[0])


def _one_cell_at_a_time(first_cell, sizes, target):
    """The accumulation the block-cutting stream replaced: add a cell,
    cut once the running raw size has reached the target."""
    rows, start, raw = [], None, 0
    for cell, size in enumerate(sizes, first_cell):
        if start is None:
            start = cell
        raw += size
        if raw >= target:
            rows.append((start, cell + 1, raw))
            start, raw = None, 0
    if start is not None:
        rows.append((start, first_cell + len(sizes), raw))
    return rows


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=40)), max_size=60
    ),
    target=st.integers(min_value=1, max_value=90),
    first_cell=st.integers(min_value=0, max_value=1000),
    data=st.data(),
)
def test_block_stream_cuts_where_single_cell_adds_would(sizes, target, first_cell, data):
    """Fed the same cells in arbitrary batches — empty cells, empty
    batches, cuts inside a batch and on its edges — the stream cuts
    the raw blocks of the one-cell-at-a-time loop, and the blocks that
    wait for an encode batch are its own: encoded after any batches,
    they are the same blocks."""
    sizes = np.array(sizes, dtype=np.int64)
    content = np.arange(int(sizes.sum())) % 251
    content = content.astype(np.uint8)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    stream = _BlockStream(target)

    def encode_many(buffers):
        return [bytes(raw) for raw in buffers]

    done, least = 0, 0
    while done < sizes.size:
        n = data.draw(st.integers(min_value=least, max_value=sizes.size - done))
        least = 0 if n else 1  # an empty batch, then progress
        batch = sizes[done : done + n]
        # Each batch arrives in a buffer of its own, as a slab would.
        buffer = content[offsets[done] : offsets[done + n]].copy()
        bounds = offsets[done : done + n + 1] - offsets[done]
        stream.add(first_cell + done, np.cumsum(batch), buffer, bounds)
        done += n
        if data.draw(st.booleans()):  # the writer encodes after each slab
            _encode_cut([stream], encode_many)
    stream.flush()
    _encode_cut([stream], encode_many)
    assert stream.cut == []
    want = _one_cell_at_a_time(first_cell, sizes.tolist(), target)
    assert [(a, b, raw) for a, b, _, raw in stream.blocks] == want
    for start, end, payload, _ in stream.blocks:
        lo, hi = offsets[start - first_cell], offsets[end - first_cell]
        assert payload == content[lo:hi].tobytes()


def test_block_stream_rejects_a_gap():
    stream = _BlockStream(10)
    stream.add(0, np.array([4]), np.zeros(4, dtype=np.uint8), np.array([0, 4]))
    with pytest.raises(ValueError, match="consecutively"):
        stream.add(2, np.array([4]), np.zeros(4, dtype=np.uint8), np.array([0, 4]))


class TestCurveMemo:
    def test_same_grid_and_curve_share_one_read_only_instance(self):
        from repro.core.chunking import ChunkGrid

        cfg = mloc_col((16, 16), curve="hilbert")
        first = make_curve(cfg, ChunkGrid((64, 64), (16, 16)))
        # Another array shape, the same chunk grid: the same curve.
        again = make_curve(mloc_col((8, 8)), ChunkGrid((32, 32), (8, 8)))
        assert again is first
        other = make_curve(mloc_col((16, 16), curve="zorder"), ChunkGrid((64, 64), (16, 16)))
        assert other is not first
        for array in (first.order, first.rank):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
