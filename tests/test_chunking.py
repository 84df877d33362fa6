"""Tests for chunk-grid geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import ChunkGrid, normalize_region


@pytest.fixture()
def grid2d() -> ChunkGrid:
    return ChunkGrid((64, 128), (16, 32))


@pytest.fixture()
def grid3d() -> ChunkGrid:
    return ChunkGrid((32, 32, 32), (8, 16, 8))


class TestConstruction:
    def test_derived_quantities(self, grid2d):
        assert grid2d.grid_shape == (4, 4)
        assert grid2d.n_chunks == 16
        assert grid2d.chunk_size == 512
        assert grid2d.n_elements == 8192
        assert grid2d.ndims == 2

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="not a multiple"):
            ChunkGrid((65, 128), (16, 32))


class TestChunkIdMapping:
    def test_roundtrip(self, grid3d):
        ids = np.arange(grid3d.n_chunks)
        assert np.array_equal(grid3d.chunk_ids(grid3d.chunk_coords(ids)), ids)

    def test_row_major_convention(self, grid2d):
        assert grid2d.chunk_coords(np.array([0]))[0].tolist() == [0, 0]
        assert grid2d.chunk_coords(np.array([1]))[0].tolist() == [0, 1]
        assert grid2d.chunk_coords(np.array([4]))[0].tolist() == [1, 0]

    def test_chunk_slices(self, grid2d):
        slices = grid2d.chunk_slices(5)  # coords (1, 1)
        assert slices == (slice(16, 32), slice(32, 64))


class TestRegions:
    def test_normalize_accepts_slices_and_pairs(self):
        region = normalize_region((slice(2, 6), (0, 4)), (8, 8))
        assert region == ((2, 6), (0, 4))

    def test_normalize_defaults(self):
        region = normalize_region((slice(None), slice(3, None)), (8, 8))
        assert region == ((0, 8), (3, 8))

    def test_normalize_rejects_bad_bounds(self):
        for bad in [((0, 9),), ((3, 3),), ((-1, 4),)]:
            with pytest.raises(ValueError):
                normalize_region(bad, (8,))
        with pytest.raises(ValueError, match="rank"):
            normalize_region(((0, 4),), (8, 8))
        with pytest.raises(ValueError, match="step"):
            normalize_region((slice(0, 4, 2),), (8,))

    def test_chunks_overlapping_exact(self, grid2d):
        ids = grid2d.chunks_overlapping(((0, 16), (0, 32)))
        assert ids.tolist() == [0]
        ids = grid2d.chunks_overlapping(((15, 17), (31, 33)))
        assert sorted(ids.tolist()) == [0, 1, 4, 5]

    def test_chunks_overlapping_whole(self, grid2d):
        assert grid2d.chunks_overlapping(((0, 64), (0, 128))).size == 16

    def test_chunk_within_region(self, grid2d):
        region = ((0, 32), (0, 64))
        within = grid2d.chunks_within_region(np.array([0, 2]), region)
        assert within.tolist() == [True, False]

    def test_positions_in_region(self, grid2d):
        region = ((10, 20), (5, 9))
        positions = np.array([10 * 128 + 5, 10 * 128 + 9, 9 * 128 + 5])
        assert grid2d.positions_in_region(positions, region).tolist() == [
            True,
            False,
            False,
        ]


class TestPositions:
    def test_global_positions_match_numpy(self, grid3d):
        data = np.arange(grid3d.n_elements).reshape(grid3d.shape)
        for chunk_id in [0, 7, grid3d.n_chunks - 1]:
            block = data[grid3d.chunk_slices(chunk_id)].reshape(-1)
            local = np.arange(grid3d.chunk_size)
            assert np.array_equal(grid3d.global_positions(chunk_id, local), block)

    def test_global_positions_batch_matches_single(self, grid2d, rng):
        chunk_ids = np.array([3, 7, 11])
        locals_per_chunk = [
            np.sort(rng.choice(grid2d.chunk_size, size=5, replace=False))
            for _ in chunk_ids
        ]
        batch = grid2d.global_positions_batch(
            chunk_ids,
            np.concatenate(locals_per_chunk),
            np.array([5, 5, 5]),
        )
        singles = np.concatenate(
            [
                grid2d.global_positions(int(c), l)
                for c, l in zip(chunk_ids, locals_per_chunk)
            ]
        )
        assert np.array_equal(batch, singles)

    def test_batch_count_mismatch(self, grid2d):
        with pytest.raises(ValueError, match="counts sum"):
            grid2d.global_positions_batch(
                np.array([0]), np.array([0, 1]), np.array([1])
            )

    def test_batch_empty(self, grid2d):
        out = grid2d.global_positions_batch(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
        )
        assert out.size == 0

    def test_coords_roundtrip(self, grid3d, rng):
        positions = rng.integers(0, grid3d.n_elements, 100)
        coords = grid3d.positions_to_coords(positions)
        assert np.array_equal(grid3d.coords_to_positions(coords), positions)

    def test_chunk_of_positions(self, grid2d):
        # Element (17, 40) lives in chunk (1, 1) = id 5.
        pos = np.array([17 * 128 + 40])
        assert grid2d.chunk_of_positions(pos).tolist() == [5]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_position_roundtrip_property(data):
    ndims = data.draw(st.integers(min_value=1, max_value=3))
    chunk_shape = tuple(
        data.draw(st.integers(min_value=1, max_value=6)) for _ in range(ndims)
    )
    multiples = tuple(
        data.draw(st.integers(min_value=1, max_value=4)) for _ in range(ndims)
    )
    shape = tuple(c * m for c, m in zip(chunk_shape, multiples))
    grid = ChunkGrid(shape, chunk_shape)
    chunk_id = data.draw(st.integers(min_value=0, max_value=grid.n_chunks - 1))
    local = np.arange(grid.chunk_size)
    positions = grid.global_positions(chunk_id, local)
    # Every produced position maps back to the same chunk.
    assert np.all(grid.chunk_of_positions(positions) == chunk_id)
    # And positions are unique within the array.
    assert np.unique(positions).size == positions.size
