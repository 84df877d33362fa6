"""Extension micro-benchmarks: the performance-critical substrates.

Regression guards for the vectorized kernels everything else sits on:
Hilbert encode/decode, WAH bitmap compression, varint packing, the
position-index codec, and PLoD byte-plane splitting.  These are wall
times of this implementation (no cost-model scaling) — the numbers
that matter for keeping the benchmark suite itself fast.
"""

import numpy as np
import pytest

from repro.index.binindex import PositionBlock, encode_position_block
from repro.index.bitmap import wah_decode, wah_from_positions
from repro.plod.byteplanes import assemble_from_groups, split_byte_groups
from repro.sfc.hilbert import hilbert_decode, hilbert_encode
from repro.util.varint import varint_decode_array, varint_encode_array

N_POINTS = 1 << 18  # 256k


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(17)


class TestHilbertThroughput:
    def test_encode_2d(self, benchmark, rng):
        coords = rng.integers(0, 1 << 10, size=(N_POINTS, 2))
        out = benchmark(hilbert_encode, coords, 10)
        assert out.size == N_POINTS

    def test_decode_3d(self, benchmark, rng):
        idx = rng.integers(0, 1 << 30, size=N_POINTS, dtype=np.uint64)
        out = benchmark(hilbert_decode, idx, 3, 10)
        assert out.shape == (N_POINTS, 3)


class TestBitmapThroughput:
    def test_wah_from_positions_sparse(self, benchmark, rng):
        positions = rng.choice(4_000_000, size=40_000, replace=False)
        words = benchmark(wah_from_positions, positions, 4_000_000)
        assert words.size > 0

    def test_wah_decode(self, benchmark, rng):
        positions = rng.choice(4_000_000, size=40_000, replace=False)
        words = wah_from_positions(positions, 4_000_000)
        out = benchmark(wah_decode, words, 4_000_000)
        assert out.size == (4_000_000 + 7) // 8


class TestVarintThroughput:
    def test_encode(self, benchmark, rng):
        values = rng.integers(0, 1 << 20, size=N_POINTS, dtype=np.uint64)
        payload = benchmark(varint_encode_array, values)
        assert len(payload) > 0

    def test_decode(self, benchmark, rng):
        values = rng.integers(0, 1 << 20, size=N_POINTS, dtype=np.uint64)
        payload = varint_encode_array(values)
        out = benchmark(varint_decode_array, payload, N_POINTS)
        assert out.size == N_POINTS


class TestPositionIndexThroughput:
    def test_roundtrip(self, benchmark, rng):
        chunks = [
            np.sort(rng.choice(4096, size=300, replace=False)) for _ in range(64)
        ]
        counts = np.array([c.size for c in chunks])

        def run():
            payload = encode_position_block(chunks)
            return PositionBlock(payload, counts).positions()

        out = benchmark(run)
        assert out.size == counts.sum()


class TestPLoDThroughput:
    def test_split(self, benchmark, rng):
        values = rng.uniform(100, 1000, N_POINTS)
        groups = benchmark(split_byte_groups, values)
        assert len(groups) == 7

    def test_assemble_level2(self, benchmark, rng):
        values = rng.uniform(100, 1000, N_POINTS)
        groups = split_byte_groups(values)
        out = benchmark(assemble_from_groups, groups[:2], N_POINTS, 2)
        assert out.size == N_POINTS
