"""Calibration: modeled vs achieved throughput of every CPU-work constant.

Every decompression and reconstruction second the reproduction reports
is ``PFSCostModel.cpu_seconds(counted_bytes, throughput)`` (DESIGN.md
§5).  This benchmark is where the throughputs come from: for each
constant of the CPU-work table in :mod:`repro.pfs.costmodel` and each
registered codec's ``decode_throughput`` it runs the implementation's
own code on a 1 MB and a 16 MB buffer — large enough that per-call
overhead vanishes — and records the MB/s achieved next to the modeled
value.  It is wall-clock, so it only asserts that every constant is
within 10x of what this host achieves (hosts differ); it is slow-marked
and stays out of tier-1 and of ``make determinism``.
"""

import math
import time
from unittest import mock

import numpy as np

from benchmarks.conftest import best_of
from repro.compression.base import ByteCodec, codec_names, make_codec
from repro.core import MLOCStore, MLOCWriter, Query, mloc_iso
from repro.core.engine.stages import QueryEngine
from repro.datasets import gts_like, s3d_like
from repro.harness import format_table, record_result
from repro.index.binindex import decode_position_block_flat, encode_position_block
from repro.index.bitmap import wah_expand_groups, wah_from_positions
from repro.pfs import SimulatedPFS
from repro.pfs.costmodel import (
    ASSEMBLY_THROUGHPUT,
    FILTER_GATHER_THROUGHPUT,
    INDEX_DECODE_THROUGHPUT,
    WAH_EXPAND_THROUGHPUT,
)
from repro.plod.byteplanes import assemble_from_groups, split_byte_groups

SIZES = (1 << 20, 16 << 20)


def _turbulence(n):
    rng = np.random.default_rng(5)
    return np.cumsum(rng.normal(0, 0.02, n)) + 300.0


def _index_decode(nbytes):
    """Decode one position block holding ``nbytes`` of positions: a
    quarter of every 64x64 chunk's cells, as one bin of four sees."""
    rng = np.random.default_rng(7)
    n_chunks = nbytes // 8 // 1024
    chunks = [np.sort(rng.choice(4096, 1024, replace=False)) for _ in range(n_chunks)]
    payload = encode_position_block(chunks)
    counts = np.full(n_chunks, 1024)
    return nbytes, best_of(lambda: decode_position_block_flat(payload, counts))


def _assembly(nbytes):
    """Reassemble ``nbytes`` of float64 from their seven byte groups."""
    n = nbytes // 8
    groups = split_byte_groups(_turbulence(n))
    return nbytes, best_of(lambda: assemble_from_groups(groups, n, 7))


def _engine_filter_gather(nbytes, kind):
    """The engine's own reconstruction stage on one rank whose
    candidates (16 B each: position + value) fill ``nbytes``.

    Times ``QueryEngine.assemble`` (position gather, filters, the
    simulated gather and the sort of a batch of one) minus the cell
    gather + PLoD assembly it calls (``_gather_values``: that part is
    charged to decompression); the counted bytes are read back from the
    modeled seconds at ``byte_scale`` 1, so achieved / modeled is
    exactly measured-vs-charged for this query.
    """
    n = nbytes // 16
    if kind == "sc-3d":
        shape, chunk = (n // 4096, 64, 64), (16, 16, 16)
        data = s3d_like(shape, seed=3)
    else:
        shape, chunk = (math.isqrt(n),) * 2, (32, 32)
        data = gts_like(shape, seed=3)
    fs = SimulatedPFS()
    cfg = mloc_iso(chunk_shape=chunk, n_bins=4, target_block_bytes=1 << 20)
    MLOCWriter(fs, "/cal", cfg).write(data, variable="f")
    store = MLOCStore.open(fs, "/cal", "f", n_ranks=1)
    if kind == "vc":
        lo, hi = np.quantile(data, [0.2, 0.8])
        query = Query(value_range=(float(lo), float(hi)), output="values")
    else:  # off-grid box: every chunk is a candidate
        query = Query(region=tuple((1, s - 1) for s in shape), output="values")

    spent = {"assemble": 0.0, "values": 0.0}

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[key] += time.perf_counter() - t0
            return out

        return wrapper

    best = float("inf")
    with mock.patch.object(
        QueryEngine, "assemble", timed("assemble", QueryEngine.assemble)
    ), mock.patch.object(
        QueryEngine, "_gather_values", timed("values", QueryEngine._gather_values)
    ):
        for _ in range(3):
            spent["assemble"] = spent["values"] = 0.0
            result = store.query(query)
            best = min(best, spent["assemble"] - spent["values"])
    return result.times.reconstruction * FILTER_GATHER_THROUGHPUT, best


def _wah_expand(nbytes):
    """Expand-and-OR one precision bin (1/1024 of the points set) whose
    dense group array is ``nbytes``, as FastBit does per selected bin."""
    nbits = nbytes // 8 * 63
    rng = np.random.default_rng(9)
    words = wah_from_positions(
        np.unique(rng.integers(0, nbits, nbits // 1024)), nbits
    )
    acc = np.zeros(nbytes // 8, dtype=np.uint64)

    def run():
        np.bitwise_or(acc, wah_expand_groups(words), out=acc)

    return nbytes, best_of(run)


def _codec_decode(name, nbytes):
    """Decode ``nbytes`` of turbulence: whole values for a float codec,
    the seven PLoD byte groups for a byte codec (as MLOC-COL stores)."""
    codec = make_codec(name)
    values = _turbulence(nbytes // 8)
    if isinstance(codec, ByteCodec):
        # memoryviews, so the identity codec's copy is a real memcpy.
        planes = [
            (memoryview(codec.encode(g.tobytes())), g.size)
            for g in split_byte_groups(values)
        ]

        def run():
            for payload, raw_len in planes:
                codec.decode(payload, raw_len)

    else:
        payload = codec.encode(values)

        def run():
            codec.decode(payload, values.size)

    return nbytes, best_of(run)


def _cases():
    yield "index decode", INDEX_DECODE_THROUGHPUT, _index_decode
    yield "assembly", ASSEMBLY_THROUGHPUT, _assembly
    for kind in ("sc-2d", "sc-3d", "vc"):
        yield f"filter-gather ({kind})", FILTER_GATHER_THROUGHPUT, (
            lambda n, kind=kind: _engine_filter_gather(n, kind)
        )
    yield "wah expand", WAH_EXPAND_THROUGHPUT, _wah_expand
    for name in codec_names():
        yield f"codec {name}", make_codec(name).decode_throughput, (
            lambda n, name=name: _codec_decode(name, n)
        )


def test_calibration_report(benchmark, capsys):
    def compute():
        rows = {}
        for label, modeled, measure in _cases():
            cells = [round(modeled / 1e6, 1)]
            for nbytes in SIZES:
                counted, seconds = measure(nbytes)
                achieved = counted / seconds
                cells += [round(achieved / 1e6, 1), round(achieved / modeled, 2)]
            rows[label] = cells
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table("BENCH_calibration", rows))
    record_result("BENCH_calibration", {"rows": rows})

    for label, cells in rows.items():
        for ratio in (cells[2], cells[4]):
            assert math.isfinite(ratio) and 0.1 <= ratio <= 10.0, (label, cells)
