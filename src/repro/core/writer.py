"""MLOC writer: the multi-level encode pipeline (Sections III-A/B).

The writer runs the full layout pipeline of Fig. 1 over an input array:

1. chunk the array on the configured grid;
2. order chunks by the configured curve (Hilbert by default,
   hierarchical Hilbert for subset-based multiresolution);
3. estimate equal-frequency bin boundaries from a sample and scatter
   each chunk's elements into bins (stable, preserving within-chunk
   order so position indices stay delta-friendly);
4. split values into PLoD byte groups (orders with 'M') or keep them
   whole (order 'VS');
5. nest the smallest units — (byte group, chunk) cells inside a bin —
   according to the level order, cut them into stripe-sized
   compression blocks, compress each with the configured codec;
6. write one data file and one position-index file per bin (Fig. 4)
   plus one metadata file.

The writer is a single pass over chunks with bounded buffering:
compressed blocks are staged in memory per (bin, group) stream and the
subfiles are materialized at the end, because the V-M-S order requires
all of byte-group g's cells to precede group g+1's in the file while
generation is chunk-major.

The pass is organized as three pipeline stages so the CPU-dominated
work can parallelize without changing a single output byte
(DESIGN.md §6, the bit-identical-output rule):

* **chunk stage** — per-chunk binning (``assign``), stable scatter
  (``per_bin_segments``) and PLoD byte-group splitting.  Pure
  functions of (data, cpos); under the ``"threads"`` write backend
  they run out of order on a pool with a bounded look-ahead window.
* **ordered commit stage** — always serial, always in curve (cell)
  order: chunk results are consumed in exactly the serial order and
  appended to each bin's streams, so compression-block *boundaries*
  are decided by the same deterministic raw-size accumulation as the
  serial writer.
* **compression stage** — when a stream cuts a block, the raw buffer
  is handed to the codec: inline under the ``"serial"`` backend, as a
  pool job under ``"threads"`` (zlib releases the GIL; ISOBAR/ISABELA
  are numpy/scipy-heavy), or as a picklable ``(spec, payload)`` task
  on the persistent spawned worker pool under ``"processes"`` — the
  GIL-free path (:mod:`repro.parallel.procpool`).  Codec ``encode``
  is required to be deterministic (see
  :mod:`repro.compression.base`), so payloads — and therefore
  subfiles, block tables, CRCs and metadata — are bit-identical
  across backends and worker counts.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.binning.binner import BinScheme, per_bin_segments
from repro.binning.boundaries import (
    equal_frequency_boundaries,
    equal_width_boundaries,
)
from repro.compression.base import ByteCodec, FloatCodec, make_codec
from repro.core.chunking import ChunkGrid
from repro.core.config import ExecutionConfig, MLOCConfig, fold_execution
from repro.core.meta import StoreMeta
from repro.index.binindex import encode_position_block
from repro.index.hbi import HBIBuilder, hbi_path
from repro.parallel.procpool import (
    AUTO_PROCESS_MIN_BYTES,
    PoolBrokenError,
    get_pool,
    run_task,
)
from repro.pfs.layout import BinFileSet
from repro.pfs.simfs import SimulatedPFS
from repro.plod.bounds import PEBBuilder, compute_chunk_bounds, peb_path
from repro.plod.byteplanes import GROUP_WIDTHS, split_byte_groups
from repro.sfc.hierarchical import hierarchical_order
from repro.sfc.linearize import CurveOrder, chunk_curve_order

__all__ = ["MLOCWriter", "WriteReport", "make_curve"]


def make_curve(config: MLOCConfig, grid: ChunkGrid) -> CurveOrder:
    """The chunk ordering a configuration prescribes."""
    if config.curve == "hierarchical":
        return hierarchical_order(grid.grid_shape)
    return chunk_curve_order(grid.grid_shape, config.curve)


@dataclass(frozen=True)
class WriteReport:
    """Storage accounting of one completed write (Table I inputs)."""

    variable: str
    raw_bytes: int
    data_bytes: int
    index_bytes: int
    meta_bytes: int
    #: Hierarchical bitmap index file size (0 when ``build_hbi=False``).
    #: Kept out of ``total_bytes`` so Table I storage accounting is
    #: unchanged by the optional summary structure.
    hbi_bytes: int = 0
    #: Per-chunk error-bounds file size (0 when ``build_peb=False`` or
    #: the layout has no PLoD byte planes).  Outside ``total_bytes``
    #: for the same reason as ``hbi_bytes``.
    peb_bytes: int = 0
    #: CRC32 of the metadata bytes as written — the store generation a
    #: dataset manifest records when it seals this write as a member
    #: (``repro.core.manifest``).
    meta_crc: int = 0

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.index_bytes + self.meta_bytes

    @property
    def data_ratio(self) -> float:
        return self.data_bytes / self.raw_bytes

    @property
    def total_ratio(self) -> float:
        return self.total_bytes / self.raw_bytes


class _SerialBackend:
    """Inline execution: one codec instance, no pool, no futures."""

    def __init__(self, codec: ByteCodec | FloatCodec) -> None:
        self._codec = codec

    def chunk_results(self, fn: Callable[[int], tuple], n_chunks: int) -> Iterator[tuple]:
        for cpos in range(n_chunks):
            yield fn(cpos)

    def encode_data(self, raw: np.ndarray) -> bytes:
        return self._codec.encode(raw)

    def encode_index(self, parts: list[np.ndarray], level: int) -> bytes:
        return encode_position_block(parts, level)

    def resolve(self, payload: bytes) -> bytes:
        return payload

    def close(self) -> None:
        pass


class _ThreadedBackend:
    """Pool execution with deterministic ordering.

    Chunk-stage jobs run out of order behind a bounded look-ahead
    window but are *consumed* in serial cell order; compression jobs
    are submitted in stream order and resolved in table order, so the
    committed bytes never depend on scheduling.  Each worker thread
    lazily builds its own codec instance (ISABELA keeps a mutable
    design-matrix cache; per-worker instances make sharing a non-issue
    for any registered codec).
    """

    def __init__(self, config: MLOCConfig, workers: int) -> None:
        self.workers = workers
        self._config = config
        self._tls = threading.local()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="mloc-write"
        )

    def _codec(self) -> ByteCodec | FloatCodec:
        codec = getattr(self._tls, "codec", None)
        if codec is None:
            codec = make_codec(self._config.codec, **self._config.codec_params)
            self._tls.codec = codec
        return codec

    def _encode_with_worker_codec(self, raw: np.ndarray) -> bytes:
        return self._codec().encode(raw)

    def chunk_results(self, fn: Callable[[int], tuple], n_chunks: int) -> Iterator[tuple]:
        # Bounded look-ahead keeps at most ~2 windows of chunk results
        # (plus their byte planes) alive while the commit stage drains
        # them in order.
        window = max(2 * self.workers, 2)
        pending: deque[Future] = deque()
        submitted = 0
        for _ in range(n_chunks):
            while submitted < n_chunks and len(pending) < window:
                pending.append(self._pool.submit(fn, submitted))
                submitted += 1
            yield pending.popleft().result()

    def encode_data(self, raw: np.ndarray) -> Future:
        return self._pool.submit(self._encode_with_worker_codec, raw)

    def encode_index(self, parts: list[np.ndarray], level: int) -> Future:
        return self._pool.submit(encode_position_block, parts, level)

    def resolve(self, payload: Future) -> bytes:
        return payload.result()

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class _ProcessBackend:
    """Compression on the shared spawn-based process pool.

    Only the compression stage leaves the parent: the chunk stage
    reads the input array in place (shipping chunk-sized slices to
    workers would move more bytes than the encode saves — shared-
    nothing means every byte a worker touches is pickled), and the
    commit stage is serial by design.  Encode jobs travel as picklable
    ``(spec, payload)`` tasks, are submitted in stream order, and
    resolve in table order, so committed bytes never depend on
    scheduling.  If the pool dies mid-write, the affected payloads are
    re-encoded inline through the same
    :func:`repro.parallel.procpool.run_task` interpreter — a worker
    crash costs time, never bytes.
    """

    def __init__(self, codec: ByteCodec | FloatCodec, workers: int) -> None:
        self.workers = workers
        self._pool = get_pool(workers)
        name, params = codec.spec()
        self._data_spec = ("encode-data", name, params)
        #: Encode jobs that fell back inline after a pool break.
        self.fallbacks = 0

    def chunk_results(self, fn: Callable[[int], tuple], n_chunks: int) -> Iterator[tuple]:
        for cpos in range(n_chunks):
            yield fn(cpos)

    def _submit(self, task: tuple) -> tuple:
        try:
            return self._pool.submit(task), task
        except PoolBrokenError:
            return None, task  # resolve() runs it inline

    def encode_data(self, raw: np.ndarray) -> tuple:
        return self._submit((self._data_spec, raw))

    def encode_index(self, parts: list[np.ndarray], level: int) -> tuple:
        return self._submit((("encode-index", level), parts))

    def resolve(self, pending: tuple) -> bytes:
        future, task = pending
        if future is not None:
            try:
                return self._pool.resolve(future)
            except PoolBrokenError:
                pass
        self.fallbacks += 1
        return run_task(task)

    def close(self) -> None:
        # The pool is shared and persistent (``get_pool``): later
        # writes and the processes read backend reuse its warm workers.
        pass


class _DataStream:
    """Accumulates consecutive cells of one (bin, group-stream) into
    compression blocks of approximately the configured raw size.

    Block *boundaries* are decided here by serial raw-size
    accumulation; block *payloads* come from the backend's ``encode``
    hook and may be futures resolved at commit time.
    """

    def __init__(self, encode, is_float: bool, target_bytes: int) -> None:
        self.encode = encode
        self.is_float = is_float
        self.target = target_bytes
        self._parts: list[np.ndarray] = []
        self._raw = 0
        self._cell_start: int | None = None
        self._next_cell: int | None = None
        #: (cell_start, cell_end, payload-or-future, raw_len) tuples.
        self.blocks: list[tuple[int, int, object, int]] = []

    def add(self, cell: int, part: np.ndarray) -> None:
        if self._cell_start is None:
            self._cell_start = cell
        elif cell != self._next_cell:
            raise ValueError(
                f"cells must be added consecutively: expected {self._next_cell}, got {cell}"
            )
        self._next_cell = cell + 1
        if part.size:
            self._parts.append(part)
            self._raw += part.nbytes
        if self._raw >= self.target:
            self.flush()

    def flush(self) -> None:
        if self._cell_start is None:
            return
        # One concatenate over the accumulated views for both the float
        # and the byte-plane path — parts are contiguous slices, so the
        # per-part Python-level copies of a join are skipped and codecs
        # consume the buffer directly.
        if self._parts:
            raw = self._parts[0] if len(self._parts) == 1 else np.concatenate(self._parts)
        else:
            raw = np.empty(0, dtype=np.float64 if self.is_float else np.uint8)
        self.blocks.append((self._cell_start, self._next_cell, self.encode(raw), raw.nbytes))
        self._parts = []
        self._raw = 0
        self._cell_start = None
        self._next_cell = None


class _IndexStream:
    """Accumulates per-chunk position arrays into index blocks."""

    def __init__(self, encode, target_bytes: int, zlib_level: int = 6) -> None:
        self.encode = encode
        self.target = target_bytes
        self.level = zlib_level
        self._parts: list[np.ndarray] = []
        self._raw = 0
        self._cpos_start: int | None = None
        self._next_cpos: int | None = None
        #: (cpos_start, cpos_end, payload-or-future) tuples.
        self.blocks: list[tuple[int, int, object]] = []

    def add(self, cpos: int, local_ids: np.ndarray) -> None:
        if self._cpos_start is None:
            self._cpos_start = cpos
        elif cpos != self._next_cpos:
            raise ValueError(
                f"chunks must be added consecutively: expected {self._next_cpos}, got {cpos}"
            )
        self._next_cpos = cpos + 1
        self._parts.append(local_ids)
        self._raw += local_ids.size * 8
        if self._raw >= self.target:
            self.flush()

    def flush(self) -> None:
        if self._cpos_start is None:
            return
        self.blocks.append(
            (self._cpos_start, self._next_cpos, self.encode(self._parts, self.level))
        )
        self._parts = []
        self._raw = 0
        self._cpos_start = None
        self._next_cpos = None


class MLOCWriter:
    """Encodes arrays into MLOC's multi-level on-disk layout.

    How the pipeline runs (inline, thread pool, process pool — see the
    module docstring) is the ``write_backend`` / ``write_workers`` pair
    of the handle's :class:`~repro.core.config.ExecutionConfig`, held
    whole as ``execution``; its fields may also be given as keywords.
    Every backend produces **bit-identical** subfiles and metadata
    (enforced by ``tests/test_writer_parallel.py``).

    Parameters
    ----------
    build_hbi:
        Build and persist the hierarchical bitmap index
        (:mod:`repro.index.hbi`) alongside the flat position index
        (default on).  The builder consumes the ordered commit
        stream, so the ``hbi`` file is bit-identical across write
        backends like every other subfile.  Stores opened without
        ``use_hbi`` ignore the file entirely.
    build_peb:
        Record per-(chunk, PLoD-level) error bounds
        (:mod:`repro.plod.bounds`) and persist them as the ``peb``
        record (default on; effective only for byte-plane layouts).
        Bounds are pure functions of the chunk-stage output consumed
        in ordered-commit order, so the file is bit-identical across
        write backends.  The record powers ``query(tol=...)``; stores
        written without it rebuild an identical table lazily on first
        use.
    """

    def __init__(
        self,
        fs: SimulatedPFS,
        root: str,
        config: MLOCConfig,
        *,
        build_hbi: bool = True,
        build_peb: bool = True,
        execution: ExecutionConfig | None = None,
        **overrides,
    ) -> None:
        self.fs = fs
        self.root = root.rstrip("/")
        self.config = config
        self.execution = fold_execution(execution, overrides)
        self.build_hbi = build_hbi
        self.build_peb = build_peb

    def variable_root(self, variable: str) -> str:
        """Directory of one variable's subfiles under this writer's root."""
        return f"{self.root}/{variable}"

    # ------------------------------------------------------------------
    def write(self, data: np.ndarray, variable: str = "var") -> WriteReport:
        """Run the full pipeline on ``data`` and persist every subfile."""
        data = np.ascontiguousarray(data, dtype=np.float64)
        grid = ChunkGrid(data.shape, self.config.chunk_shape)
        curve = make_curve(self.config, grid)
        codec = self._check_codec()
        scheme = self._estimate_bins(data)
        backend = self._make_backend(codec, data.nbytes)
        try:
            data_streams, index_streams, counts, hbi, peb = self._encode(
                data, grid, curve, scheme, backend
            )
            return self._commit(
                data, variable, scheme, counts, data_streams, index_streams, backend,
                hbi, peb,
            )
        finally:
            backend.close()

    # ------------------------------------------------------------------
    def _check_codec(self) -> ByteCodec | FloatCodec:
        """Instantiate the codec and verify it matches the level order."""
        config = self.config
        codec = make_codec(config.codec, **config.codec_params)
        if config.plod_enabled and not isinstance(codec, ByteCodec):
            raise TypeError(
                f"level order {config.level_order!r} splits byte planes and needs a "
                f"ByteCodec; {config.codec!r} is a {type(codec).__name__}"
            )
        if not config.plod_enabled and not isinstance(codec, FloatCodec):
            raise TypeError(
                f"level order {config.level_order!r} keeps whole values and needs a "
                f"FloatCodec; {config.codec!r} is a {type(codec).__name__}"
            )
        return codec

    def _make_backend(self, codec: ByteCodec | FloatCodec, data_nbytes: int):
        backend = self.execution.write_backend
        workers = self.execution.write_workers or os.cpu_count() or 1
        if backend == "auto":
            backend = (
                "processes"
                if workers > 1 and data_nbytes >= AUTO_PROCESS_MIN_BYTES
                else "serial"
            )
        if backend == "threads" and workers > 1:
            return _ThreadedBackend(self.config, workers)
        if backend == "processes" and workers > 1:
            return _ProcessBackend(codec, workers)
        return _SerialBackend(codec)

    # ------------------------------------------------------------------
    def _encode(self, data, grid, curve, scheme, backend):
        """Chunk fan-out + ordered commit into per-(bin, group) streams."""
        config = self.config
        n_bins, n_chunks = config.n_bins, grid.n_chunks
        n_groups = config.n_groups
        plod = config.plod_enabled
        counts = np.zeros((n_bins, n_chunks), dtype=np.uint32)

        # One stream per (bin, group) for group-major (V-M-S) nesting;
        # a single stream per bin otherwise (cells arrive in file order).
        streams_per_bin = n_groups if config.group_major else 1
        data_streams = [
            [
                _DataStream(backend.encode_data, not plod, config.target_block_bytes)
                for _ in range(streams_per_bin)
            ]
            for _ in range(n_bins)
        ]
        index_streams = [
            _IndexStream(backend.encode_index, config.target_block_bytes)
            for _ in range(n_bins)
        ]
        # The hierarchical index builder rides the ordered commit loop
        # below, which consumes chunk results in serial cpos order under
        # every backend — so the hbi file is backend-invariant too.
        hbi = (
            HBIBuilder(n_bins, n_chunks, grid.chunk_size) if self.build_hbi else None
        )
        # The bounds builder rides the same ordered commit loop; the
        # bounds themselves are computed in the (parallel) chunk stage
        # because they are pure functions of the chunk's values.
        peb = PEBBuilder(n_chunks) if (self.build_peb and plod) else None
        want_bounds = peb is not None

        def chunk_stage(cpos: int) -> tuple:
            chunk_id = int(curve.order[cpos])
            vals = data[grid.chunk_slices(chunk_id)].reshape(-1)
            bids = scheme.assign(vals)
            perm, sorted_vals, offsets = per_bin_segments(vals, bids, n_bins)
            planes = split_byte_groups(sorted_vals) if plod else [sorted_vals]
            bounds = (
                compute_chunk_bounds(sorted_vals, planes) if want_bounds else None
            )
            return perm, offsets, planes, bounds

        widths = GROUP_WIDTHS if plod else (8,)
        results = backend.chunk_results(chunk_stage, n_chunks)
        for cpos, (perm, offsets, planes, bounds) in enumerate(results):
            counts[:, cpos] = np.diff(offsets).astype(np.uint32)
            if hbi is not None:
                hbi.add_chunk(cpos, perm, offsets)
            if peb is not None:
                peb.add_chunk(cpos, *bounds)
            for b in range(n_bins):
                lo, hi = int(offsets[b]), int(offsets[b + 1])
                index_streams[b].add(cpos, perm[lo:hi])
                for g in range(n_groups):
                    w = widths[g]
                    part = planes[g][lo * w : hi * w] if plod else planes[0][lo:hi]
                    if config.group_major:
                        data_streams[b][g].add(g * n_chunks + cpos, part)
                    else:
                        data_streams[b][0].add(cpos * n_groups + g, part)
        return data_streams, index_streams, counts, hbi, peb

    # ------------------------------------------------------------------
    def _commit(
        self, data, variable, scheme, counts, data_streams, index_streams, backend,
        hbi=None, peb=None,
    ) -> WriteReport:
        """Materialize subfiles and metadata in deterministic order."""
        n_bins = self.config.n_bins
        # Cut every stream's final block first so the remaining
        # compression jobs overlap with the commit walk below.
        for b in range(n_bins):
            for stream in data_streams[b]:
                stream.flush()
            index_streams[b].flush()

        files = BinFileSet(self.variable_root(variable), n_bins)
        data_block_tables: list[np.ndarray] = []
        index_block_tables: list[np.ndarray] = []
        for b in range(n_bins):
            rows = []
            chunks_of_file: list[bytes] = []
            offset = 0
            for stream in data_streams[b]:
                for cell_start, cell_end, pending, raw_len in stream.blocks:
                    payload = backend.resolve(pending)
                    rows.append(
                        (
                            cell_start,
                            cell_end,
                            offset,
                            len(payload),
                            raw_len,
                            zlib.crc32(payload),
                        )
                    )
                    chunks_of_file.append(payload)
                    offset += len(payload)
            self.fs.write_file(files.data_path(b), b"".join(chunks_of_file))
            data_block_tables.append(np.array(rows, dtype=np.int64).reshape(-1, 6))

            rows = []
            chunks_of_file = []
            offset = 0
            for cpos_start, cpos_end, pending in index_streams[b].blocks:
                payload = backend.resolve(pending)
                rows.append(
                    (cpos_start, cpos_end, offset, len(payload), zlib.crc32(payload))
                )
                chunks_of_file.append(payload)
                offset += len(payload)
            self.fs.write_file(files.index_path(b), b"".join(chunks_of_file))
            index_block_tables.append(np.array(rows, dtype=np.int64).reshape(-1, 5))

        meta = StoreMeta(
            variable=variable,
            shape=data.shape,
            config=self.config,
            edges=scheme.edges,
            counts=counts,
            data_blocks=data_block_tables,
            index_blocks=index_block_tables,
        )
        meta.validate()
        meta_blob = meta.to_bytes()
        self.fs.write_file(files.meta_path, meta_blob)

        hbi_bytes = 0
        if hbi is not None:
            blob = hbi.finish().to_bytes()
            self.fs.write_file(hbi_path(self.variable_root(variable)), blob)
            hbi_bytes = len(blob)

        peb_bytes = 0
        if peb is not None:
            blob = peb.finish().to_bytes()
            self.fs.write_file(peb_path(self.variable_root(variable)), blob)
            peb_bytes = len(blob)

        return WriteReport(
            variable=variable,
            raw_bytes=data.nbytes,
            data_bytes=files.data_bytes(self.fs),
            index_bytes=files.index_bytes(self.fs),
            meta_bytes=self.fs.size(files.meta_path),
            hbi_bytes=hbi_bytes,
            peb_bytes=peb_bytes,
            meta_crc=zlib.crc32(meta_blob),
        )

    # ------------------------------------------------------------------
    def _estimate_bins(self, data: np.ndarray) -> BinScheme:
        """Bin boundaries: sampled quantiles, or true-range equal width.

        Equal-frequency edges come from a random sample (§IV-A1).
        Equal-width edges use the *full-array* min/max — two cheap
        single passes — because sample extremes systematically
        under-cover the data and would silently clamp every outlier
        into the two end bins.
        """
        config = self.config
        flat = data.reshape(-1)
        if config.binning == "equal-width":
            edges = equal_width_boundaries(
                float(flat.min()), float(flat.max()), config.n_bins
            )
            return BinScheme(edges)
        rng = np.random.default_rng(config.seed)
        n_sample = max(int(flat.size * config.sample_fraction), config.n_bins * 8)
        n_sample = min(n_sample, flat.size)
        sample = flat[rng.integers(0, flat.size, size=n_sample)]
        return BinScheme(equal_frequency_boundaries(sample, config.n_bins))
