"""Simulated parallel file system (Lustre-like) with I/O accounting.

This is the storage substrate for the whole reproduction.  Bytes are
held in memory (the real datasets here are tens to hundreds of MB), but
every access is accounted under the :class:`~repro.pfs.costmodel.PFSCostModel`:
file opens, seeks (non-contiguous reads), bytes streamed per OST, and an
extent-level cache that the experiment harness clears between query
rounds exactly as the paper clears the OS file cache.

Key objects
-----------
``SimulatedPFS``
    The file-system namespace: create/append/read files, striping
    layout, cache, and global storage accounting.
``PFSSession``
    One client's (simulated MPI rank's) view for a single query:
    accumulates :class:`IOStats` and per-OST byte loads.
``SimFileHandle``
    A positioned reader that detects seeks.

Striping follows Lustre's default round-robin layout: stripe *k* of a
file lives on OST ``(first_ost + k) % ost_count`` where ``first_ost`` is
derived deterministically from the file name.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, insort
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from repro.pfs.costmodel import IOStats, PFSCostModel
from repro.util.record import RecordReader, frame, text_field

_SNAPSHOT_MAGIC = b"MLOCPFS\x00"
_SNAPSHOT_VERSION = 2
#: The :class:`PFSCostModel` fields, in declaration order.
_COST_MODEL = struct.Struct("<qqddqddd")
_COUNT = struct.Struct("<I")
_FILE = struct.Struct("<IQ")  # first_ost, size

__all__ = ["SimulatedPFS", "PFSSession", "SimFileHandle"]


@dataclass
class _SimFile:
    """A single simulated file: a growable byte buffer plus its layout."""

    data: bytearray = field(default_factory=bytearray)
    first_ost: int = 0

    @property
    def size(self) -> int:
        return len(self.data)


class _ExtentCache:
    """Per-file merged-interval cache of byte extents already read.

    Reads of cached extents are free (they would be served from the
    client page cache); :meth:`clear` models dropping the cache between
    experiment rounds.
    """

    def __init__(self) -> None:
        self._extents: dict[str, list[tuple[int, int]]] = {}

    def clear(self) -> None:
        self._extents.clear()

    def drop_file(self, path: str) -> None:
        self._extents.pop(path, None)

    def uncached_bytes(self, path: str, offset: int, length: int) -> int:
        """How many of the bytes in [offset, offset+length) are cold."""
        if length <= 0:
            return 0
        cold = length
        for start, end in self._extents.get(path, ()):
            lo = max(start, offset)
            hi = min(end, offset + length)
            if hi > lo:
                cold -= hi - lo
        return cold

    def evict(self, path: str, offset: int, length: int) -> None:
        """Forget [offset, offset+length): the next read of it is cold.

        Used by the fault-injection layer when a transfer was corrupted
        or torn in flight — the bytes never reached the client intact,
        so a retry must be charged as a fresh disk read.
        """
        if length <= 0:
            return
        intervals = self._extents.get(path)
        if not intervals:
            return
        lo, hi = offset, offset + length
        kept: list[tuple[int, int]] = []
        for start, end in intervals:
            if end <= lo or start >= hi:
                kept.append((start, end))
                continue
            if start < lo:
                kept.append((start, lo))
            if end > hi:
                kept.append((hi, end))
        if kept:
            self._extents[path] = kept
        else:
            del self._extents[path]

    def mark(self, path: str, offset: int, length: int) -> None:
        """Record [offset, offset+length) as cached, merging intervals."""
        if length <= 0:
            return
        intervals = self._extents.setdefault(path, [])
        intervals.append((offset, offset + length))
        intervals.sort()
        merged: list[tuple[int, int]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._extents[path] = merged


class SimulatedPFS:
    """In-memory parallel file system with Lustre-style striping.

    Parameters
    ----------
    cost_model:
        The :class:`PFSCostModel` controlling striping geometry and the
        time attributed to opens/seeks/transfers.
    """

    def __init__(self, cost_model: PFSCostModel | None = None) -> None:
        self.cost_model = cost_model if cost_model is not None else PFSCostModel()
        self._files: dict[str, _SimFile] = {}
        #: The paths of ``_files``, sorted: a prefix query bisects a
        #: range instead of scanning the namespace, which made append
        #: campaigns (two manifest lookups per append) quadratic.
        self._paths: list[str] = []
        self._cache = _ExtentCache()

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        """Whether ``path`` names a file in the namespace."""
        return path in self._files

    def create(self, path: str, overwrite: bool = True) -> None:
        """Create an empty file; its first OST is derived from the name."""
        if not overwrite and path in self._files:
            raise FileExistsError(path)
        first_ost = zlib.crc32(path.encode()) % self.cost_model.ost_count
        if path not in self._files:
            insort(self._paths, path)
        self._files[path] = _SimFile(first_ost=first_ost)
        self._cache.drop_file(path)

    def write_file(self, path: str, data: bytes) -> None:
        """Create (or replace) ``path`` with ``data``."""
        self.create(path, overwrite=True)
        self._files[path].data.extend(data)

    def append(self, path: str, data: bytes) -> int:
        """Append ``data``; returns the offset at which it was written."""
        f = self._require(path)
        offset = len(f.data)
        f.data.extend(data)
        return offset

    def delete(self, path: str) -> None:
        """Remove ``path`` (raises ``FileNotFoundError`` if absent)."""
        self._require(path)
        del self._files[path]
        del self._paths[bisect_left(self._paths, path)]
        self._cache.drop_file(path)

    def size(self, path: str) -> int:
        """Current size of ``path`` in bytes."""
        return self._require(path).size

    def list_files(self, prefix: str = "") -> list[str]:
        """All paths under ``prefix``, sorted."""
        lo = bisect_left(self._paths, prefix)
        # From ``lo`` on, the paths with the prefix come first.
        hi = bisect_left(
            self._paths, True, lo=lo, key=lambda path: not path.startswith(prefix)
        )
        return self._paths[lo:hi]

    def total_bytes(self, prefix: str = "") -> int:
        """Total storage under ``prefix`` (used for Table I accounting)."""
        return sum(len(self._files[path].data) for path in self.list_files(prefix))

    def clear_cache(self) -> None:
        """Drop the extent cache: the next reads hit 'disk' again."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Persistence (snapshots of the whole simulated file system)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Snapshot every file (and the cost model) to a real file.

        Lets encoded datasets outlive the process — e.g. the CLI builds
        a dataset once and queries it from later invocations.
        """
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "SimulatedPFS":
        """Restore a snapshot written by :meth:`save`."""
        return cls.from_bytes(Path(path).read_bytes())

    def to_bytes(self) -> bytes:
        """The snapshot record (FORMAT.md, "Snapshots"); the extent cache
        is not persisted (a fresh snapshot load is a cold file system)."""
        fields = [_COST_MODEL.pack(*astuple(self.cost_model)), _COUNT.pack(len(self._paths))]
        for name in self._paths:
            f = self._files[name]
            fields += [text_field(name), _FILE.pack(f.first_ost, f.size), f.data]
        return frame(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, *fields)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SimulatedPFS":
        """Parse a snapshot record; malformed bytes raise ``FormatError``."""
        reader = RecordReader(raw, _SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, "PFS snapshot")
        try:
            fs = cls(PFSCostModel(*reader.unpack(_COST_MODEL)))
        except ValueError as exc:
            reader.fail(f"impossible cost model: {exc}")
        (n_files,) = reader.unpack(_COUNT)
        for _ in range(n_files):
            name = reader.text()
            first_ost, size = reader.unpack(_FILE)
            if first_ost >= fs.cost_model.ost_count or name in fs._files:
                reader.fail(f"file {name!r} repeats or has first OST {first_ost}")
            fs._files[name] = _SimFile(bytearray(reader.take(size)), first_ost)
        reader.done()
        fs._paths = sorted(fs._files)
        return fs

    def _require(self, path: str) -> _SimFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    # ------------------------------------------------------------------
    # Client sessions
    # ------------------------------------------------------------------
    def session(self) -> "PFSSession":
        """Open a new accounting session (one per simulated rank/query)."""
        return PFSSession(self)

    def _make_handle(self, session: "PFSSession", path: str) -> "SimFileHandle":
        """Handle factory; subclasses (FaultyPFS) inject failing handles."""
        return SimFileHandle(session, path)


class SimFileHandle:
    """A positioned read handle that charges seeks on discontinuity; it
    holds what it reads through, not its session (no reference cycle)."""

    def __init__(self, session: "PFSSession", path: str) -> None:
        self._fs = session.fs
        self._stats = session.stats
        self._ost_bytes = session.ost_bytes
        self._path = path
        self._pos: int | None = None  # None => no read yet; first read seeks

    @property
    def path(self) -> str:
        return self._path

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, charging I/O costs."""
        fs = self._fs
        f = fs._require(self._path)
        if offset < 0 or length < 0 or offset + length > f.size:
            raise ValueError(
                f"read out of range: [{offset}, {offset + length}) of {self._path} "
                f"(size {f.size})"
            )
        stats = self._stats
        if self._pos is None or offset != self._pos:
            stats.seeks += 1
        self._pos = offset + length
        stats.reads += 1

        cold = fs._cache.uncached_bytes(self._path, offset, length)
        if cold > 0:
            # Charge only the cold fraction; distribute proportionally
            # over the stripes the full extent touches, one product per
            # OST: its bytes of the extent times cold / length.
            share = cold / length
            stripe, n_ost = fs.cost_model.stripe_size, fs.cost_model.ost_count
            end = offset + length
            first, last = offset // stripe, (end - 1) // stripe
            # Stripe s, and every n_ost-th stripe after it up to the
            # last, live on one OST; the first and last are partial.
            for s in range(first, min(last + 1, first + n_ost)):
                load = ((last - s) // n_ost + 1) * stripe
                if s == first:
                    load -= offset - first * stripe
                if (last - s) % n_ost == 0:
                    load -= (last + 1) * stripe - end
                self._ost_bytes[(f.first_ost + s) % n_ost] += float(load) * share
            stats.bytes_read += cold
            fs._cache.mark(self._path, offset, length)
        return bytes(memoryview(f.data)[offset : offset + length])

    def read_all(self) -> bytes:
        return self.read(0, self._fs.size(self._path))

    def readv(self, extents: list[tuple[int, int]]) -> list[bytes]:
        """Vectored read: fetch several extents as one contiguous span.

        ``extents`` is a list of ``(offset, length)`` pairs sorted by
        offset.  The whole span from the first offset to the last end is
        transferred as a *single* positioned read — one seek (at most)
        plus one contiguous transfer that includes the gap bytes between
        extents.  That is the cost-model contract coalescing relies on:
        trading gap bytes for seeks.  Returns one payload per extent.

        Fault injection (:class:`repro.pfs.faults.FaultyPFS`) applies to
        the *span* read — a transient error fails the whole vector, and
        corruption lands somewhere inside it; callers re-verify each
        extent's CRC individually and fall back to single reads.
        """
        if not extents:
            return []
        offsets = [o for o, _ in extents]
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("readv extents must be sorted by offset")
        if any(length < 0 for _, length in extents):
            raise ValueError("readv extent lengths must be >= 0")
        span_start = offsets[0]
        span_end = max(o + n for o, n in extents)
        data = self.read(span_start, span_end - span_start)
        self._stats.vectored_reads += 1
        return [data[o - span_start : o - span_start + n] for o, n in extents]


class PFSSession:
    """One client's I/O accounting context.

    Open handles are cached per path (a client keeps a file open for the
    duration of a query), so each distinct file costs exactly one
    file-open metadata operation per session.
    """

    def __init__(self, fs: SimulatedPFS) -> None:
        self.fs = fs
        self.stats = IOStats()
        self.ost_bytes = np.zeros(fs.cost_model.ost_count, dtype=np.float64)
        self._handles: dict[str, SimFileHandle] = {}

    def open(self, path: str) -> SimFileHandle:
        if path not in self._handles:
            self.fs._require(path)  # raise FileNotFoundError eagerly
            self.stats.opens += 1
            self._handles[path] = self.fs._make_handle(self, path)
        return self._handles[path]
