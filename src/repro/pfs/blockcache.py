"""Decoded-block LRU cache shared across queries.

The paper's evaluation clears the OS file cache between query rounds,
but its FastBit discussion notes how different the picture looks once
an index is *warm*; any long-running exploration service keeps recently
decoded blocks around.  This module provides that layer for the
reproduction: a byte-budgeted LRU of **decoded** compression blocks
(index-position arrays and data-cell payloads), shared across queries
through :class:`~repro.core.store.MLOCStore`.

Modeled-time rule (DESIGN.md §5): a cache hit skips both the simulated
I/O of the block's extent (no open/seek/transfer is charged to the
rank's PFS session) and the modeled decompression seconds (the block's
raw bytes are not added to the rank's decode counters).  Reconstruction
work on the decoded bytes is still performed and charged — a warm
cache does not make filtering free.

Keys are ``(generation, path, offset)`` where ``generation`` fingerprints
the store metadata: reopening a rewritten store yields a new generation,
so stale blocks of the old layout can never be served (they age out of
the LRU).  Nothing is ever invalidated: entries leave by LRU pressure
or a quota :meth:`BlockCache.drop`.

The cache is thread-safe (the threaded query backend decodes blocks
concurrently), but insertions are performed by the executor in
deterministic plan order so that eviction order — and therefore every
later query's hit pattern — is identical under the serial and threaded
backends.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["BlockCache", "CacheStats"]


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`BlockCache`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Raw (decoded) bytes served from the cache instead of the PFS.
    hit_bytes: int = 0
    current_bytes: int = 0
    capacity_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "hit_bytes": self.hit_bytes,
            "current_bytes": self.current_bytes,
            "capacity_bytes": self.capacity_bytes,
        }


def _entry_nbytes(value: object) -> int:
    """Budgeted size of a cached decoded block."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    raise TypeError(f"uncacheable block payload of type {type(value).__name__}")


class BlockCache:
    """Byte-budgeted LRU of decoded blocks, keyed by ``(gen, path, offset)``.

    Parameters
    ----------
    capacity_bytes:
        Budget for the *decoded* payload bytes held at once.  An entry
        larger than the whole budget is never stored (it would only
        thrash the rest of the cache for a guaranteed re-miss).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple[object, int]]" = OrderedDict()
        #: key -> set of pin owners; pinned entries are never evicted.
        self._pins: dict[tuple, set[object]] = {}
        self.stats = CacheStats(capacity_bytes=self.capacity_bytes)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[tuple]:
        """Current keys in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> object | None:
        """Return the cached decoded block, or ``None`` (counts a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.hit_bytes += entry[1]
            return entry[0]

    def touch(self, key: tuple) -> bool:
        """Refresh ``key``'s recency without counting a hit.

        Lets the engine replay cache touches in deterministic plan
        order after out-of-order lookups, keeping LRU state — and every
        later query's hit pattern — independent of I/O scheduling.
        """
        with self._lock:
            if key not in self._entries:
                return False
            self._entries.move_to_end(key)
            return True

    def pin(self, key: tuple, owner: object) -> bool:
        """Protect ``key`` from eviction until ``owner`` releases it.

        Used by refinement sessions to keep already-verified planes
        resident across steps.  Pinning an absent key is a no-op
        (returns False).
        """
        with self._lock:
            if key not in self._entries:
                return False
            self._pins.setdefault(key, set()).add(owner)
            return True

    def release(self, owner: object) -> int:
        """Drop every pin held by ``owner``; returns how many."""
        with self._lock:
            released = 0
            for key in [k for k, owners in self._pins.items() if owner in owners]:
                owners = self._pins[key]
                owners.discard(owner)
                released += 1
                if not owners:
                    del self._pins[key]
            return released

    def pinned_keys(self) -> list[tuple]:
        """Currently pinned keys (for introspection/stats)."""
        with self._lock:
            return list(self._pins)

    def put(self, key: tuple, value: object) -> bool:
        """Insert a decoded block; returns False if it exceeds the budget."""
        nbytes = _entry_nbytes(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.stats.current_bytes -= old[1]
            if nbytes > self.capacity_bytes:
                return False
            self._entries[key] = (value, nbytes)
            self.stats.current_bytes += nbytes
            self.stats.insertions += 1
            while self.stats.current_bytes > self.capacity_bytes:
                victim = next(
                    (k for k in self._entries if k not in self._pins), None
                )
                if victim is None:
                    # Everything resident is pinned: tolerate the
                    # overshoot rather than evict a held plane.
                    break
                _, evicted_nbytes = self._entries.pop(victim)
                self.stats.current_bytes -= evicted_nbytes
                self.stats.evictions += 1
            return True

    def entry_nbytes(self, key: tuple) -> int | None:
        """Budgeted size of a resident entry, or ``None`` if absent.

        Does not touch recency or hit/miss counters — this is an
        accounting probe (per-tenant cache quotas), not an access.
        """
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry[1]

    def drop(self, key: tuple) -> bool:
        """Evict one entry by key (quota enforcement); pins win.

        Returns True when the entry was resident and unpinned and is
        now gone.  A pinned entry is never dropped — a session or
        broker waiter still holds it — and an absent key is a no-op.
        """
        with self._lock:
            if key not in self._entries or key in self._pins:
                return False
            _, nbytes = self._entries.pop(key)
            self.stats.current_bytes -= nbytes
            self.stats.evictions += 1
            return True
