"""Progressive PLoD refinement sessions over the staged engine.

The PLoD layout exists so a reader can fetch only the first *k* byte
groups per point and later fetch more (paper Section III-B; cf. the
progressive-retrieval framework in PAPERS.md).  A
:class:`RefinementSession` is the read-path realization: it executes a
query at an initial PLoD level and *retains* every fetched
base/refinement plane, so :meth:`RefinementSession.refine` fetches
only the byte-plane blocks the session does not already hold.

Session-reuse rule (DESIGN.md §engine): **a refinement step may never
re-fetch a plane the session already verified.**  Mechanically, all
steps share one block fetcher — its decoded-job table answers repeat
requests without touching the PFS — and the held planes are pinned in
the store's block cache (keyed by the session) so concurrent queries
cannot evict them.  Lost (quarantined) blocks are deliberately *not*
retained: a later step re-attempts them, which the quarantine registry
answers deterministically.

Every step returns an ordinary :class:`~repro.core.result.QueryResult`
whose values are bit-identical to a fresh single-shot query at that
level (pinned by the ``session`` rows of the contract matrix's axis
table, ``tests/test_contract_matrix.py``), with
cumulative session counters added to ``stats``: ``refine_steps`` and
``bytes_reused``.  ``coalesced_reads`` stays the step's own (it is a
summed counter); the session total is
:attr:`RefinementSession.coalesced_reads`.

Error-bounded sessions (``query.tol`` set) resolve per-chunk target
levels from the store's ``peb`` bounds table: the initial step runs at
the *shallowest* target level, and each refinement only deepens the
chunks whose target exceeds the step level — chunks already at their
target fetch nothing further.  :meth:`progressive_results` drives the
whole ladder, yielding one result per step; only the final step
enforces the accuracy contract (earlier steps disclose their honest
``achieved_bound`` with ``tol_met=False``).

Every step is one ``store.query(..., level_cap=step level)`` through
the session's fetcher (:meth:`~repro.core.store.MLOCStore.stage` plans,
resolves, stages and stamps it like any other request), so a handle
refines identically whatever its shard count and the session keeps
only its cumulative counters and its cache pins.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.query import Query
from repro.core.result import QueryResult
from repro.plod.byteplanes import FULL_PLOD_LEVEL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.store import MLOCStore

__all__ = ["RefinementSession"]


class RefinementSession:
    """Progressive execution of one query at increasing PLoD levels.

    Created by ``MLOCStore.open_session``; the initial
    step executes immediately — at ``query.plod_level``, or, for
    error-bounded queries, at the shallowest per-chunk target level.
    Usable as a context manager — :meth:`close` releases the cache
    pins.
    """

    def __init__(self, store: "MLOCStore", query: Query) -> None:
        self._store = store
        self._query = query
        self._fetcher = store.new_fetcher(shared=True)
        self._owner = ("refinement-session", id(self))
        #: Per-chunk target PLoD levels of an error-bounded session
        #: (``None`` for plain level-driven sessions).
        self._target_levels: np.ndarray | None = store.resolve_levels(query)
        self._refine_steps = 0
        self._bytes_reused = 0
        self._coalesced_reads = 0
        self._closed = False
        #: Per-step results, most recent last.
        self.results: list[QueryResult] = []
        if self._target_levels is not None:
            start = int(self._target_levels.min()) if self._target_levels.size else 1
        else:
            start = query.plod_level
        self._level: int = start
        self._step(start)

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """The PLoD level of the most recent step."""
        return self._level

    @property
    def result(self) -> QueryResult:
        """The most recent step's result."""
        return self.results[-1]

    @property
    def refine_steps(self) -> int:
        """How many :meth:`refine` calls have executed."""
        return self._refine_steps

    @property
    def bytes_reused(self) -> int:
        """Raw (decoded) bytes served from held planes instead of the PFS."""
        return self._bytes_reused

    @property
    def coalesced_reads(self) -> int:
        """Vectored reads merged across every step so far (each step's
        ``stats`` carries only its own, a summed counter)."""
        return self._coalesced_reads

    # ------------------------------------------------------------------
    def refine(self, to_level: int) -> QueryResult:
        """Re-execute at a deeper PLoD level, fetching only missing planes.

        ``to_level`` must be strictly deeper than the current level and
        at most :data:`~repro.plod.byteplanes.FULL_PLOD_LEVEL`.  Raises
        ``ValueError`` on non-PLoD layouts (there are no refinement
        planes to fetch) and after :meth:`close`.

        On an error-bounded session the step level is a *ceiling*:
        each chunk refines to ``min(to_level, its target level)``, so
        chunks whose bound is already met fetch nothing further.
        """
        if self._closed:
            raise ValueError("refinement session is closed")
        if not self._store.meta.config.plod_enabled:
            raise ValueError(
                "refine() requires a PLoD layout (level order containing 'M'); "
                f"this store uses {self._store.meta.config.level_order!r}"
            )
        if not self._level < to_level <= FULL_PLOD_LEVEL:
            raise ValueError(
                f"to_level must be in ({self._level}, {FULL_PLOD_LEVEL}], "
                f"got {to_level}"
            )
        self._refine_steps += 1
        result = self._step(to_level)
        self._level = to_level
        return result

    def progressive_results(self) -> Iterator[QueryResult]:
        """Iterate the refinement ladder, yielding one result per step.

        Yields the most recent result first (the session's current
        state), then — on an error-bounded session — auto-refines
        through each remaining distinct per-chunk target level,
        yielding the incremental result of every step.  Each step
        fetches only the byte planes the shared fetcher does not
        already hold, so the stream is the progressive-retrieval read
        path: coarse answer now, deltas until every chunk provably
        meets ``tol``.  The final step enforces the accuracy contract
        (the step level no longer caps any chunk; see
        :meth:`~repro.core.store.MLOCStore.stage`).

        On a plain (tol-less) session this yields just the current
        result — there is no bound to converge to.
        """
        yield self.result
        if self._target_levels is None:
            return
        for level in sorted(set(int(lv) for lv in self._target_levels)):
            if level > self._level:
                yield self.refine(level)

    # ------------------------------------------------------------------
    def _step(self, level: int) -> QueryResult:
        # An error-bounded step runs the original query (its plan
        # fingerprint carries tol) under a level cap; a plain one moves
        # the query's own level.
        query = self._query
        if self._target_levels is None:
            query = replace(query, plod_level=level)
        result = self._store.query(query, fetcher=self._fetcher, level_cap=level)
        self._bytes_reused += result.stats["cache_hit_raw_bytes"]
        self._coalesced_reads += result.stats["coalesced_reads"]
        result.stats["refine_steps"] = self._refine_steps
        result.stats["bytes_reused"] = self._bytes_reused
        self._pin_held_blocks()
        self.results.append(result)
        return result

    def _pin_held_blocks(self) -> None:
        """Pin every held plane in the store cache against eviction."""
        cache = self._store.cache
        if cache is None:
            return
        for key in self._fetcher.held_keys():
            cache.pin(key, self._owner)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session's cache pins (idempotent)."""
        if self._closed:
            return
        self._closed = True
        cache = self._store.cache
        if cache is not None:
            cache.release(self._owner)

    def __enter__(self) -> "RefinementSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
