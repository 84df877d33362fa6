"""The broker's continuous fetch-merge loop.

:meth:`~repro.core.store.MLOCStore.query_many` already proves the core
mechanism: several queries sharing one
:class:`~repro.core.engine.scheduler._BlockFetcher` never decode the
same compression block twice — the first requester in plan order pays
the simulated I/O and modeled decode seconds, later requesters record
dedup hits.  Sharing a fetcher can never change results, only skip
work (the batch/session bit-identity tests pin this).

This module generalizes that from *one batch* to *a service loop*:
the :class:`FetchMergeLoop` owns a single shared fetcher that stays
alive across scheduling rounds, so overlapping block demand from
**different tenants** coalesces exactly like overlapping queries in a
batch.  The loop's lifecycle rule implements the serving invariant of
DESIGN.md §8:

    **the broker never decodes a block twice while any waiter
    exists** — decoded jobs are retained in the shared fetcher until
    the broker tells the loop the waiter set is empty, at which point
    :meth:`end_round` releases them (the persistent
    :class:`~repro.pfs.blockcache.BlockCache`, when configured, keeps
    serving the hot subset after release).

Per-execute cache-insertion attribution (``inserted`` below) is what
lets the broker charge tenant cache quotas: every key the fetcher
inserted into the persistent LRU during a query is handed back to the
caller, who knows which tenant triggered it.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.core.result import QueryResult

__all__ = ["FetchMergeLoop"]


class FetchMergeLoop:
    """One shared fetcher, alive across broker scheduling rounds."""

    def __init__(self, store) -> None:
        self.store = store
        self.cache = store.cache
        self.fetcher = store.new_fetcher(shared=True)
        #: Completed scheduling rounds.
        self.rounds = 0
        #: Decoded jobs released at round boundaries (lifetime total).
        self.released_jobs = 0

    # ------------------------------------------------------------------
    def retained_jobs(self) -> int:
        """Decoded blocks currently retained for in-flight waiters."""
        return len(self.fetcher._jobs)

    def execute(
        self,
        query: Query,
        planned,
        position_filter=None,
    ) -> tuple[QueryResult, list[tuple]]:
        """Run one admitted query through the shared fetcher.

        Returns ``(result, inserted)`` where ``inserted`` is the list
        of persistent-cache keys this execution inserted — the
        attribution record for the submitting tenant's cache quota.
        """
        mark = len(self.fetcher.inserted_keys)
        result = self.store.query(
            query, position_filter, fetcher=self.fetcher, planned=planned
        )
        inserted = list(self.fetcher.inserted_keys[mark:])
        return result, inserted

    def end_round(self, *, release: bool) -> int:
        """Close a scheduling round.

        ``release=False`` keeps every decoded job retained (waiters
        remain queued: the §8 invariant forbids re-decoding for them).
        ``release=True`` drops the retained jobs — the queue has
        drained, so nothing can claim a dedup hit on them anymore and
        holding decoded payloads would only duplicate the LRU.
        Returns the number of jobs released.
        """
        self.rounds += 1
        if not release:
            return 0
        dropped = self.fetcher.release_retained()
        self.released_jobs += dropped
        return dropped
