"""The broker's continuous fetch-merge loop.

:meth:`~repro.core.store.MLOCStore.query_many` already proves the core
mechanism: several queries sharing one
:class:`~repro.core.engine.scheduler._BlockFetcher` never decode the
same compression block twice — the first requester in plan order pays
the simulated I/O and modeled decode seconds, later requesters record
dedup hits.  Sharing a fetcher can never change results, only skip
work (the batch/session bit-identity tests pin this).

A scheduling round *is* such a batch: the :class:`FetchMergeLoop`
stages each of its requests, in order, through the one shared fetcher
of the request's store, and the broker assembles the round's staged
requests in one call.  (Fetcher keys lead with the store's generation,
so the members of a dataset — each sealed under its own generation —
get a fetcher each; a broker over one sealed store has exactly one.)
The serving invariant of DESIGN.md §8,

    **the broker never decodes a block twice while any waiter
    exists**,

holds inside a round by construction — one batch, one fetcher — and
across rounds because the loop keeps its fetchers, with the decodes
they retain, for as long as the broker reports a backlog at
:meth:`end_round`.  Once the queue has drained they are dropped: the
persistent :class:`~repro.pfs.blockcache.BlockCache`, when configured,
is what spans rounds from then on.

Per-request cache-insertion attribution (``inserted`` below) is what
lets the broker charge tenant cache quotas: every key the fetcher
inserted into the persistent LRU while a request was staged is handed
back to the caller, who knows which tenant triggered it.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.core.store import StagedRequest

__all__ = ["FetchMergeLoop"]


class FetchMergeLoop:
    """The shared fetchers of one broker, alive across scheduling rounds."""

    def __init__(self) -> None:
        #: One shared fetcher per store with retained decodes.
        self._fetchers: dict = {}
        #: Completed scheduling rounds.
        self.rounds = 0
        #: Decoded jobs released at round boundaries (lifetime total).
        self.released_jobs = 0

    # ------------------------------------------------------------------
    def retained_jobs(self) -> int:
        """Decoded blocks currently retained for in-flight waiters."""
        return sum(len(f._jobs) for f in self._fetchers.values())

    def execute(
        self,
        query: Query,
        planned,
        *,
        store,
    ) -> tuple[StagedRequest, list[tuple]]:
        """Stage one admitted query through its store's shared fetcher.

        Returns ``(staged, inserted)`` where ``inserted`` is the list
        of persistent-cache keys this request inserted — the
        attribution record for the submitting tenant's cache quota.
        """
        fetcher = self._fetchers.get(store)
        if fetcher is None:
            fetcher = self._fetchers[store] = store.new_fetcher(shared=True)
        mark = len(fetcher.inserted_keys)
        staged = store.stage(query, fetcher=fetcher, planned=planned)
        return staged, fetcher.inserted_keys[mark:]

    def end_round(self, *, release: bool) -> int:
        """Close a scheduling round.

        ``release=False`` keeps every decoded job retained (waiters
        remain queued: the §8 invariant forbids re-decoding for them).
        ``release=True`` drops the fetchers with their retained jobs —
        the queue has drained, so nothing can claim a dedup hit on
        them anymore and holding decoded payloads would only duplicate
        the LRU.  Returns the number of jobs released.
        """
        self.rounds += 1
        if not release:
            return 0
        dropped = sum(f.release_retained() for f in self._fetchers.values())
        self._fetchers.clear()
        self.released_jobs += dropped
        return dropped
