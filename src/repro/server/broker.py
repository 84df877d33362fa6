"""Multi-tenant query broker: admission, fair scheduling, shared fetch.

The broker fronts opened stores — a
:class:`~repro.core.store.MLOCStore` of any shard count,
transparently — and multiplexes query streams from many *tenants*
onto them.  A request carries the store it runs on: by default the
one the core was built over (a sealed store is the one-generation
case), or whichever handle the submit names — a dataset is served by
naming a pinned snapshot's member handles,
``snapshot.store(variable, timestep)``
(:class:`~repro.server.ingest.IngestReplay`).
Admission, scheduling, quotas and the in-flight ceiling are one state
for the whole broker, whichever store a request names:

* **Admission control** (:meth:`BrokerCore.submit`): every request is
  planned up front (plans are deterministic and cheap next to
  execution, DESIGN.md §6) and costed with
  :meth:`~repro.core.store.MLOCStore.estimated_raw_bytes`.  A request
  is rejected — never silently dropped — when the broker-wide pending
  raw-byte ceiling, the per-tenant queue depth, or the tenant's byte
  quota would be exceeded.
* **Fair scheduling** (:meth:`BrokerCore.select_round`): deficit
  round-robin over tenants with the estimated raw bytes as the cost
  function, so one tenant's huge scans cannot starve another's point
  lookups: each round every waiting tenant earns ``quantum_bytes`` of
  deficit and dequeues requests while its head fits.
* **A round is a batch** (:class:`.fetchmerge.FetchMergeLoop`): the
  round's requests are *staged* one by one, in service order, through
  one shared block fetcher per store — so overlapping block demand
  from different tenants is read and decoded once, and each request is
  charged exactly what it would be served alone in that order — and
  then *assembled* in one call (:func:`repro.core.store.assemble`):
  requests whose rows can share gather their cells once over the union
  of their plans.  A round's results therefore complete together.
  While any waiter remains queued the fetchers, with their decodes,
  are kept across rounds.

Results are **bit-identical** to direct ``store.query`` calls: the
plan (deterministic), the shared fetcher and the shared assemble (the
``query_many`` precedent) only change what work is *re-done*, never
what is computed.  ``tests/test_broker.py`` pins this per tenant.

Stats flow through the canonical counter table
(:data:`~repro.core.result.COUNTERS`): the broker owns the request
lifecycle rows (``admitted``/``rejected``/``queued``/``completed``/
``cancelled``/``quota_rejections``/``quota_evictions``), counted per
tenant; a tenant's aggregate folds them with every per-query counter
through :func:`~repro.core.result.aggregate_stats`, and broker totals
fold the tenant dicts through the same function.

Synchronous core, async façade: :class:`BrokerCore` is deterministic
and drives both the one simulated-clock replay loop
(:func:`~repro.server.replay.replay`) and :class:`QueryBroker`, the
asyncio front end whose serve task yields between the requests it
stages so a tenant can cancel mid-round.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.core.query import Query
from repro.core.result import QueryResult, aggregate_stats, counter_names
from repro.core.store import StagedRequest, assemble
from repro.server.fetchmerge import FetchMergeLoop

__all__ = [
    "BrokerConfig",
    "TenantQuota",
    "BrokerRejected",
    "QuotaExceededError",
    "Request",
    "BrokerCore",
    "QueryBroker",
]


class BrokerRejected(RuntimeError):
    """Admission control refused the request (retry later)."""


class QuotaExceededError(BrokerRejected):
    """The tenant's byte quota cannot cover the request."""


@dataclass(frozen=True)
class BrokerConfig:
    """Broker-wide admission and scheduling knobs."""

    #: Queries served per scheduling round (in-flight ceiling).
    max_inflight: int = 8
    #: Ceiling on the summed estimated raw bytes of all queued
    #: requests; ``None`` disables the broker-wide backlog bound.
    max_pending_bytes: int | None = None
    #: Per-tenant queue-depth ceiling (``None`` = unbounded).
    max_queued_per_tenant: int | None = None
    #: Deficit-round-robin quantum: raw bytes of service credit each
    #: waiting tenant earns per round.
    quantum_bytes: int = 4 << 20

    def __post_init__(self) -> None:
        if self.max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {self.max_inflight}")
        if self.quantum_bytes <= 0:
            raise ValueError(f"quantum_bytes must be positive, got {self.quantum_bytes}")


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource limits (all optional)."""

    #: Lifetime raw-byte budget, in the planner's estimated raw bytes
    #: (the same unit admission and DRR costing use, so the check is
    #: deterministic and cache-independent).  A submit whose estimate
    #: would overrun the remaining budget raises
    #: :class:`QuotaExceededError`; completed requests charge their
    #: estimate.
    max_bytes: int | None = None
    #: Ceiling on this tenant's resident decoded bytes in the shared
    #: persistent cache; overrun evicts the tenant's oldest insertions
    #: (counted as ``quota_evictions``), never other tenants' blocks.
    max_cache_bytes: int | None = None


@dataclass
class Request:
    """One admitted (or rejected) tenant query, with its lifecycle."""

    ticket: int
    tenant: str
    query: Query
    #: The store (or pinned dataset member) the request runs on.
    store: object
    plan: object
    plan_stats: dict
    est_bytes: int
    status: str = "queued"  # queued | staged | done | cancelled | failed
    result: QueryResult | None = None
    error: BaseException | None = None


@dataclass
class _Tenant:
    """Broker-side state of one tenant."""

    name: str
    quota: TenantQuota = field(default_factory=TenantQuota)
    queue: deque = field(default_factory=deque)
    deficit: float = 0.0
    charged_bytes: int = 0
    #: Persistent-cache keys this tenant's queries inserted, oldest
    #: first (the cache-quota eviction order).
    cache_keys: "OrderedDict[tuple, None]" = field(default_factory=OrderedDict)
    lifecycle: dict = field(
        default_factory=lambda: dict.fromkeys(counter_names(owner="broker"), 0)
    )
    #: Running aggregate of completed-query stats (registry keys).
    agg: dict = field(default_factory=dict)


class BrokerCore:
    """Deterministic, synchronous broker engine.

    Drives the simulated-clock replay benchmark directly and backs
    the :class:`QueryBroker` asyncio façade.  All methods must be
    called from one thread (the serve loop / the replay driver).
    """

    def __init__(
        self,
        store=None,
        config: BrokerConfig | None = None,
        tenants: dict[str, TenantQuota] | None = None,
    ) -> None:
        #: The store requests run on unless :meth:`submit` names one
        #: (``None``: every submit must).
        self.store = store
        self.config = config or BrokerConfig()
        self.loop = FetchMergeLoop()
        self._tenants: "OrderedDict[str, _Tenant]" = OrderedDict()
        for name, quota in (tenants or {}).items():
            self.register(name, quota)
        #: Round-robin resume point: the tenant after the last one
        #: served starts the next round's deficit scan.
        self._rr_next = 0
        self._pending_bytes = 0
        self._next_ticket = 0
        #: Staged since the last :meth:`complete_round`: charged,
        #: waiting for the round's assemble.
        self._staged: list[tuple[Request, StagedRequest]] = []

    # ------------------------------------------------------------------
    def register(self, name: str, quota: TenantQuota | None = None) -> None:
        """Declare a tenant (idempotent; submit auto-registers)."""
        if name not in self._tenants:
            self._tenants[name] = _Tenant(name, quota or TenantQuota())
        elif quota is not None:
            self._tenants[name].quota = quota

    def _tenant(self, name: str) -> _Tenant:
        if name not in self._tenants:
            self.register(name)
        return self._tenants[name]

    # ------------------------------------------------------------------
    def submit(self, tenant: str, query: Query, *, store=None) -> Request:
        """Plan, cost, and admit one request (or raise).

        Planning happens here — at admission — so the scheduler has a
        real cost for the deficit accounting and admission can bound
        the backlog in raw bytes rather than request counts.  Every
        limit is broker-wide: which ``store`` a request names changes
        where it executes, never what it is charged against.
        """
        if store is None:
            store = self.store
        if store is None:
            raise TypeError("submit needs store= when the core was built without one")
        t = self._tenant(tenant)
        plan, plan_stats = store.plan(query)
        est = store.estimated_raw_bytes(query, plan)
        quota = t.quota
        if quota.max_bytes is not None and t.charged_bytes + est > quota.max_bytes:
            t.lifecycle["rejected"] += 1
            t.lifecycle["quota_rejections"] += 1
            raise QuotaExceededError(
                f"tenant {tenant!r}: estimated {est} raw bytes would exceed "
                f"quota ({t.charged_bytes}/{quota.max_bytes} used)"
            )
        cap = self.config.max_queued_per_tenant
        if cap is not None and len(t.queue) >= cap:
            t.lifecycle["rejected"] += 1
            raise BrokerRejected(
                f"tenant {tenant!r}: queue depth {len(t.queue)} at limit {cap}"
            )
        ceiling = self.config.max_pending_bytes
        if ceiling is not None and self._pending_bytes + est > ceiling:
            t.lifecycle["rejected"] += 1
            raise BrokerRejected(
                f"broker backlog full: {self._pending_bytes} + {est} pending "
                f"raw bytes exceeds {ceiling}"
            )
        req = Request(
            ticket=self._next_ticket,
            tenant=tenant,
            query=query,
            store=store,
            plan=plan,
            plan_stats=plan_stats,
            est_bytes=est,
        )
        self._next_ticket += 1
        t.queue.append(req)
        t.lifecycle["admitted"] += 1
        t.lifecycle["queued"] += 1
        self._pending_bytes += est
        return req

    def cancel(self, req: Request) -> bool:
        """Withdraw a request not yet staged — still queued or already
        selected for the current round; no-op once staged."""
        if req.status != "queued":
            return False
        t = self._tenant(req.tenant)
        if req in t.queue:
            t.queue.remove(req)
        req.status = "cancelled"
        t.lifecycle["cancelled"] += 1
        self._pending_bytes -= req.est_bytes
        return True

    def pending(self) -> int:
        """Requests admitted but not yet served."""
        return sum(len(t.queue) for t in self._tenants.values())

    # ------------------------------------------------------------------
    def select_round(self) -> list[Request]:
        """Deficit-round-robin: pick the next round's service order.

        Every tenant with queued work earns ``quantum_bytes`` of
        deficit, then dequeues from its head while the head's
        estimated cost fits the deficit — so cheap interactive streams
        drain every round while a tenant issuing giant scans gets one
        every few rounds, in proportion to bytes, not request count.
        An idle tenant's deficit resets (classic DRR: credit does not
        accrue while there is nothing to schedule), and an expensive
        head always runs eventually because an active tenant's deficit
        grows every round.  The rotation resumes after the last tenant
        scanned first, so tenant order carries no permanent advantage.
        """
        names = list(self._tenants)
        selected: list[Request] = []
        if not names:
            return selected
        n = len(names)
        start = self._rr_next % n
        for i in range(n):
            if len(selected) >= self.config.max_inflight:
                break
            t = self._tenants[names[(start + i) % n]]
            if not t.queue:
                t.deficit = 0.0
                continue
            t.deficit += self.config.quantum_bytes
            while (
                t.queue
                and len(selected) < self.config.max_inflight
                and t.queue[0].est_bytes <= t.deficit
            ):
                req = t.queue.popleft()
                t.deficit -= req.est_bytes
                selected.append(req)
            if not t.queue:
                t.deficit = 0.0
            self._rr_next = (start + i + 1) % n
        return selected

    # ------------------------------------------------------------------
    def execute(self, req: Request) -> None:
        """Stage one selected request through the shared fetcher.

        The per-request step of a round: everything the request is
        charged for happens here, in service order, and the tenant's
        cache quota is enforced right after — so the next request of
        the round sees the cache this one left.  Its result arrives
        with :meth:`complete_round`.
        """
        if req.status != "queued":
            raise RuntimeError(
                f"request {req.ticket} is {req.status!r}, not executable"
            )
        t = self._tenant(req.tenant)
        self._pending_bytes -= req.est_bytes
        try:
            staged, inserted = self.loop.execute(
                req.query, (req.plan, req.plan_stats), store=req.store
            )
        except Exception as exc:
            req.status = "failed"
            req.error = exc
            raise
        req.status = "staged"
        t.charged_bytes += req.est_bytes
        for key in inserted:
            t.cache_keys[key] = None
        self._enforce_cache_quota(t, req.store.cache)
        self._staged.append((req, staged))

    def complete_round(self) -> list[Request]:
        """Assemble every staged request at once and complete them.

        Returns the completed requests in the order they were staged.
        """
        staged, self._staged = self._staged, []
        results = assemble([request for _, request in staged])
        for (req, _), result in zip(staged, results):
            req.status = "done"
            req.result = result
            t = self._tenant(req.tenant)
            t.lifecycle["completed"] += 1
            t.agg = aggregate_stats([t.agg, result.stats])
        return [req for req, _ in staged]

    def _enforce_cache_quota(self, t: _Tenant, cache) -> None:
        """Evict the tenant's oldest cache insertions past its quota.

        ``cache`` is the broker's one decoded-block cache (every store
        it serves shares it).  Only entries *this tenant* inserted are
        candidates; pinned entries survive (``BlockCache.drop`` refuses
        them) and entries the LRU already evicted just fall out of the
        attribution map.
        """
        limit = t.quota.max_cache_bytes
        if limit is None or cache is None:
            return
        sizes: dict[tuple, int] = {}
        for key in list(t.cache_keys):
            nbytes = cache.entry_nbytes(key)
            if nbytes is None:
                del t.cache_keys[key]  # evicted by the LRU meanwhile
            else:
                sizes[key] = nbytes
        resident = sum(sizes.values())
        for key in list(t.cache_keys):
            if resident <= limit:
                break
            if cache.drop(key):
                t.lifecycle["quota_evictions"] += 1
            resident -= sizes[key]
            del t.cache_keys[key]

    # ------------------------------------------------------------------
    def finish_round(self) -> int:
        """Close the round: complete whatever is still staged, then
        release retained decodes iff no waiter is left.

        This is the enforcement point of the DESIGN.md §8 invariant:
        decoded jobs stay retained in the shared fetcher for as long
        as any admitted request remains queued, so no block is ever
        decoded twice while a waiter exists — on any store the broker
        serves.  Only when the backlog is empty are the retained jobs
        dropped (the persistent LRU keeps the hot subset).
        """
        self.complete_round()
        return self.loop.end_round(release=self.pending() == 0)

    def run_round(self) -> list[Request]:
        """Select a round, stage its requests in order, assemble them
        once, and close it.  A request whose stage raises fails alone
        (``status == "failed"``, the exception on ``error``)."""
        batch = self.select_round()
        for req in batch:
            if req.status == "queued":
                try:
                    self.execute(req)
                except Exception:
                    continue  # recorded on the request by execute
        self.finish_round()
        return batch

    def drain(self) -> int:
        """Serve rounds until the backlog is empty; returns rounds run."""
        rounds = 0
        while self.pending():
            self.run_round()
            rounds += 1
        return rounds

    # ------------------------------------------------------------------
    def tenant_stats(self, name: str) -> dict:
        """One tenant's aggregate: registry counters + lifecycle."""
        t = self._tenant(name)
        out = aggregate_stats([t.agg, t.lifecycle])
        out["charged_bytes"] = t.charged_bytes
        out["queue_depth"] = len(t.queue)
        return out

    def stats(self) -> dict:
        """Broker snapshot: totals folded from the per-tenant dicts.

        Totals go through :func:`aggregate_stats` — the same table
        every other aggregator uses — so broker counters line up with
        CLI and harness reporting without bespoke summation.
        """
        tenants = {name: self.tenant_stats(name) for name in self._tenants}
        totals = aggregate_stats(list(tenants.values()))
        # ``cache_hits`` already counts every dedup hit (plus the LRU's).
        requested = totals["cache_hits"] + totals["blocks_decoded"]
        dedup_rate = totals["dedup_blocks"] / requested if requested else 0.0
        return {
            "tenants": tenants,
            "totals": totals,
            "n_tenants": len(self._tenants),
            "rounds": self.loop.rounds,
            "retained_jobs": self.loop.retained_jobs(),
            "released_jobs": self.loop.released_jobs,
            "pending": self.pending(),
            "pending_bytes": self._pending_bytes,
            "dedup_rate": dedup_rate,
        }


class QueryBroker:
    """Asyncio façade over :class:`BrokerCore`.

    One serve task owns the core; tenants submit concurrently and
    await futures.  The serve loop yields to the event loop before
    staging each request of a round, so a tenant cancelling its future
    mid-round takes effect before its request is served (the core
    withdraws it); the round's futures resolve together once it is
    assembled.  Use as an async context manager::

        async with QueryBroker(store) as broker:
            result = await broker.query("tenant-a", q)
    """

    def __init__(
        self,
        store,
        config: BrokerConfig | None = None,
        tenants: dict[str, TenantQuota] | None = None,
    ) -> None:
        self.core = BrokerCore(store, config, tenants)
        self._wake: asyncio.Event | None = None
        self._serve_task: asyncio.Task | None = None
        self._futures: dict[int, asyncio.Future] = {}
        self._closing = False

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "QueryBroker":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._serve_task is not None:
            raise RuntimeError("broker already started")
        self._closing = False
        self._wake = asyncio.Event()
        self._serve_task = asyncio.create_task(self._serve())

    async def close(self) -> None:
        """Drain the backlog, then stop the serve task."""
        if self._serve_task is None:
            return
        self._closing = True
        self._wake.set()
        await self._serve_task
        self._serve_task = None

    # ------------------------------------------------------------------
    def submit(self, tenant: str, query: Query) -> "asyncio.Future[QueryResult]":
        """Admit a query; returns a future (cancel it to withdraw).

        Raises :class:`BrokerRejected` / :class:`QuotaExceededError`
        synchronously — admission is immediate, only service queues.
        """
        if self._serve_task is None or self._closing:
            raise RuntimeError("broker is not serving")
        req = self.core.submit(tenant, query)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[req.ticket] = future
        future.add_done_callback(
            lambda fut, r=req: self._on_future_done(fut, r)
        )
        self._wake.set()
        return future

    async def query(self, tenant: str, query: Query) -> QueryResult:
        """Submit and await one query."""
        return await self.submit(tenant, query)

    def stats(self) -> dict:
        return self.core.stats()

    # ------------------------------------------------------------------
    def _on_future_done(self, future: asyncio.Future, req: Request) -> None:
        if future.cancelled():
            self.core.cancel(req)
        self._futures.pop(req.ticket, None)

    async def _serve(self) -> None:
        core = self.core
        while True:
            if not core.pending():
                if self._closing:
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            batch = core.select_round()
            for req in batch:
                # Yield so cancellations queued on the event loop land
                # before this request is served.  A future cancelled
                # after the yield has not run its done-callback yet.
                await asyncio.sleep(0)
                future = self._futures.get(req.ticket)
                if future is not None and future.cancelled():
                    core.cancel(req)
                if req.status != "queued":  # cancelled via the core
                    continue
                try:
                    core.execute(req)
                except Exception as exc:
                    future = self._futures.get(req.ticket)
                    if future is not None and not future.done():
                        future.set_exception(exc)
            for req in core.complete_round():
                future = self._futures.pop(req.ticket, None)
                if future is not None and not future.done():
                    future.set_result(req.result)
            # The tenants just answered run before the round closes: a
            # closed-loop client's next request is a waiter the
            # retained decodes must outlive.
            await asyncio.sleep(0)
            core.finish_round()
