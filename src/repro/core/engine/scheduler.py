"""I/O scheduling layer of the staged query engine (DESIGN.md §engine).

This is the lowest engine layer: it knows about the simulated PFS and
the decoded-block cache, and nothing about plans, bins, or byte planes.
The stages layer (:mod:`repro.core.engine.stages`) describes *what* to
read as :class:`PendingRead` records; this module decides *how*:

* reads are deferred, then flushed per rank sorted by ``(subfile,
  offset)``; with ``coalesce_gap=0`` that is one read per block, the
  sequence ``tests/data/engine_golden.json`` pins;
* with ``coalesce_gap > 0``, adjacent/near-adjacent extents of one
  subfile merge into a single vectored read
  (:meth:`~repro.pfs.simfs.SimFileHandle.readv`): one seek plus one
  contiguous transfer that swallows the gap bytes;
* every block payload is CRC-verified before decode, with the retry /
  exponential-backoff / quarantine semantics of the verified read path
  moved here intact (the accounting is unchanged to the counter).

The :class:`_BlockFetcher` half coordinates decode jobs: deduplication
across ranks (and across the queries of a batch), the decoded-block
LRU front, and deterministic replay of cache touches and insertions in
plan order so LRU state never depends on I/O scheduling or backend.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.parallel.procpool import PoolBrokenError, ProcessPool
from repro.pfs.blockcache import BlockCache
from repro.pfs.faults import TransientIOError
from repro.pfs.simfs import PFSSession

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.config import ExecutionConfig

__all__ = ["IOScheduler", "PendingRead", "QueryCounters"]


class _DecodeJob:
    """One deferred block decode; ``result`` is set by :meth:`run`."""

    __slots__ = ("_fn", "result", "done", "task")

    def __init__(self, fn: Callable[[], object] | None = None, result: object = None):
        self._fn = fn
        self.result = result
        self.done = fn is None
        #: Picklable ``(spec, payload)`` equivalent of the decode
        #: closure, shipped to ``processes``-backend workers.
        self.task: tuple | None = None

    @classmethod
    def placeholder(cls) -> "_DecodeJob":
        """A job whose read has been deferred to the next flush."""
        job = cls()
        job.done = False
        return job

    def arm(self, fn: Callable[[], object]) -> None:
        """Attach the decode closure once the payload is verified."""
        self._fn = fn

    def mark_lost(self) -> None:
        """Record that the block's verified read exhausted its retries."""
        self._fn = None
        self.task = None
        self.result = None
        self.done = True

    def run(self) -> None:
        if not self.done:
            self.result = self._fn()
            self._fn = None
            self.task = None
            self.done = True

    def finish(self, result: object) -> None:
        """Complete the job with a result computed elsewhere (a worker)."""
        self.result = result
        self._fn = None
        self.task = None
        self.done = True


def _job_lost(job: _DecodeJob) -> bool:
    """Whether the job marks a quarantined (unreadable) block.

    Convention: a job that is already done with a ``None`` result never
    decoded anything — its verified read exhausted retries.  Decoders
    never legitimately return ``None``.
    """
    return job.done and job.result is None


@dataclass
class QueryCounters:
    """Everything one staged query counts, in one record.

    The fetcher and the query's rank schedulers add to it; the engine
    rows of ``QueryResult.stats`` are read off it.  A fetcher shared by
    a batch, session or broker round keeps no tally of its own, so no
    stats row is a difference of running totals.
    """

    #: Blocks served without a read — from the fetcher's decoded-job
    #: table (the cross-query ``dedup_*`` share) or from the LRU.
    cache_hits: int = 0
    cache_hit_raw_bytes: int = 0
    dedup_blocks: int = 0
    dedup_raw_bytes: int = 0
    #: Blocks read and verified for decode.
    cache_misses: int = 0
    #: Decode batches that fell back inline on a broken process pool.
    decode_pool_failures: int = 0
    coalesced_reads: int = 0
    crc_failures: int = 0
    io_retries: int = 0
    dropped_points: int = 0
    #: (path, offset) of quarantined blocks this query touched.
    quarantined: set = field(default_factory=set)
    #: Global chunk ids whose points were (partially) lost.
    partial_chunks: set = field(default_factory=set)

    def count_hits(self, n: int, raw_bytes: int, *, dedup: bool) -> None:
        """``n`` blocks of ``raw_bytes`` raw bytes in all, served without a read."""
        self.cache_hits += n
        self.cache_hit_raw_bytes += raw_bytes
        if dedup:
            self.dedup_blocks += n
            self.dedup_raw_bytes += raw_bytes


@dataclass
class PendingRead:
    """One deferred block read: where it lives and what to do with it."""

    path: str
    offset: int
    length: int
    crc: int
    job: _DecodeJob
    #: Payload -> decoded block, run in the decode phase.
    decode: Callable[[bytes], object]
    #: Raw (decoded) bytes this block contributes to modeled decompression,
    #: credited to the reading rank's ``raw[raw_kind]`` on success.
    raw_bytes: int
    raw_kind: str  # "index" | "data"
    #: Fetcher cache key, or None when identity is untracked.
    key: tuple | None
    #: (rank, bin_seq, kind, row) — the plan order, in which decodes
    #: and cache insertions are replayed deterministically.
    order_key: tuple
    #: Picklable decode spec (see :func:`repro.parallel.procpool.run_task`);
    #: paired with the verified payload it is the shippable equivalent
    #: of ``decode`` for the ``processes`` backend.  ``None`` pins the
    #: block to inline/thread execution.
    spec: tuple | None = None


class _BlockFetcher:
    """Per-query (or per-batch) decode coordinator.

    Deduplicates decode work across ranks — and, when shared by
    :meth:`~repro.core.store.MLOCStore.query_many` or a refinement
    session, across queries — and fronts the store's decoded-block
    LRU.  Requests happen in the deterministic plan order, so which
    rank pays for a block's I/O and modeled decode time never depends
    on backend or thread timing: the first requester in plan order
    pays, later requesters record a hit.  What a request costs is
    counted into the requesting query's :class:`QueryCounters`, passed
    to every method that counts; the fetcher keeps no tally.
    """

    def __init__(self, cache: BlockCache | None, generation: int, shared: bool = False):
        self.cache = cache
        self.generation = generation
        self.shared = shared
        self._jobs: dict[tuple, _DecodeJob] = {}
        self._pending: list[tuple[tuple, tuple | None, _DecodeJob]] = []
        self._touches: list[tuple[tuple, tuple]] = []
        #: Keys inserted into the persistent cache, in insertion order
        #: (cumulative); lets a caller attribute insertions to whoever
        #: triggered the surrounding :meth:`run` (per-tenant quotas).
        self.inserted_keys: list[tuple] = []

    @property
    def caching(self) -> bool:
        """Whether block identity is tracked (LRU and/or batch dedup)."""
        return self.cache is not None or self.shared

    def pending_count(self) -> int:
        """Decode jobs enqueued by the plan phase but not yet run."""
        return len(self._pending)

    def held_keys(self) -> list[tuple]:
        """Keys whose decoded blocks this fetcher currently retains."""
        return list(self._jobs)

    def claim_held(
        self, keys: list[tuple], raw_bytes: list[int], counters: QueryCounters
    ) -> list[_DecodeJob | None]:
        """Dedup hits in bulk: per key, the job this fetcher already
        holds — counted exactly as :meth:`request_deferred` counts a
        dedup hit — or ``None``, left for the caller to request.

        The keys of one call are distinct, so looking them all up
        before the misses register is the same as taking them in turn.
        """
        if not self.caching:
            return [None] * len(keys)
        held = list(map(self._jobs.get, keys))
        if None in held:
            raw_bytes = [raw for job, raw in zip(held, raw_bytes) if job is not None]
        counters.count_hits(len(raw_bytes), sum(raw_bytes), dedup=True)
        return held

    def request_deferred(
        self, key: tuple, raw_bytes: int, order_key: tuple, counters: QueryCounters
    ) -> tuple[_DecodeJob, bool]:
        """Return ``(job, hit)`` for one block, deferring any read.

        On a hit (batch/session dedup or LRU) nothing will be charged.
        On a miss the returned job is an unarmed placeholder: the
        caller submits a :class:`PendingRead` to its rank's scheduler,
        whose flush resolves the job — armed with the decode on a
        verified payload, or marked lost on quarantine.  Lost jobs are
        deregistered so a later request re-attempts the read (which
        answers from the engine's quarantine registry without touching
        the PFS); a cached decode, by contrast, still wins over a
        quarantine entry — it was CRC-verified when it entered the
        cache.
        """
        if self.caching:
            job = self._jobs.get(key)
            if job is not None:
                counters.count_hits(1, raw_bytes, dedup=True)
                return job, True
            if self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    job = _DecodeJob(result=cached)
                    self._jobs[key] = job
                    self._touches.append((order_key, key))
                    counters.count_hits(1, raw_bytes, dedup=False)
                    return job, True
            job = _DecodeJob.placeholder()
            self._jobs[key] = job
            return job, False
        return _DecodeJob.placeholder(), False

    def resolve_success(self, read: PendingRead, payload: bytes) -> None:
        """Arm the job with its decode and enqueue it for the decode phase."""
        read.job.arm(lambda payload=payload, decode=read.decode: decode(payload))
        if read.spec is not None:
            read.job.task = (read.spec, payload)
        self._pending.append((read.order_key, read.key, read.job))

    def resolve_lost(self, read: PendingRead) -> None:
        """Mark the job lost and forget it (later queries re-attempt)."""
        read.job.mark_lost()
        if read.key is not None and self._jobs.get(read.key) is read.job:
            del self._jobs[read.key]

    def run(
        self, pool: ThreadPoolExecutor | ProcessPool | None, counters: QueryCounters
    ) -> int:
        """Execute pending decode jobs; returns how many ran.

        Cache touches are replayed and insertions performed in plan
        order (never from worker threads, worker processes, or I/O
        order), so LRU and eviction state — and therefore later
        queries' hit patterns — is independent of backend and
        coalescing.
        """
        pending, self._pending = self._pending, []
        touches, self._touches = self._touches, []
        if self.cache is not None and touches:
            for _, key in sorted(touches):
                self.cache.touch(key)
        pending.sort(key=lambda item: item[0])
        if pool is None:
            for _, _, job in pending:
                job.run()
        elif isinstance(pool, ProcessPool):
            self._run_on_processes(pool, pending, counters)
        else:
            list(pool.map(lambda item: item[2].run(), pending))
        if self.cache is not None:
            for _, key, job in pending:
                if key is not None:
                    if self.cache.put(key, job.result):
                        self.inserted_keys.append(key)
        return len(pending)

    def release_retained(self) -> int:
        """Forget the decoded-job table; returns how many jobs dropped.

        A *shared* fetcher retains every decoded job so later queries
        of the batch/session dedup against it.  A continuous consumer
        (the broker's fetch-merge loop) must bound that retention:
        once no admitted query still waits on the round's blocks, the
        jobs are released — re-requests are then answered by the
        persistent :class:`BlockCache` (if configured) or re-read.
        Decodes still pending were left by a query that raised before
        its decode step (a strict-mode loss); with no waiter nobody
        will ever read them, so they go too.
        """
        dropped = len(self._jobs)
        self._jobs.clear()
        self._pending.clear()
        self._touches.clear()
        self.inserted_keys.clear()
        return dropped

    def _run_on_processes(
        self, pool: ProcessPool, pending: list, counters: QueryCounters
    ) -> None:
        """Ship the pending decode specs to the worker pool.

        Tasks are submitted — and results committed — in sorted plan
        order, so the outcome is bit-identical to inline execution.  A
        broken pool (a worker died mid-batch) falls back to running
        every job inline from its retained closure: nothing hangs and
        no block is dropped; the fallback is counted as the query's
        ``decode_pool_failures``.  A job without a picklable
        spec pins the whole batch inline (correctness over overlap).
        """
        tasks = [job.task for _, _, job in pending]
        if any(task is None for task in tasks):
            for _, _, job in pending:
                job.run()
            return
        try:
            results = pool.run_tasks(tasks)
        except PoolBrokenError:
            counters.decode_pool_failures += 1
            for _, _, job in pending:
                job.run()
            return
        for (_, _, job), result in zip(pending, results):
            job.finish(result)


class IOScheduler:
    """One rank's deferred-read queue: sort, coalesce, verify, charge.

    Reads submitted between flushes are grouped per subfile and issued
    in ascending offset order.  All fault-tolerance semantics of the
    verified read path live here: quarantine pre-checks (a quarantined
    block is answered without touching the PFS), CRC verification of
    every payload, bounded exponential retry backoff charged to the
    rank's *simulated* clock, and quarantine of blocks that exhaust
    their retries.  The rank's PFS session (which holds its file
    handles) and its raw-byte counts live here; what it counts for the query goes into
    the query's ``counters``.
    """

    def __init__(
        self,
        session: PFSSession,
        fetcher: _BlockFetcher,
        counters: QueryCounters,
        *,
        quarantine: dict[tuple[str, int], str],
        execution: ExecutionConfig,
    ) -> None:
        self.session = session
        self.fetcher = fetcher
        self.counters = counters
        self.quarantine = quarantine
        self.execution = execution
        #: Raw (decoded) bytes of the blocks this rank read, per
        #: ``PendingRead.raw_kind``: its modeled decompression.
        self.raw = {"data": 0, "index": 0}
        self._queue: list[PendingRead] = []

    # ------------------------------------------------------------------
    def submit(self, read: PendingRead) -> None:
        """Defer one block read until the next :meth:`flush`."""
        self._queue.append(read)

    def flush(self) -> None:
        """Issue every deferred read, sorted by ``(subfile, offset)``."""
        queue, self._queue = self._queue, []
        by_path: dict[str, list[PendingRead]] = {}
        for read in queue:
            by_path.setdefault(read.path, []).append(read)
        for path in sorted(by_path):
            reads = sorted(by_path[path], key=lambda r: r.offset)
            ready: list[PendingRead] = []
            for read in reads:
                key = (read.path, read.offset)
                if key in self.quarantine:
                    # Answered by the registry: no PFS touch, no retry.
                    self.counters.quarantined.add(key)
                    self.fetcher.resolve_lost(read)
                    continue
                ready.append(read)
            for run in self._runs(ready):
                if len(run) == 1:
                    self._read_single(run[0])
                else:
                    self._read_vectored(run)

    # ------------------------------------------------------------------
    def _runs(self, reads: list[PendingRead]) -> list[list[PendingRead]]:
        """Partition offset-sorted reads into coalescable runs."""
        gap = self.execution.coalesce_gap
        if gap <= 0 or len(reads) <= 1:
            return [[r] for r in reads]
        runs: list[list[PendingRead]] = []
        current = [reads[0]]
        current_end = reads[0].offset + reads[0].length
        for read in reads[1:]:
            if read.offset - current_end <= gap:
                current.append(read)
                current_end = max(current_end, read.offset + read.length)
            else:
                runs.append(current)
                current = [read]
                current_end = read.offset + read.length
        runs.append(current)
        return runs

    def _read_single(self, read: PendingRead) -> None:
        payload = self._verified_read(read)
        if payload is None:
            self.fetcher.resolve_lost(read)
        else:
            self._resolve_success(read, payload)

    def _resolve_success(self, read: PendingRead, payload: bytes) -> None:
        """A verified payload: the query's miss, the rank's raw bytes."""
        self.fetcher.resolve_success(read, payload)
        self.counters.cache_misses += 1
        self.raw[read.raw_kind] += read.raw_bytes

    def _read_vectored(self, run: list[PendingRead]) -> None:
        """One span read for the whole run; per-block CRC afterwards.

        A transient failure of the span, or a CRC mismatch on any
        slice, falls back to the single verified read path for the
        affected block(s) — coalescing never weakens the verification
        or quarantine semantics, it only changes what travels on the
        wire.
        """
        extents = [(r.offset, r.length) for r in run]
        try:
            payloads = self.session.open(run[0].path).readv(extents)
        except TransientIOError:
            for read in run:
                self._read_single(read)
            return
        self.counters.coalesced_reads += 1
        for read, payload in zip(run, payloads):
            if len(payload) == read.length and zlib.crc32(payload) == int(read.crc):
                self._resolve_success(read, payload)
            else:
                self.counters.crc_failures += 1
                self._read_single(read)

    # ------------------------------------------------------------------
    def _verified_read(self, read: PendingRead) -> bytes | None:
        """Read one block, verify its CRC, retry, or quarantine it.

        Every data/index block read goes through here (or through the
        vectored span + per-slice CRC check that falls back to here):
        the payload's ``zlib.crc32`` is checked against the block table
        before any decode (the store-wide rule: no decoded bytes reach
        a result without a CRC check or an explicit degradation
        record).  Transient I/O errors and CRC mismatches are retried
        up to ``max_read_retries`` times with exponential backoff
        charged to the rank's *simulated* clock; a block that exhausts
        its retries is quarantined for the engine's lifetime and
        reported as ``None`` (a lost block) to the degradation policy.
        """
        key = (read.path, read.offset)
        if key in self.quarantine:
            self.counters.quarantined.add(key)
            return None
        reason = "unreadable"
        attempts = self.execution.max_read_retries + 1
        for attempt in range(attempts):
            if attempt:
                self.counters.io_retries += 1
                self.session.stats.stall_seconds += (
                    self.execution.read_backoff * 2 ** (attempt - 1)
                )
            try:
                payload = self.session.open(read.path).read(read.offset, read.length)
            except TransientIOError:
                reason = "transient I/O errors"
                continue
            if len(payload) == read.length and zlib.crc32(payload) == int(read.crc):
                return payload
            self.counters.crc_failures += 1
            reason = (
                f"short read ({len(payload)}/{read.length} bytes)"
                if len(payload) != read.length
                else "CRC mismatch"
            )
        self.quarantine[key] = f"{reason} after {attempts} attempts"
        self.counters.quarantined.add(key)
        return None
