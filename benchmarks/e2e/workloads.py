"""The four workloads: set-up, one pass over the operations, verification.

A pass runs the same ``N`` operations in the same order against fresh
handle and cache state and times each one.  ``run_pass(rec)`` with a
:class:`~benchmarks.e2e.trace.Recorder` stamps every operation's id on
the spans its calls produce; handle opening inside the pass is traced
too, with id -1.  Keyword arguments of ``run_pass`` are forwarded to
``adapter.open_store`` (the decision sweeps use them).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.e2e import adapter, oracle
from benchmarks.e2e.inputs import (
    N_TENANTS,
    SCALES,
    CompoundOp,
    ingest_inputs,
    sc_inputs,
    serve_inputs,
    vc_inputs,
)

ROOT = "/bench"

#: ``QueryResult.stats`` counters summed over a pass for the per-layer metrics.
STAT_KEYS = (
    "bytes_read", "seeks", "files_opened", "vectored_reads", "crc_failures",
    "io_retries", "blocks_planned", "blocks_decoded", "dedup_blocks",
    "plan_cache_hits", "plan_cache_misses", "chunks_pruned", "bins_pruned",
)


@dataclass
class PassResult:
    """Per-operation measurements of one pass, indexed like ``workload.ops``."""

    n_ops: int
    wall_s: float = 0.0
    latency_s: np.ndarray = field(init=False)
    payload_bytes: np.ndarray = field(init=False)
    sim_s: np.ndarray = field(init=False)
    pfs_bytes: np.ndarray = field(init=False)
    errors: list = field(init=False)
    #: Kept only by the verification pass.
    outcomes: list = field(init=False)
    #: Sums of :data:`STAT_KEYS` plus cache/broker counters.
    counters: dict = field(default_factory=dict)
    #: Bytes under the PFS root and raw float64 bytes behind them, at the end.
    stored_bytes: int = 0
    raw_bytes: int = 0

    def __post_init__(self) -> None:
        n = self.n_ops
        self.latency_s = np.zeros(n)
        self.payload_bytes = np.zeros(n, dtype=np.int64)
        self.sim_s = np.zeros(n)
        self.pfs_bytes = np.zeros(n, dtype=np.int64)
        self.errors = [None] * n
        self.outcomes = [None] * n
        self.counters = {key: 0 for key in STAT_KEYS}

    def record(self, i: int, latency: float, outcome, keep: bool) -> None:
        self.latency_s[i] = latency
        self.payload_bytes[i] = outcome.payload_bytes
        self.sim_s[i] = outcome.sim_s
        self.pfs_bytes[i] = outcome.pfs_bytes
        for key in STAT_KEYS:
            self.counters[key] += outcome.stats.get(key, 0)
        if keep:
            self.outcomes[i] = outcome

    def fail(self, i: int, latency: float, exc: BaseException) -> None:
        self.latency_s[i] = latency
        self.errors[i] = f"{type(exc).__name__}: {exc}"


class Workload:
    """Base: a fixed list of operations over seeded inputs."""

    name = ""
    clients = 1

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.ops: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec=None, keep: bool = False, **handle_options) -> PassResult:
        raise NotImplementedError

    def verify(self, result: PassResult) -> list:
        """Check the pass just run with ``keep=True`` against the oracle:
        a message per failed operation, ``None`` for the others."""

        def check(i, outcome):
            op = self.ops[i]
            if isinstance(op, CompoundOp):
                return oracle.check_compound(op, self.arrays, outcome)
            return oracle.check_query(op, self.arrays[op.variable], outcome)

        return [
            err if err is not None else check(i, result.outcomes[i])
            for i, err in enumerate(result.errors)
        ]

    def _sequential(self, result: PassResult, run_op, rec, keep, before_op=None,
                    first: int | None = None) -> None:
        """Time ``run_op(i, op)`` for every operation (or the ``first``
        few), one at a time."""
        started = time.perf_counter()
        for i, op in enumerate(self.ops[:first]):
            if before_op is not None:
                before_op()
            if rec is not None:
                rec.op = i
            t0 = time.perf_counter()
            try:
                outcome = run_op(i, op)
            except Exception as exc:  # any failure is a counted, failed op
                result.fail(i, time.perf_counter() - t0, exc)
            else:
                result.record(i, time.perf_counter() - t0, outcome, keep)
        if rec is not None:
            rec.op = -1
        result.wall_s = time.perf_counter() - started


# ----------------------------------------------------------------------
class IngestAppend(Workload):
    name = "ingest_append"

    def setup(self) -> None:
        self.arrays, self.ops = ingest_inputs(self.seed, self.size)

    def run_pass(self, rec=None, keep=False) -> PassResult:
        result = PassResult(len(self.ops))
        self.fs = adapter.new_fs()
        self.dataset = adapter.new_dataset(self.fs, ROOT, self.size["chunk"])
        grown: list[int] = []

        def run_op(i, op):
            return adapter.append(self.dataset, op, self.arrays[op.timestep])

        def measure_growth():
            grown.append(adapter.stored_bytes(self.fs, ROOT))

        # Growth is sampled before each op and once after the last one.
        self._sequential(result, run_op, rec, keep, before_op=measure_growth)
        measure_growth()
        result.pfs_bytes[:] = np.diff(grown)
        result.stored_bytes = grown[-1]
        result.raw_bytes = int(sum(self.arrays[op.timestep].nbytes for op in self.ops))
        if rec is not None:
            # What a reader pays before its first query: pin a snapshot,
            # open the sealed member (pass-level spans, id -1).
            for op in self.ops[::10]:
                adapter.open_member(self.dataset, op.variable, op.timestep)
        return result

    def verify(self, result: PassResult) -> list:
        failures = list(result.errors)
        for i in range(0, len(self.ops), 10):  # every tenth sealed member
            op = self.ops[i]
            if failures[i] is None:
                got = adapter.read_member(self.dataset, op.variable, op.timestep)
                failures[i] = oracle.check_member(
                    f"append@{op.timestep}", got, self.arrays[op.timestep]
                )
        issues = adapter.dataset_issues(self.fs, ROOT)
        if issues and failures[-1] is None:
            failures[-1] = f"check_dataset: {issues[0]}"
        return failures


# ----------------------------------------------------------------------
class _ColdQueries(Workload):
    """Cold single-client queries over sealed stores built at set-up."""

    def _build(self, arrays: dict) -> None:
        self.arrays = arrays
        self.fs = adapter.new_fs()
        for variable, data in arrays.items():
            adapter.write_store(self.fs, ROOT, variable, data, self.size["chunk"])
        self.queries = [
            None if isinstance(op, CompoundOp) else adapter.to_query(op)
            for op in self.ops
        ]
        self.stored_bytes = adapter.stored_bytes(self.fs, ROOT)
        self.raw_bytes = int(sum(a.nbytes for a in arrays.values()))
        # Opening is part of set-up: every pass opens its own handles again.
        self._open()

    def _open(self, **handle_options) -> dict:
        return {
            variable: adapter.open_store(self.fs, ROOT, variable, **handle_options)
            for variable in self.arrays
        }

    def run_pass(self, rec=None, keep=False, first=None, **handle_options) -> PassResult:
        result = PassResult(len(self.ops))
        stores = self._open(**handle_options)

        def run_op(i, op):
            if isinstance(op, CompoundOp):
                return adapter.run_compound(stores, op)
            return adapter.run_query(stores[op.variable], self.queries[i])

        self._sequential(
            result, run_op, rec, keep, before_op=self.fs.clear_cache, first=first
        )
        result.stored_bytes, result.raw_bytes = self.stored_bytes, self.raw_bytes
        return result


class SCValuesCold(_ColdQueries):
    name = "sc_values_cold"

    def setup(self) -> None:
        arrays, self.ops = sc_inputs(self.seed, self.size)
        self._build(arrays)


class VCRegions(_ColdQueries):
    name = "vc_regions"

    def setup(self) -> None:
        arrays, self.ops = vc_inputs(self.seed, self.size)
        self._build(arrays)


# ----------------------------------------------------------------------
class ServeOverlap(Workload):
    name = "serve_overlap"
    clients = N_TENANTS
    cache_bytes = 64 << 20
    plan_cache = 64

    def setup(self) -> None:
        self.arrays, self.ops = serve_inputs(self.seed, self.size)
        self.fs = adapter.new_fs()
        adapter.write_store(self.fs, ROOT, "phi", self.arrays["phi"], self.size["chunk"])
        self.queries = [adapter.to_query(op) for op in self.ops]
        self.stored_bytes = adapter.stored_bytes(self.fs, ROOT)
        self.raw_bytes = int(self.arrays["phi"].nbytes)
        adapter.open_store(self.fs, ROOT, "phi")

    def run_pass(self, rec=None, keep=False) -> PassResult:
        result = PassResult(len(self.ops))
        self.fs.clear_cache()  # cold start is part of the pass
        store = adapter.open_store(
            self.fs, ROOT, "phi", cache_bytes=self.cache_bytes, plan_cache=self.plan_cache
        )
        started = time.perf_counter()
        asyncio.run(self._serve(store, result, rec, keep))
        result.wall_s = time.perf_counter() - started
        result.counters.update(
            {f"cache_{k}": v for k, v in adapter.cache_counters(store).items()}
        )
        result.stored_bytes, result.raw_bytes = self.stored_bytes, self.raw_bytes
        return result

    async def _serve(self, store, result: PassResult, rec, keep: bool) -> None:
        submitted = 0  # == the broker ticket of the next request

        async def tenant(t: int) -> None:
            nonlocal submitted
            for i in range(t, len(self.ops), N_TENANTS):
                if rec is not None:
                    rec.op = submitted
                submitted += 1
                t0 = time.perf_counter()
                try:
                    served = await broker.query(f"tenant-{t}", self.queries[i])
                except Exception as exc:  # rejection or failure: a failed op
                    result.fail(i, time.perf_counter() - t0, exc)
                else:
                    latency = time.perf_counter() - t0
                    result.record(i, latency, adapter.as_outcome(served), keep)

        async with adapter.new_broker(store) as broker:
            await asyncio.gather(*(tenant(t) for t in range(N_TENANTS)))
            for key, value in adapter.broker_counters(broker).items():
                result.counters[f"broker_{key}"] = value
        if rec is not None:
            rec.op = -1


WORKLOADS = {
    cls.name: cls for cls in (IngestAppend, SCValuesCold, VCRegions, ServeOverlap)
}
