"""Shared experiment row computations.

Each function regenerates one of the paper's tables/figures as a
``{row_label: [cells...]}`` dict with the paper's reference values
appended, given a built :class:`~repro.harness.systems.SystemSuite`.
Both the pytest benchmarks (`benchmarks/`) and the standalone runner
(``python -m repro.bench``) call these, so the two entry points can
never drift apart.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core import BatchResult, ComponentTimes, Query
from repro.harness.systems import ALL_SYSTEMS, SystemSuite
from repro.harness.tables import PAPER
from repro.harness.trace import QueryTrace, replay_trace

__all__ = [
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "fig6_rows",
    "fig7_rows",
    "fig8_rows",
    "batch_pipeline_rows",
    "sharded_scaling_rows",
    "fault_tolerance_rows",
    "coalescing_rows",
    "progressive_rows",
]

_512G_SYSTEMS = ("mloc-col", "mloc-iso", "mloc-isa", "seqscan")


def table1_rows(suite: SystemSuite) -> dict[str, list]:
    """Table I: storage fractions of raw for every system."""
    rows = {}
    for system in ALL_SYSTEMS:
        sizes = suite.storage_bytes(system)
        raw = suite.spec.raw_bytes
        data_frac = sizes["data"] / raw
        index_frac = sizes["index"] / raw
        paper = PAPER["table1_storage_gb"][system]
        rows[system] = [
            round(data_frac, 3),
            round(index_frac, 3),
            round(data_frac + index_frac, 3),
            round((paper[0] + paper[1]) / 8.0, 3),
        ]
    return rows


def _query_table(
    suite: SystemSuite,
    systems: tuple[str, ...],
    paper_key: str,
    dataset_label: str,
    selectivities: tuple[float, float],
    kind: str,
    n_queries: int,
) -> dict[str, list]:
    """Response-time cells are per-query *medians* (robust against
    outlier constraint draws)."""
    n_queries = max(n_queries, 3)
    rows = {}
    for system in systems:
        cells = []
        for sel in selectivities:
            if kind == "region":
                constraints = suite.workload.value_constraints(sel, n_queries)
                run = suite.region_query
            else:
                constraints = suite.workload.region_constraints(sel, n_queries)
                run = suite.value_query
            totals = [run(system, c).times.total for c in constraints]
            cells.append(round(statistics.median(totals), 2))
        paper = PAPER[paper_key][system]
        offset = 0 if dataset_label == "gts" else 2
        rows[system] = cells + [paper[offset], paper[offset + 1]]
    return rows


def table2_rows(suite: SystemSuite, dataset_label: str, n_queries: int):
    """Table II: 8 GB-class region queries at 1% / 10% selectivity."""
    return _query_table(
        suite, ALL_SYSTEMS, "table2_region_8g", dataset_label,
        (0.01, 0.10), "region", n_queries,
    )


def table3_rows(suite: SystemSuite, dataset_label: str, n_queries: int):
    """Table III: 8 GB-class value queries at 0.1% / 1% selectivity."""
    return _query_table(
        suite, ALL_SYSTEMS, "table3_value_8g", dataset_label,
        (0.001, 0.01), "value", n_queries,
    )


def table4_rows(suite: SystemSuite, dataset_label: str, n_queries: int):
    """Table IV: 512 GB-class region queries (MLOC vs seq scan)."""
    return _query_table(
        suite, _512G_SYSTEMS, "table4_region_512g", dataset_label,
        (0.01, 0.10), "region", n_queries,
    )


def table5_rows(suite: SystemSuite, dataset_label: str, n_queries: int):
    """Table V: 512 GB-class value queries (MLOC vs seq scan)."""
    return _query_table(
        suite, _512G_SYSTEMS, "table5_value_512g", dataset_label,
        (0.001, 0.01), "value", n_queries,
    )


def fig6_rows(suite: SystemSuite, n_queries: int) -> dict[str, list]:
    """Fig. 6: component decomposition of 0.1% value queries."""
    rows = {}
    regions = suite.workload.region_constraints(0.001, n_queries)
    for system in _512G_SYSTEMS:
        rows[system] = _cells(suite.average_value_times(system, regions)[0])
    return rows


def _cells(times: ComponentTimes, k: int = 1) -> list:
    """``[io, decompression, reconstruction, total]`` of ``times`` over ``k`` queries."""
    parts = (times.io, times.decompression, times.reconstruction, times.total)
    return [round(x / k, 2) for x in parts]


def _mean_cells(report: BatchResult) -> list:
    """Per-query mean cells of a replayed batch."""
    return _cells(report.times, len(report))


def fig7_rows(
    suite: SystemSuite,
    n_queries: int,
    ranks: tuple[int, ...] = (8, 16, 32, 64, 128),
) -> dict[str, list]:
    """Fig. 7: scalability of 10% value queries over rank counts."""
    base = suite.store("mloc-iso")
    regions = suite.workload.region_constraints(0.10, max(2, n_queries // 2))
    trace = QueryTrace([Query(region=region, output="values") for region in regions])
    return {
        f"{n_ranks} ranks": _mean_cells(replay_trace(base.with_ranks(n_ranks), trace))
        for n_ranks in ranks
    }


def batch_pipeline_rows(
    suite: SystemSuite,
    n_queries: int,
    system: str = "mloc-col",
    selectivity: float = 0.01,
    plod_level: int = 7,
):
    """Batched ``query_many`` vs cold one-by-one on overlapping queries.

    Runs an exploration-session workload (drifting boxes, mostly-shared
    blocks) both ways and returns the comparison rows plus the
    :class:`~repro.core.result.BatchResult` (whose stats carry the
    cache hit/miss counters).  The aggregate io + decompression of the
    batch must come out lower — each shared block is read and decoded
    once instead of once per query.
    """
    regions = suite.workload.overlapping_region_constraints(selectivity, n_queries)
    t0 = time.perf_counter()
    cold = ComponentTimes()
    for region in regions:
        cold = cold + suite.value_query(system, region, plod_level=plod_level).times
    cold_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch = suite.value_query_batch(system, regions, plod_level=plod_level)
    batch_wall = time.perf_counter() - t0
    rows = {
        label: [round(x, 3) for x in (t.io, t.decompression, t.io + t.decompression, wall)]
        for label, t, wall in (
            ("cold one-by-one", cold, cold_wall),
            ("batched query_many", batch.times, batch_wall),
        )
    }
    return rows, batch


def sharded_scaling_rows(
    suite: SystemSuite,
    system: str = "mloc-col",
    *,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    n_queries: int = 3,
    fraction: float = 0.5,
):
    """Per-shard scaling sweep of :class:`MLOCStore` ``n_shards`` on one suite.

    Opens the already-written store as ``n`` bin-range shards for each
    ``n`` in ``shard_counts`` (one simulated rank per shard, so shard
    count is the only parallelism axis), runs the same cold-cache
    value-constraint workload at every count, and verifies the merged
    answers are identical throughout.  Because merged component times
    take the per-shard max (shards are notionally concurrent store
    servers), the simulated io column should fall near-linearly until
    shards outnumber the touched bins.

    Returns ``(rows, info)``: ``rows`` maps ``"<n> shards"`` to
    ``[io, decompression, io+decompression, speedup vs 1 shard]``;
    ``info`` carries the identity verdict and the shard balance of the
    widest configuration.
    """
    from repro.core import MLOCStore

    base = suite.store(system)
    # Broad (default 50%-selectivity) constraints: per-shard scaling
    # only shows on queries whose bins actually spread across shards.
    constraints = suite.workload.value_constraints(fraction, n_queries)
    queries = [Query(value_range=tuple(c), output="values") for c in constraints]

    rows: dict[str, list] = {}
    reference = None
    identical = True
    widest = None
    for n in shard_counts:
        sharded = MLOCStore(suite.fs, base.root, base.meta, n_shards=n, n_ranks=1)
        widest = sharded
        suite.fs.clear_cache()
        # One query at a time: the sweep measures cold per-query
        # service, which a batch's shared fetcher would hide.
        results = [sharded.query(q) for q in queries]
        io = sum(r.times.io for r in results)
        dec = sum(r.times.decompression for r in results)
        if reference is None:
            reference, base_io_dec = results, io + dec
        identical = identical and _same_answers(results, reference)
        rows[f"{n} shards"] = [
            round(io, 4),
            round(dec, 4),
            round(io + dec, 4),
            round(base_io_dec / max(io + dec, 1e-12), 2),
        ]
    info = {
        "identical": identical,
        "n_queries": len(queries),
        "shard_counts": list(shard_counts),
        "shard_bounds": [int(b) for b in widest.shard_bounds],
        "shard_weights": [round(float(w), 1) for w in widest.shard_weights()],
    }
    return rows, info


def _same_answers(got, want) -> bool:
    """Whether two lists of results hold equal positions and values, pairwise."""

    def equal(a, b) -> bool:
        return (a is None) == (b is None) and (a is None or np.array_equal(a, b))

    return all(
        equal(a.positions, b.positions) and equal(a.values, b.values)
        for a, b in zip(got, want)
    )


def fault_tolerance_rows(
    suite: SystemSuite,
    n_queries: int,
    rates: tuple[float, ...] = (0.0, 0.01, 0.05),
    seed: int = 1234,
):
    """Read-path fault tolerance: 1% value queries under injected faults.

    Runs the same workload against the suite's ``mloc-col`` store three
    times, through a :class:`~repro.pfs.faults.FaultyPFS` whose per-read
    fault rates sweep ``rates`` (each rate drives transient errors, bit
    flips, torn reads, sticky extent rot, and latency spikes together).
    ``allow_partial=True``: queries degrade instead of failing, and the
    row reports what the degradation cost — retries, quarantined blocks,
    degraded/dropped points — alongside the simulated response time.
    The rate-0.0 row doubles as the no-fault overhead check: its counter
    cells are all zero and its times match the plain store's.
    """
    from repro.core import MLOCStore
    from repro.pfs.faults import FaultPlan, FaultyPFS

    suite.store("mloc-col")  # build (once) through the plain PFS
    root = f"/{suite.spec.name}/mloc-col"
    regions = suite.workload.region_constraints(0.01, max(n_queries, 2))
    rows = {}
    for rate in rates:
        plan = FaultPlan(
            seed=seed,
            transient_error_rate=rate,
            bitflip_rate=rate,
            torn_read_rate=rate / 2,
            sticky_corruption_rate=rate / 2,
            latency_spike_rate=rate,
        )
        ffs = FaultyPFS(suite.fs, plan)
        store = MLOCStore.open(
            ffs, root, "field", n_ranks=suite.n_ranks, allow_partial=True
        )
        results = []
        for region in regions:
            ffs.clear_cache()
            ffs.reset_attempts()  # same fault draws for every rate
            results.append(store.query(Query(region=region, output="values")))
        batch = BatchResult.of(results, quarantined_blocks=len(store.quarantined_blocks))
        stats = batch.stats
        rows[f"rate {rate:g}"] = [
            round((batch.times.io + batch.times.decompression) / len(batch), 3),
            stats["crc_failures"],
            stats["io_retries"],
            stats["quarantined_blocks"],
            stats["degraded_points"],
            stats["dropped_points"],
        ]
    return rows


def coalescing_rows(
    suite: SystemSuite,
    n_queries: int,
    system: str = "mloc-col",
    gap: int = 4096,
    plod_level: int = 3,
):
    """Coalesced vectored I/O vs one read per block on SC queries.

    Runs the same spatially-constrained (region) value workload twice —
    ``coalesce_gap=0`` (one PFS read per pending block) and
    ``coalesce_gap=gap`` (the I/O scheduler merges near-adjacent
    extents of one subfile into single vectored reads) —
    and returns ``(rows, info)``: per-mode ``[seeks, bytes_read,
    io+dec seconds]`` plus ``identical`` (results must not change),
    ``seeks_saved`` and ``coalesced_reads``.  A reduced PLoD level
    leaves gaps between the covering blocks inside each byte-group
    segment, which is exactly what coalescing bridges.
    """
    from repro.core import MLOCStore

    base = suite.store(system)
    regions = suite.workload.region_constraints(0.01, max(n_queries, 2))
    trace = QueryTrace(
        [
            Query(region=region, output="values", plod_level=plod_level)
            for region in regions
        ]
    )
    rows = {}
    outputs: dict[str, list] = {}
    for label, gap_bytes in (("one read per block", 0), (f"coalesce_gap={gap}", gap)):
        store = MLOCStore(
            suite.fs, base.root, base.meta,
            n_ranks=suite.n_ranks, coalesce_gap=gap_bytes,
        )
        report = replay_trace(store, trace)
        seeks, bytes_read, coalesced = (
            sum(int(r.stats[key]) for r in report.results)
            for key in ("seeks", "bytes_read", "coalesced_reads")
        )
        times = report.times
        rows[label] = [seeks, bytes_read, round(times.io + times.decompression, 4)]
        outputs[label] = report.results
    (plain_seeks, *_), (vec_seeks, *_) = rows.values()
    info = {
        "identical": _same_answers(*outputs.values()),
        "seeks_uncoalesced": plain_seeks,
        "seeks_coalesced": vec_seeks,
        "seeks_saved": plain_seeks - vec_seeks,
        "coalesced_reads": coalesced,  # the loop's last run is the coalesced one
    }
    return rows, info


def progressive_rows(
    suite: SystemSuite,
    system: str = "mloc-col",
    levels: tuple[int, ...] = (2, 5, 7),
):
    """Progressive refinement session vs independent per-level queries.

    Opens one :class:`~repro.core.engine.session.RefinementSession` on a
    1% region value query at ``levels[0]`` and refines through the
    remaining levels; then runs a fresh cold single-shot query at every
    level.  Returns ``(rows, info)``: one row per level with the bytes
    each approach read, plus ``identical`` (every session step must be
    bit-identical to the fresh query at its level), ``bytes_reused``
    (raw bytes served from held planes), the session-vs-independent
    total byte ratio, and the refine-to-full vs re-query-at-full ratio
    (the ISSUE's >= 2x bar: refining 4 -> 7 fetches only the missing
    three byte-plane groups and never re-reads the index).
    """
    from repro.core import MLOCStore

    base = suite.store(system)
    region = suite.workload.region_constraints(0.01, 2)[0]
    query = Query(region=region, output="values", plod_level=levels[0])

    store = MLOCStore(suite.fs, base.root, base.meta, n_ranks=suite.n_ranks)
    suite.fs.clear_cache()
    with store.open_session(query) as session:
        for level in levels[1:]:
            session.refine(level)
        session_results = list(session.results)
        bytes_reused = session.bytes_reused

    fresh_store = MLOCStore(suite.fs, base.root, base.meta, n_ranks=suite.n_ranks)
    independent = replay_trace(
        fresh_store,
        QueryTrace(
            [Query(region=region, output="values", plod_level=level) for level in levels]
        ),
    ).results

    rows = {}
    for level, step, fresh in zip(levels, session_results, independent):
        rows[f"PLoD {level}"] = [
            int(step.stats["bytes_read"]),
            int(fresh.stats["bytes_read"]),
            int(step.stats["bytes_reused"]),
        ]
    session_bytes = sum(int(r.stats["bytes_read"]) for r in session_results)
    independent_bytes = sum(int(r.stats["bytes_read"]) for r in independent)
    rows["total"] = [session_bytes, independent_bytes, bytes_reused]
    identical = _same_answers(session_results, independent)
    refine_full = int(session_results[-1].stats["bytes_read"])
    requery_full = int(independent[-1].stats["bytes_read"])
    info = {
        "identical": identical,
        "bytes_reused": bytes_reused,
        "session_bytes": session_bytes,
        "independent_bytes": independent_bytes,
        "refine_to_full_bytes": refine_full,
        "requery_full_bytes": requery_full,
        "full_step_ratio": requery_full / max(refine_full, 1),
        "levels": list(levels),
    }
    return rows, info


def fig8_rows(
    suite: SystemSuite,
    n_queries: int,
    levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
) -> dict[str, list]:
    """Fig. 8: PLoD access cost of 1% value queries per level."""
    store = suite.store("mloc-col")
    regions = suite.workload.region_constraints(0.01, n_queries)
    rows = {}
    for level in levels:
        trace = QueryTrace(
            [Query(region=region, output="values", plod_level=level) for region in regions]
        )
        rows[f"PLoD {level} ({level + 1}B)"] = _mean_cells(replay_trace(store, trace))
    return rows
