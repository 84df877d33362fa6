"""Command-line interface over persisted simulated-PFS snapshots.

Because the reproduction's file system is simulated in memory, datasets
are made durable via :meth:`SimulatedPFS.save` snapshots; the CLI works
against those snapshot files, giving the library a shell-level surface:

    python -m repro.cli demo out.pfs            # build a demo dataset
    python -m repro.cli info out.pfs            # list variables & sizes
    python -m repro.cli fsck out.pfs --root /demo --variable potential
    python -m repro.cli query out.pfs --root /demo --variable potential \\
        --vmin 4.0 --region 100:200,0:128 --output values --plod 2
    python -m repro.cli batch out.pfs --root /demo --variable potential \\
        --cache-mb 64 --backend threads \\
        --spec 'vmin=4.0;region=100:200,0:128' --spec 'vmin=4.5'
    python -m repro.cli refine out.pfs --root /demo --variable potential \\
        --vmin 4.0 --levels 2,4,7 --cache-mb 64
    python -m repro.cli stats out.pfs --root /demo --variable potential \\
        --plan-cache 8 --cache-mb 64 --spec 'vmin=4.0' --spec 'vmin=4.0'
    python -m repro.cli serve-replay out.pfs --root /demo --variable potential \\
        --tenants 16 --queries 4 --mode open --rate 50 --cache-mb 64
    python -m repro.cli index build out.pfs --root /demo --variable potential
    python -m repro.cli index stats out.pfs --root /demo --variable potential

Every command prints human-readable text and exits non-zero on failure
(or when fsck finds issues).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import (
    EXEC_BACKENDS,
    WRITE_BACKENDS,
    ExecutionConfig,
    MLOCStore,
    MLOCWriter,
    Query,
    ShardedMLOCStore,
    mloc_col,
)
from repro.core.aggregate import AGGREGATE_OPS, aggregate_query
from repro.core.result import FAULT_STAT_KEYS
from repro.pfs import SimulatedPFS
from repro.tools.fsck import check_dataset, check_store
from repro.tools.relayout import relayout

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Inspect and query MLOC datasets in simulated-PFS snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build a small demo dataset snapshot")
    demo.add_argument("snapshot", help="output .pfs snapshot path")
    demo.add_argument("--size", type=int, default=512, help="square field size")
    demo.add_argument("--bins", type=int, default=32, help="value bins")
    demo.add_argument("--seed", type=int, default=7)
    _add_write_options(demo)

    info = sub.add_parser("info", help="list datasets in a snapshot")
    info.add_argument("snapshot")

    fsck = sub.add_parser("fsck", help="check a store's integrity")
    fsck.add_argument("snapshot")
    fsck.add_argument("--root", required=True, help="dataset root, e.g. /demo")
    fsck.add_argument(
        "--variable",
        default=None,
        help="store member to check (required unless --dataset)",
    )
    fsck.add_argument(
        "--dataset",
        action="store_true",
        help="check the whole manifest-managed dataset under --root: "
        "generation chain, sealed-member CRCs, per-member hbi/peb "
        "records, and orphaned member directories",
    )
    fsck.add_argument(
        "--deep",
        action="store_true",
        help="with --dataset: also run the full per-member store check",
    )

    query = sub.add_parser("query", help="run one query against a store")
    query.add_argument("snapshot")
    query.add_argument("--root", required=True)
    query.add_argument("--variable", required=True)
    query.add_argument("--vmin", type=float, default=None)
    query.add_argument("--vmax", type=float, default=None)
    query.add_argument(
        "--region",
        default=None,
        help="per-axis lo:hi bounds, comma separated, e.g. 0:128,64:256",
    )
    query.add_argument(
        "--output", choices=["positions", "values"], default="values"
    )
    query.add_argument("--plod", type=int, default=7, help="PLoD level 1..7")
    query.add_argument(
        "--tol",
        type=float,
        default=None,
        help=(
            "max acceptable relative error; reads the minimal PLoD "
            "level per chunk whose recorded bound meets it (0 = exact)"
        ),
    )
    query.add_argument(
        "--tol-metric",
        choices=["max_rel", "mean_rel"],
        default="max_rel",
        help="which recorded per-chunk bound --tol is measured against",
    )
    query.add_argument("--ranks", type=int, default=8)
    _add_execution_options(query)
    query.add_argument(
        "--aggregate",
        choices=list(AGGREGATE_OPS),
        default=None,
        help="reduce instead of returning points",
    )
    query.add_argument("--limit", type=int, default=5, help="result rows to print")

    batch = sub.add_parser(
        "batch", help="run a batch of queries as one pipeline (query_many)"
    )
    batch.add_argument("snapshot")
    batch.add_argument("--root", required=True)
    batch.add_argument("--variable", required=True)
    batch.add_argument(
        "--spec",
        action="append",
        required=True,
        metavar="SPEC",
        help=(
            "one query as ';'-separated key=value pairs "
            "(vmin, vmax, region, output, plod), e.g. "
            "'vmin=4.0;region=100:200,0:128;output=values;plod=2'; repeatable"
        ),
    )
    batch.add_argument("--ranks", type=int, default=8)
    _add_execution_options(batch)

    refine = sub.add_parser(
        "refine",
        help="run one query progressively through increasing PLoD levels",
    )
    refine.add_argument("snapshot")
    refine.add_argument("--root", required=True)
    refine.add_argument("--variable", required=True)
    refine.add_argument("--vmin", type=float, default=None)
    refine.add_argument("--vmax", type=float, default=None)
    refine.add_argument(
        "--region",
        default=None,
        help="per-axis lo:hi bounds, comma separated, e.g. 0:128,64:256",
    )
    refine.add_argument(
        "--levels",
        default="2,4,7",
        help="comma-separated ascending PLoD levels, e.g. 2,4,7",
    )
    refine.add_argument(
        "--tol",
        type=float,
        default=None,
        help=(
            "auto-refine until every chunk's recorded bound meets this "
            "relative error (replaces --levels: the ladder is derived "
            "from the per-chunk bounds)"
        ),
    )
    refine.add_argument(
        "--tol-metric",
        choices=["max_rel", "mean_rel"],
        default="max_rel",
        help="which recorded per-chunk bound --tol is measured against",
    )
    refine.add_argument("--ranks", type=int, default=8)
    _add_execution_options(refine)

    stats = sub.add_parser(
        "stats",
        help="print a store handle's open-state counters",
    )
    stats.add_argument("snapshot")
    stats.add_argument("--root", required=True)
    stats.add_argument("--variable", required=True)
    stats.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "optional queries (same syntax as 'batch') to run first, so "
            "the counters describe a warmed handle; repeatable"
        ),
    )
    stats.add_argument("--ranks", type=int, default=8)
    _add_execution_options(stats)

    serve = sub.add_parser(
        "serve-replay",
        help=(
            "replay a synthetic multi-tenant trace through the query "
            "broker and report latency/dedup"
        ),
    )
    serve.add_argument("snapshot")
    serve.add_argument("--root", required=True)
    serve.add_argument("--variable", required=True)
    serve.add_argument("--tenants", type=int, default=8)
    serve.add_argument(
        "--queries", type=int, default=4, help="queries per tenant"
    )
    serve.add_argument(
        "--mode", choices=["open", "closed"], default="open"
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="open-loop arrival rate per tenant (queries/simulated s)",
    )
    serve.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        help="closed-loop think time between a completion and the next submit",
    )
    serve.add_argument(
        "--selectivity",
        type=float,
        default=0.05,
        help="volume fraction of each tenant's drifting region queries",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--ranks", type=int, default=8)
    serve.add_argument(
        "--max-inflight", type=int, default=8, help="queries served per round"
    )
    serve.add_argument(
        "--quantum-kb",
        type=float,
        default=4096.0,
        help="deficit-round-robin quantum in KiB of estimated raw bytes",
    )
    serve.add_argument(
        "--max-pending-mb",
        type=float,
        default=0.0,
        help="admission ceiling on queued estimated raw MiB (0 = unbounded)",
    )
    _add_execution_options(serve)

    index = sub.add_parser(
        "index",
        help="build or inspect a store's hierarchical bitmap index",
    )
    index.add_argument(
        "action",
        choices=["build", "stats"],
        help=(
            "'build' (re)creates the persisted hbi record from the flat "
            "bin index; 'stats' prints its tree shape and size versus "
            "the flat index and a FastBit-style whole-domain baseline"
        ),
    )
    index.add_argument("snapshot")
    index.add_argument("--root", required=True)
    index.add_argument("--variable", required=True)
    index.add_argument(
        "--leaf-span",
        type=int,
        default=None,
        help="chunks per leaf bitmap (build only; default 8, see docs/tuning.md)",
    )
    index.add_argument(
        "--fanout",
        type=int,
        default=None,
        help="bins per interior summary node (build only; default 4)",
    )

    relayout_p = sub.add_parser(
        "relayout", help="migrate a store to a different level order"
    )
    relayout_p.add_argument("snapshot")
    relayout_p.add_argument("--root", required=True)
    relayout_p.add_argument("--variable", required=True)
    relayout_p.add_argument("--target-root", required=True)
    relayout_p.add_argument(
        "--order", choices=["VMS", "VSM", "VS"], default="VSM"
    )
    relayout_p.add_argument("--bins", type=int, default=None)
    _add_write_options(relayout_p)
    return parser


def _add_write_options(sub_parser) -> None:
    sub_parser.add_argument(
        "--write-backend",
        choices=list(WRITE_BACKENDS),
        default="serial",
        help="write-pipeline backend (bit-identical output for every choice)",
    )
    sub_parser.add_argument(
        "--write-workers",
        type=int,
        default=None,
        help="pool width for --write-backend threads (default: CPU count)",
    )
    sub_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "report how the written bins would partition across this "
            "many store shards (balance diagnostic; sharding itself is "
            "metadata-level, no bytes change)"
        ),
    )


def _add_execution_options(sub_parser) -> None:
    sub_parser.add_argument(
        "--backend",
        choices=list(EXEC_BACKENDS),
        default="serial",
        help="decode-phase backend (identical simulated seconds)",
    )
    sub_parser.add_argument(
        "--threads",
        "--workers",
        dest="workers",
        type=int,
        default=None,
        help=(
            "pool width for --backend threads/processes "
            "(default: CPU count)"
        ),
    )
    sub_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "open the store as this many bin-range shards "
            "(scatter/gather; identical results, per-shard parallelism)"
        ),
    )
    sub_parser.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help="decoded-block LRU budget in MiB (0 = cold, the paper's discipline)",
    )
    sub_parser.add_argument(
        "--plan-cache",
        type=int,
        default=0,
        help="query-plan LRU capacity in plans (0 = plan every query)",
    )
    sub_parser.add_argument(
        "--max-read-retries",
        type=int,
        default=2,
        help="retries per failed block read before quarantine",
    )
    sub_parser.add_argument(
        "--read-backoff",
        type=float,
        default=0.005,
        help="base retry backoff in simulated seconds (doubles per retry)",
    )
    sub_parser.add_argument(
        "--allow-partial",
        action="store_true",
        help=(
            "degrade instead of failing when a block is unrecoverable: "
            "drop affected points and report their chunks"
        ),
    )
    sub_parser.add_argument(
        "--coalesce-gap",
        type=int,
        default=0,
        help=(
            "max byte gap for merging adjacent block reads into one "
            "vectored read (0 = off, pre-engine seek counts)"
        ),
    )
    sub_parser.add_argument(
        "--readahead",
        type=int,
        default=0,
        help="bytes of scheduler readahead past each vectored run (0 = off)",
    )


def _open_store(fs, args) -> MLOCStore | ShardedMLOCStore:
    if args.shards <= 0:
        raise SystemExit(f"error: --shards must be positive, got {args.shards}")
    execution = ExecutionConfig(
        backend=args.backend,
        workers=args.workers,
        cache_bytes=int(args.cache_mb * (1 << 20)),
        plan_cache=args.plan_cache,
        max_read_retries=args.max_read_retries,
        read_backoff=args.read_backoff,
        allow_partial=args.allow_partial,
        coalesce_gap=args.coalesce_gap,
        readahead=args.readahead,
    )
    options = {"n_ranks": args.ranks, "execution": execution}
    if args.shards > 1:
        return ShardedMLOCStore.open(
            fs, args.root, args.variable, n_shards=args.shards, **options
        )
    return MLOCStore.open(fs, args.root, args.variable, **options)


def _write_execution(args) -> ExecutionConfig:
    return ExecutionConfig(
        write_backend=args.write_backend, write_workers=args.write_workers
    )


def _print_shard_balance(fs, root: str, variable: str, n_shards: int) -> None:
    """Report how a sharded open would split the just-written bins."""
    if n_shards <= 1:
        return
    sharded = ShardedMLOCStore.open(fs, root, variable, n_shards=n_shards)
    weights = sharded.shard_weights()
    total = float(weights.sum()) or 1.0
    print(
        f"shard balance ({n_shards} shards): bin bounds "
        f"{[int(b) for b in sharded.shard_bounds]}, stored-byte shares "
        + ", ".join(f"{w / total:.0%}" for w in weights)
    )


def _parse_region(text: str | None):
    if text is None:
        return None
    region = []
    for axis in text.split(","):
        lo, hi = axis.split(":")
        region.append((int(lo), int(hi)))
    return tuple(region)


def _parse_query_spec(spec: str) -> Query:
    """Parse one ``--spec`` string into a :class:`Query`.

    Pairs are ';'-separated (regions need the comma), e.g.
    ``vmin=4.0;region=100:200,0:128;output=values;plod=2``.
    """
    fields: dict[str, str] = {}
    for pair in spec.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ValueError(f"bad query spec field {pair!r} (expected key=value)")
        key, value = pair.split("=", 1)
        fields[key.strip()] = value.strip()
    known = {"vmin", "vmax", "region", "output", "plod", "tol", "tol_metric"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown query spec keys {sorted(unknown)}")
    value_range = None
    if "vmin" in fields or "vmax" in fields:
        value_range = (
            float(fields["vmin"]) if "vmin" in fields else -np.inf,
            float(fields["vmax"]) if "vmax" in fields else np.inf,
        )
    return Query(
        value_range=value_range,
        region=_parse_region(fields.get("region")),
        output=fields.get("output", "values"),
        plod_level=int(fields.get("plod", 7)),
        tol=float(fields["tol"]) if "tol" in fields else None,
        tol_metric=fields.get("tol_metric", "max_rel"),
    )


def _cmd_demo(args) -> int:
    from repro.datasets import gts_like

    fs = SimulatedPFS()
    field = gts_like((args.size, args.size), seed=args.seed)
    config = mloc_col(
        chunk_shape=(max(args.size // 16, 1), max(args.size // 16, 1)),
        n_bins=args.bins,
    )
    report = MLOCWriter(
        fs, "/demo", config, execution=_write_execution(args)
    ).write(field, variable="potential")
    fs.save(args.snapshot)
    print(
        f"wrote /demo/potential: {args.size}x{args.size} field, "
        f"{report.total_ratio:.0%} of raw, snapshot -> {args.snapshot}"
    )
    _print_shard_balance(fs, "/demo", "potential", args.shards)
    return 0


def _cmd_info(args) -> int:
    fs = SimulatedPFS.load(args.snapshot)
    metas = [p for p in fs.list_files() if p.endswith("/meta")]
    if not metas:
        print("no MLOC stores in snapshot")
        return 1
    print(f"{'store':40s} {'shape':>16s} {'order':>6s} {'bins':>5s} {'bytes':>12s}")
    for meta_path in metas:
        from repro.core.meta import StoreMeta

        var_root = meta_path[: -len("/meta")]
        meta = StoreMeta.load(fs, var_root)
        total = fs.total_bytes(var_root + "/")
        print(
            f"{var_root:40s} {str(meta.shape):>16s} "
            f"{meta.config.level_order:>6s} {meta.config.n_bins:>5d} {total:>12d}"
        )
    return 0


def _cmd_fsck(args) -> int:
    fs = SimulatedPFS.load(args.snapshot)
    if args.dataset:
        issues = check_dataset(fs, args.root, deep=args.deep)
        label = args.root
    elif args.variable is None:
        print("fsck: --variable is required unless --dataset is given")
        return 2
    else:
        issues = check_store(fs, args.root, args.variable)
        label = f"{args.root}/{args.variable}"
    if not issues:
        print(f"{label}: OK")
        return 0
    for issue in issues:
        print(issue)
    print(f"{len(issues)} issue(s) found")
    return 1


def _cmd_query(args) -> int:
    fs = SimulatedPFS.load(args.snapshot)
    store = _open_store(fs, args)
    value_range = None
    if args.vmin is not None or args.vmax is not None:
        value_range = (
            args.vmin if args.vmin is not None else -np.inf,
            args.vmax if args.vmax is not None else np.inf,
        )
    query = Query(
        value_range=value_range,
        region=_parse_region(args.region),
        output=args.output,
        plod_level=args.plod,
        tol=args.tol,
        tol_metric=args.tol_metric,
    )
    if args.aggregate is not None:
        result = aggregate_query(store, query, args.aggregate)
        if args.aggregate == "histogram":
            counts, edges = result.histogram
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                print(f"[{lo:10.4g}, {hi:10.4g}) {int(c)}")
        else:
            print(f"{args.aggregate} = {result.value}")
        print(
            f"({result.n_points} points, response "
            f"{result.times.total:.4f} s simulated)"
        )
        return 0

    result = store.query(query)
    coords = result.coords(store.shape)
    for i in range(min(args.limit, result.n_results)):
        if result.values is not None:
            print(f"{coords[i].tolist()} = {result.values[i]:.6g}")
        else:
            print(f"{coords[i].tolist()}")
    if result.n_results > args.limit:
        print(f"... {result.n_results - args.limit} more")
    print(
        f"({result.n_results} results; response {result.times.total:.4f} s "
        f"simulated: io {result.times.io:.4f}, "
        f"decompression {result.times.decompression:.4f}, "
        f"reconstruction {result.times.reconstruction:.4f})"
    )
    _print_tol_stats(result.stats)
    _print_fault_stats(result.stats)
    return 0


def _print_tol_stats(stats: dict) -> None:
    """One line per tol query: the claim, the proof, and the saving."""
    if "tol_target" not in stats:
        return
    hist = ", ".join(
        f"L{lv}×{n}" for lv, n in sorted(stats["levels_histogram"].items())
    )
    met = "met" if stats.get("tol_met") else "MISSED"
    print(
        f"tol: target {stats['tol_target']:g} ({stats['tol_metric']}) {met}; "
        f"provable bound {stats['achieved_bound']:.3g}; "
        f"chunk levels {hist}; {stats['tol_bytes_saved']} raw bytes saved"
    )


def _print_fault_stats(stats: dict) -> None:
    """One warning line per query/batch when the read path saw faults."""
    watched = FAULT_STAT_KEYS + ("quarantined_blocks", "partial_chunks")
    if not any(stats.get(k) for k in watched):
        return
    print(
        f"faults: {stats['crc_failures']} CRC failures, "
        f"{stats['io_retries']} retries, "
        f"{stats['quarantined_blocks']} quarantined block(s); "
        f"{stats['degraded_points']} degraded / "
        f"{stats['dropped_points']} dropped point(s)"
    )
    if stats.get("partial_chunks"):
        chunks = stats["partial_chunks"]
        shown = ", ".join(str(c) for c in chunks[:8])
        more = f" (+{len(chunks) - 8} more)" if len(chunks) > 8 else ""
        print(f"partial chunks: {shown}{more}")


def _cmd_batch(args) -> int:
    fs = SimulatedPFS.load(args.snapshot)
    store = _open_store(fs, args)
    try:
        queries = [_parse_query_spec(spec) for spec in args.spec]
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    batch = store.query_many(queries)
    for i, result in enumerate(batch):
        print(
            f"query {i}: {result.n_results} results; "
            f"response {result.times.total:.4f} s simulated "
            f"(io {result.times.io:.4f}, "
            f"decompression {result.times.decompression:.4f}); "
            f"block hits/misses {result.stats['cache_hits']}"
            f"/{result.stats['cache_misses']}"
        )
    print(
        f"batch of {len(batch)}: {batch.stats['n_results']} results; "
        f"aggregate response {batch.times.total:.4f} s simulated; "
        f"{batch.stats['blocks_decoded']} blocks decoded for "
        f"{batch.stats['cache_hits'] + batch.stats['cache_misses']} block requests"
    )
    if "cache" in batch.stats:
        cache = batch.stats["cache"]
        print(
            f"cache: {cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['evictions']} evictions, "
            f"{cache['current_bytes']}/{cache['capacity_bytes']} bytes"
        )
    _print_fault_stats(batch.stats)
    return 0


def _cmd_refine(args) -> int:
    fs = SimulatedPFS.load(args.snapshot)
    store = _open_store(fs, args)
    try:
        levels = [int(level) for level in args.levels.split(",") if level.strip()]
    except ValueError:
        print(f"error: bad --levels {args.levels!r} (expected e.g. 2,4,7)")
        return 2
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        print(f"error: --levels must be strictly ascending, got {args.levels!r}")
        return 2
    value_range = None
    if args.vmin is not None or args.vmax is not None:
        value_range = (
            args.vmin if args.vmin is not None else -np.inf,
            args.vmax if args.vmax is not None else np.inf,
        )
    query = Query(
        value_range=value_range,
        region=_parse_region(args.region),
        output="values",
        # With --tol the session derives its own ladder from the
        # per-chunk bounds; --levels only drives the tol-less path.
        plod_level=7 if args.tol is not None else levels[0],
        tol=args.tol,
        tol_metric=args.tol_metric,
    )
    try:
        with store.open_session(query) as session:
            if args.tol is not None:
                for result in session.progressive_results():
                    stats = result.stats
                    print(
                        f"step at level {session.level}: "
                        f"{result.n_results} results; "
                        f"response {result.times.total:.4f} s simulated; "
                        f"{stats['bytes_read']} bytes read, "
                        f"{stats['bytes_reused']} raw bytes reused"
                    )
                    _print_tol_stats(stats)
                    _print_fault_stats(stats)
            else:
                for level in levels[1:]:
                    session.refine(level)
                for level, result in zip(levels, session.results):
                    stats = result.stats
                    print(
                        f"level {level}: {result.n_results} results; "
                        f"response {result.times.total:.4f} s simulated; "
                        f"{stats['bytes_read']} bytes read, "
                        f"{stats['bytes_reused']} raw bytes reused"
                    )
                    _print_fault_stats(stats)
            final = session.result.stats
            print(
                f"session: {session.refine_steps} refine step(s), "
                f"{session.bytes_reused} raw bytes reused, "
                f"{final['coalesced_reads']} coalesced read(s), "
                f"{final['readahead_hits']} readahead hit(s)"
            )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    return 0


def _cmd_stats(args) -> int:
    fs = SimulatedPFS.load(args.snapshot)
    store = _open_store(fs, args)
    try:
        queries = [_parse_query_spec(spec) for spec in args.spec]
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    for query in queries:
        store.query(query)
    snapshot = store.runtime_stats()
    if args.shards > 1:
        # Sharded runtime_stats is shaped like the flat store's (shared
        # structures reported once, quarantines unioned), so the same
        # printing below covers both; only the shard map is extra.
        weights = snapshot["shard_weights"]
        total = sum(weights) or 1.0
        print(
            f"shards: {snapshot['n_shards']}, bin bounds "
            f"{snapshot['shard_bounds']}, stored-byte shares "
            + ", ".join(f"{w / total:.0%}" for w in weights)
        )
    print(
        f"executor: {snapshot['n_ranks']} ranks, {snapshot['backend']} backend, "
        f"coalesce_gap={snapshot['coalesce_gap']}, "
        f"readahead={snapshot['readahead']}"
    )
    if "plan_cache" in snapshot:
        pc = snapshot["plan_cache"]
        print(
            f"plan cache: {pc['hits']} hits, {pc['misses']} misses, "
            f"{pc['size']}/{pc['capacity']} plans held"
        )
    else:
        print("plan cache: disabled")
    if "block_cache" in snapshot:
        bc = snapshot["block_cache"]
        print(
            f"block cache: {bc['hits']} hits, {bc['misses']} misses, "
            f"{bc['evictions']} evictions, "
            f"{bc['current_bytes']}/{bc['capacity_bytes']} bytes, "
            f"{bc['pinned_blocks']} pinned block(s)"
        )
    else:
        print("block cache: disabled")
    quarantine = snapshot["quarantine"]
    if quarantine:
        print(f"quarantine: {len(quarantine)} block(s)")
        for extent, reason in quarantine.items():
            print(f"  {extent}: {reason}")
    else:
        print("quarantine: empty")
    return 0


def _cmd_serve_replay(args) -> int:
    from repro.harness.workloads import WorkloadGenerator
    from repro.server import (
        BrokerConfig,
        BrokerCore,
        open_loop_events,
        replay_closed_loop,
        replay_open_loop,
    )

    fs = SimulatedPFS.load(args.snapshot)
    store = _open_store(fs, args)
    # Region workloads need only the shape; the quantile table is for
    # value constraints, which this trace does not use.
    gen = WorkloadGenerator(
        shape=store.shape, quantiles=np.array([0.0, 1.0]), seed=args.seed
    )
    regions = gen.overlapping_region_constraints(
        args.selectivity, args.tenants * args.queries
    )
    # Deal the drifting walk round-robin so consecutive (overlapping)
    # boxes land on different tenants: cross-tenant dedup, not mere
    # per-tenant locality, is what the broker is for.
    tenant_queries = {
        f"tenant-{t:03d}": [
            Query(region=regions[i], output="values")
            for i in range(t, len(regions), args.tenants)
        ]
        for t in range(args.tenants)
    }
    config = BrokerConfig(
        max_inflight=args.max_inflight,
        quantum_bytes=int(args.quantum_kb * 1024),
        max_pending_bytes=(
            int(args.max_pending_mb * (1 << 20)) if args.max_pending_mb else None
        ),
    )
    core = BrokerCore(store, config)
    if args.mode == "open":
        events = open_loop_events(tenant_queries, rate=args.rate, seed=args.seed)
        report = replay_open_loop(core, events)
    else:
        report = replay_closed_loop(
            core, tenant_queries, think_time=args.think_time
        )
    summary = report.as_dict()
    print(
        f"{args.mode}-loop replay: {summary['n_requests']} requests from "
        f"{args.tenants} tenant(s), {summary['rounds']} round(s), "
        f"makespan {summary['makespan_s']:.4f} s simulated"
    )
    print(
        f"latency: p50 {summary['latency_p50_s']:.4f} s, "
        f"p99 {summary['latency_p99_s']:.4f} s, "
        f"mean {summary['latency_mean_s']:.4f} s"
    )
    print(
        f"fetch-merge: {summary['blocks_decoded']} blocks decoded for "
        f"{summary['blocks_decoded'] + summary['cache_hits']} block requests, "
        f"dedup rate {summary['dedup_rate']:.1%}, "
        f"{summary['bytes_read']} bytes read"
    )
    if summary["rejected_retries"] or summary["dropped"]:
        print(
            f"admission: {summary['rejected_retries']} rejection(s) retried, "
            f"{summary['dropped']} request(s) dropped"
        )
    return 0


def _cmd_index(args) -> int:
    from repro.index import HBIndex, build_from_store, hbi_path, wah_from_positions

    fs = SimulatedPFS.load(args.snapshot)
    store = MLOCStore.open(fs, args.root, args.variable)
    path = hbi_path(store.root)

    if args.action == "build":
        options = {}
        if args.leaf_span is not None:
            options["leaf_span"] = args.leaf_span
        if args.fanout is not None:
            options["fanout"] = args.fanout
        try:
            hbi = build_from_store(store, **options)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        blob = hbi.to_bytes()
        fs.write_file(path, blob)
        fs.save(args.snapshot)
        print(
            f"built {path}: {len(blob)} bytes "
            f"(leaf_span={hbi.leaf_span}, fanout={hbi.fanout})"
        )
        return 0

    if fs.exists(path):
        hbi = HBIndex.from_bytes(bytes(fs.session().open(path).read_all()))
        source, hbi_bytes = "persisted", fs.size(path)
    else:
        hbi = store.hbi  # lazy rebuild from the flat bin index
        source, hbi_bytes = "rebuilt in memory (no persisted record)", len(
            hbi.to_bytes()
        )
    try:
        hbi.validate()
    except ValueError as exc:
        print(f"error: index fails validation: {exc}")
        return 1
    s = hbi.stats()
    print(f"hierarchical index {path} ({source}): {hbi_bytes} bytes")
    print(
        f"tree: {s['n_bins']} bins x {s['n_runs']} chunk-runs of "
        f"{s['leaf_span']} chunks, {s['n_levels']} levels (fanout "
        f"{s['fanout']}), {s['nonempty_leaves']}/{s['n_leaves']} "
        f"non-empty leaves, {s['interior_nodes']} interior nodes"
    )
    print(
        f"breakdown: {s['leaf_bytes']} WAH leaf bytes, "
        f"{s['summary_bytes']} cardinality-summary bytes"
    )
    flat_bytes = sum(
        fs.size(store.files.index_path(b)) for b in range(s["n_bins"])
    )
    print(
        f"vs flat MLOC bin index: {flat_bytes} bytes "
        f"(hierarchical = {hbi_bytes / flat_bytes:.0%})"
    )
    # FastBit-style baseline: one whole-domain WAH bitmap per bin, the
    # layout a standalone bitmap index would persist (Table I's blowup).
    fastbit_bytes = sum(
        wah_from_positions(
            hbi.bin_positions(b, store.grid, store.curve), store.n_elements
        ).nbytes
        for b in range(s["n_bins"])
    )
    print(
        f"vs FastBit-style whole-domain WAH index: {fastbit_bytes} bytes "
        f"(hierarchical = {hbi_bytes / fastbit_bytes:.0%})"
    )
    print("validate: OK")
    return 0


def _cmd_relayout(args) -> int:
    from dataclasses import replace as dc_replace

    fs = SimulatedPFS.load(args.snapshot)
    source = MLOCStore.open(fs, args.root, args.variable)
    new_config = dc_replace(
        source.meta.config,
        level_order=args.order,
        codec="zlib-bytes" if "M" in args.order else source.meta.config.codec,
        n_bins=args.bins if args.bins is not None else source.meta.config.n_bins,
    )
    if "M" in args.order and source.meta.config.level_order == "VS":
        print("note: switching a whole-value store to a PLoD order uses zlib-bytes")
    report = relayout(
        fs,
        args.root,
        args.variable,
        args.target_root,
        new_config,
        execution=_write_execution(args),
    )
    fs.save(args.snapshot)
    print(
        f"migrated {args.root}/{args.variable} ({report.source_order}) -> "
        f"{args.target_root}/{args.variable} ({report.target_order}); "
        f"stored at {report.write_report.total_ratio:.0%} of raw"
        + (" [approximate: lossy source]" if report.approximate else "")
    )
    _print_shard_balance(fs, args.target_root, args.variable, args.shards)
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "info": _cmd_info,
    "fsck": _cmd_fsck,
    "query": _cmd_query,
    "batch": _cmd_batch,
    "refine": _cmd_refine,
    "stats": _cmd_stats,
    "serve-replay": _cmd_serve_replay,
    "index": _cmd_index,
    "relayout": _cmd_relayout,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
