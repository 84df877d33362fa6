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
    python -m repro.cli index stats out.pfs --root /demo --variable potential

Every command prints human-readable text and exits non-zero on failure
(or when fsck finds issues).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import typing

import numpy as np

from repro.core import (
    ExecutionConfig,
    MLOCStore,
    MLOCWriter,
    Query,
    mloc_col,
)
from repro.core.aggregate import AGGREGATE_OPS, aggregate_query
from repro.core.meta import StoreMeta
from repro.core.result import FAULT_STAT_KEYS
from repro.pfs import SimulatedPFS
from repro.plod.bounds import TOL_METRICS
from repro.tools.fsck import check_dataset, check_store
from repro.tools.relayout import relayout
from repro.util.record import FormatError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Inspect and query MLOC datasets in simulated-PFS snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        sub_parser = sub.add_parser(name, help=help)
        sub_parser.set_defaults(run=run)
        return sub_parser

    demo = command("demo", _cmd_demo, "build a small demo dataset snapshot")
    demo.add_argument("snapshot", help="output .pfs snapshot path")
    demo.add_argument("--size", type=int, default=512, help="square field size")
    demo.add_argument("--bins", type=int, default=32, help="value bins")
    demo.add_argument("--seed", type=int, default=7)
    _add_write_options(demo)

    info = command("info", _cmd_info, "list datasets in a snapshot")
    info.add_argument("snapshot")

    fsck = command("fsck", _cmd_fsck, "check a store's integrity")
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
        help="check the whole dataset under --root against its manifests: "
        "generation chain, sealed-member CRCs, per-member hbi/peb "
        "records, and orphaned member directories",
    )
    fsck.add_argument(
        "--deep",
        action="store_true",
        help="with --dataset: also run the full per-member store check",
    )

    query = command("query", _cmd_query, "run one query against a store")
    _add_store_args(query)
    _add_query_args(
        query,
        "max acceptable relative error; reads the minimal PLoD "
        "level per chunk whose recorded bound meets it (0 = exact)",
    )
    query.add_argument("--output", choices=["positions", "values"], default="values")
    query.add_argument("--plod", type=int, default=7, help="PLoD level 1..7")
    _add_read_options(query)
    query.add_argument(
        "--aggregate",
        choices=list(AGGREGATE_OPS),
        default=None,
        help="reduce instead of returning points",
    )
    query.add_argument("--limit", type=int, default=5, help="result rows to print")

    batch = command(
        "batch", _cmd_batch, "run a batch of queries as one pipeline (query_many)"
    )
    _add_store_args(batch)
    _add_spec_arg(
        batch,
        "one query as ';'-separated key=value pairs "
        "(vmin, vmax, region, output, plod), e.g. "
        "'vmin=4.0;region=100:200,0:128;output=values;plod=2'; repeatable",
        required=True,
    )
    _add_read_options(batch)

    refine = command(
        "refine",
        _cmd_refine,
        "run one query progressively through increasing PLoD levels",
    )
    _add_store_args(refine)
    _add_query_args(
        refine,
        "auto-refine until every chunk's recorded bound meets this "
        "relative error (replaces --levels: the ladder is derived "
        "from the per-chunk bounds)",
    )
    refine.add_argument(
        "--levels",
        default="2,4,7",
        help="comma-separated ascending PLoD levels, e.g. 2,4,7",
    )
    _add_read_options(refine)

    stats = command(
        "stats", _cmd_stats, "print a store handle's open-state counters"
    )
    _add_store_args(stats)
    _add_spec_arg(
        stats,
        "optional queries (same syntax as 'batch') to run first, so "
        "the counters describe a warmed handle; repeatable",
        required=False,
    )
    _add_read_options(stats)

    serve = command(
        "serve-replay",
        _cmd_serve_replay,
        "replay a synthetic multi-tenant trace through the query "
        "broker and report latency/dedup",
    )
    _add_store_args(serve)
    serve.add_argument("--mode", choices=["open", "closed"], default="open")
    for flag, kind, default, flag_help in _SERVE_FLAGS:
        serve.add_argument(flag, type=kind, default=default, help=flag_help)
    _add_read_options(serve)

    index = command(
        "index", _cmd_index, "inspect a store's hierarchical count index"
    )
    index.add_argument(
        "action",
        choices=["stats"],
        help=(
            "'stats' prints the persisted hbi record's tree shape and "
            "its size versus the flat position index"
        ),
    )
    _add_store_args(index)

    relayout_p = command(
        "relayout", _cmd_relayout, "migrate a store to a different level order"
    )
    _add_store_args(relayout_p)
    relayout_p.add_argument("--target-root", required=True)
    relayout_p.add_argument(
        "--order", choices=["VMS", "VSM", "VS"], default="VSM"
    )
    relayout_p.add_argument("--bins", type=int, default=None)
    _add_write_options(relayout_p)
    return parser


#: ``serve-replay``'s numeric flags: (flag, type, default, help).
_SERVE_FLAGS = (
    ("--tenants", int, 8, None),
    ("--queries", int, 4, "queries per tenant"),
    ("--rate", float, 50.0, "open-loop arrival rate per tenant (queries/simulated s)"),
    (
        "--think-time", float, 0.0,
        "closed-loop think time between a completion and the next submit",
    ),
    ("--selectivity", float, 0.05, "volume fraction of each tenant's drifting region queries"),
    ("--seed", int, 0, None),
    ("--max-inflight", int, 8, "queries served per round"),
    (
        "--quantum-kb", float, 4096.0,
        "deficit-round-robin quantum in KiB of estimated raw bytes",
    ),
    (
        "--max-pending-mb", float, 0.0,
        "admission ceiling on queued estimated raw MiB (0 = unbounded)",
    ),
)


def _add_store_args(sub_parser) -> None:
    sub_parser.add_argument("snapshot")
    sub_parser.add_argument("--root", required=True)
    sub_parser.add_argument("--variable", required=True)


def _add_spec_arg(sub_parser, spec_help: str, *, required: bool) -> None:
    sub_parser.add_argument(
        "--spec",
        action="append",
        default=[],
        required=required,
        metavar="SPEC",
        help=spec_help,
    )


def _add_query_args(sub_parser, tol_help: str) -> None:
    """The flags :func:`_query_from_flags` reads."""
    sub_parser.add_argument("--vmin", type=float, default=None)
    sub_parser.add_argument("--vmax", type=float, default=None)
    sub_parser.add_argument(
        "--region",
        default=None,
        help="per-axis lo:hi bounds, comma separated, e.g. 0:128,64:256",
    )
    sub_parser.add_argument("--tol", type=float, default=None, help=tol_help)
    sub_parser.add_argument(
        "--tol-metric",
        choices=list(TOL_METRICS),
        default="max_rel",
        help="which recorded per-chunk bound --tol is measured against",
    )


#: One help line per ``ExecutionConfig`` field; a flag's type, default
#: and choices are the field's own.
_EXECUTION_HELP = {
    "backend": "decode-phase backend (identical simulated seconds)",
    "workers": "pool width for --backend threads/processes (default: CPU count)",
    "cache_bytes": "decoded-block LRU budget in MiB (0 = cold, the paper's discipline)",
    "plan_cache": "query-plan LRU capacity in plans (0 = plan every query)",
    "max_read_retries": "retries per failed block read before quarantine",
    "read_backoff": "base retry backoff in simulated seconds (doubles per retry)",
    "allow_partial": (
        "degrade instead of failing when a block is unrecoverable: "
        "drop affected points and report their chunks"
    ),
    "coalesce_gap": (
        "max byte gap for merging adjacent block reads into one "
        "vectored read (0 = off, one seek per block)"
    ),
}
#: The flags not spelled ``--field-name``.
_EXECUTION_FLAGS = {"workers": ("--threads", "--workers"), "cache_bytes": ("--cache-mb",)}


def execution_flags(name: str) -> tuple[str, ...]:
    """The flag(s) that set ``ExecutionConfig`` field ``name``."""
    return _EXECUTION_FLAGS.get(name, ("--" + name.replace("_", "-"),))


def _mib(text: str) -> int:
    return int(float(text) * (1 << 20))


def _add_execution_options(sub_parser) -> None:
    """One flag per ``ExecutionConfig`` field."""
    hints = typing.get_type_hints(ExecutionConfig)
    for spec in dataclasses.fields(ExecutionConfig):
        options = {
            "dest": spec.name,
            "default": spec.default,
            "help": _EXECUTION_HELP[spec.name],
        }
        hint = hints[spec.name]
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        if kind is bool:
            options["action"] = "store_true"
        else:
            options["type"] = _mib if spec.name == "cache_bytes" else kind
            options["choices"] = spec.metadata.get("choices")
        sub_parser.add_argument(*execution_flags(spec.name), **options)


def _add_write_options(sub_parser) -> None:
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


def _add_read_options(sub_parser) -> None:
    sub_parser.add_argument("--ranks", type=int, default=8)
    _add_execution_options(sub_parser)
    sub_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "open the store as this many bin-range shards "
            "(scatter/gather; identical results, per-shard parallelism)"
        ),
    )


def _execution(args) -> ExecutionConfig:
    """The :class:`ExecutionConfig` the execution flags of ``args`` give."""
    return ExecutionConfig(
        **{spec.name: getattr(args, spec.name) for spec in dataclasses.fields(ExecutionConfig)}
    )


def _load_snapshot(path: str) -> SimulatedPFS:
    """The snapshot at ``path``; one this version cannot read ends the command."""
    try:
        return SimulatedPFS.load(path)
    except FormatError as exc:
        raise SystemExit(f"error: {exc}; rebuild the snapshot with `demo`") from None


def _open_store(fs, args) -> MLOCStore:
    """The handle the read flags describe; a subcommand without them
    (``index``, ``relayout``) gets the default one."""
    options = {}
    if hasattr(args, "ranks"):
        if args.shards <= 0:
            raise SystemExit(f"error: --shards must be positive, got {args.shards}")
        options = {"n_ranks": args.ranks, "n_shards": args.shards, "execution": _execution(args)}
    try:
        return MLOCStore.open(fs, args.root, args.variable, **options)
    except FileNotFoundError:
        raise ValueError(
            f"no store at {args.root.rstrip('/')}/{args.variable}"
        ) from None


def _store_command(run):
    """The path ``query|batch|refine|stats|serve-replay|index|relayout``
    share: load the snapshot, open the store the flags describe, run
    ``run(args, store)``, report a refused request as one line."""

    def command(args) -> int:
        try:
            return run(args, _open_store(_load_snapshot(args.snapshot), args))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2

    return command


def _shard_shares(bounds, weights) -> str:
    total = float(sum(weights)) or 1.0
    return (
        f"bin bounds {[int(b) for b in bounds]}, stored-byte shares "
        + ", ".join(f"{w / total:.0%}" for w in weights)
    )


def _print_shard_balance(fs, root: str, variable: str, n_shards: int) -> None:
    """Report how a sharded open would split the just-written bins."""
    if n_shards <= 1:
        return
    sharded = MLOCStore.open(fs, root, variable, n_shards=n_shards)
    print(
        f"shard balance ({n_shards} shards): "
        + _shard_shares(sharded.shard_bounds, sharded.shard_weights())
    )


def _parse_region(text: str | None):
    if text is None:
        return None
    region = []
    for axis in text.split(","):
        lo, hi = axis.split(":")
        region.append((int(lo), int(hi)))
    return tuple(region)


def _make_query(vmin, vmax, region: str | None, **fields) -> Query:
    """The one place CLI text — flags or a ``--spec`` — becomes a
    :class:`Query`; ``fields`` are its remaining keywords."""
    value_range = None
    if vmin is not None or vmax is not None:
        value_range = (
            -np.inf if vmin is None else float(vmin),
            np.inf if vmax is None else float(vmax),
        )
    return Query(value_range=value_range, region=_parse_region(region), **fields)


def _query_from_flags(args, **fields) -> Query:
    return _make_query(
        args.vmin, args.vmax, args.region, tol=args.tol, tol_metric=args.tol_metric, **fields
    )


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
    return _make_query(
        fields.get("vmin"),
        fields.get("vmax"),
        fields.get("region"),
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
    writer = MLOCWriter(fs, "/demo", config)
    report = writer.write(field, variable="potential")
    fs.save(args.snapshot)
    print(
        f"wrote /demo/potential: {args.size}x{args.size} field, "
        f"{report.total_ratio:.0%} of raw, snapshot -> {args.snapshot}"
    )
    _print_shard_balance(fs, "/demo", "potential", args.shards)
    return 0


def _cmd_info(args) -> int:
    fs = _load_snapshot(args.snapshot)
    metas = [p for p in fs.list_files() if p.endswith("/meta")]
    if not metas:
        print("no MLOC stores in snapshot")
        return 1
    print(f"{'store':40s} {'shape':>16s} {'order':>6s} {'bins':>5s} {'bytes':>12s}")
    raw = 0
    for meta_path in metas:
        var_root = meta_path[: -len("/meta")]
        meta = StoreMeta.load(fs, var_root)
        total = fs.total_bytes(var_root + "/")
        raw += 8 * math.prod(meta.shape)  # float64 values
        print(
            f"{var_root:40s} {str(meta.shape):>16s} "
            f"{meta.config.level_order:>6s} {meta.config.n_bins:>5d} {total:>12d}"
        )
    # Stored bytes per record kind, as a fraction of the raw float64 arrays.
    kinds = dict.fromkeys(_RECORD_KINDS, 0)
    for path in fs.list_files():
        kinds[_record_kind(path.rsplit("/", 1)[-1])] += fs.size(path)
    print(f"\n{'record':12s} {'bytes':>12s} {'of raw':>8s}")
    for kind, size in kinds.items():
        if size or kind != "other":
            print(f"{kind:12s} {size:>12d} {size / raw:>8.2%}")
    stored = sum(kinds.values())
    print(f"{'stored':12s} {stored:>12d} {stored / raw:>8.2%}")
    return 0


_RECORD_KINDS = ("bin*.data", "bin*.index", "meta", "hbi", "peb", "manifest.g*", "other")


def _record_kind(name: str) -> str:
    """The :data:`_RECORD_KINDS` entry of a file's base name."""
    if name.startswith("bin") and name.endswith((".data", ".index")):
        return "bin*" + name[name.rindex(".") :]
    if name.startswith("manifest.g"):
        return "manifest.g*"
    return name if name in ("meta", "hbi", "peb") else "other"


def _cmd_fsck(args) -> int:
    fs = _load_snapshot(args.snapshot)
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


@_store_command
def _cmd_query(args, store) -> int:
    query = _query_from_flags(args, output=args.output, plod_level=args.plod)
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


def _cache_counters(cache: dict) -> str:
    return (
        f"{cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['evictions']} evictions, "
        f"{cache['current_bytes']}/{cache['capacity_bytes']} bytes"
    )


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


@_store_command
def _cmd_batch(args, store) -> int:
    batch = store.query_many([_parse_query_spec(spec) for spec in args.spec])
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
        print(f"cache: {_cache_counters(batch.stats['cache'])}")
    _print_fault_stats(batch.stats)
    return 0


def _print_refine_step(label: str, result) -> None:
    print(
        f"{label}: {result.n_results} results; "
        f"response {result.times.total:.4f} s simulated; "
        f"{result.stats['bytes_read']} bytes read, "
        f"{result.stats['bytes_reused']} raw bytes reused"
    )


@_store_command
def _cmd_refine(args, store) -> int:
    try:
        levels = [int(level) for level in args.levels.split(",") if level.strip()]
    except ValueError:
        raise ValueError(f"bad --levels {args.levels!r} (expected e.g. 2,4,7)") from None
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"--levels must be strictly ascending, got {args.levels!r}")
    # With --tol the session derives its own ladder from the per-chunk
    # bounds; --levels only drives the tol-less path.
    query = _query_from_flags(
        args, output="values", plod_level=7 if args.tol is not None else levels[0]
    )
    with store.open_session(query) as session:
        if args.tol is not None:
            for result in session.progressive_results():
                _print_refine_step(f"step at level {session.level}", result)
                _print_tol_stats(result.stats)
                _print_fault_stats(result.stats)
        else:
            for level in levels[1:]:
                session.refine(level)
            for level, result in zip(levels, session.results):
                _print_refine_step(f"level {level}", result)
                _print_fault_stats(result.stats)
        print(
            f"session: {session.refine_steps} refine step(s), "
            f"{session.bytes_reused} raw bytes reused, "
            f"{session.coalesced_reads} coalesced read(s)"
        )
    return 0


@_store_command
def _cmd_stats(args, store) -> int:
    for query in [_parse_query_spec(spec) for spec in args.spec]:
        store.query(query)
    snapshot = store.runtime_stats()
    if store.n_shards > 1:
        print(
            f"shards: {snapshot['n_shards']}, "
            + _shard_shares(snapshot["shard_bounds"], snapshot["shard_weights"])
        )
    print(
        f"executor: {snapshot['n_ranks']} ranks, {snapshot['backend']} backend, "
        f"coalesce_gap={snapshot['coalesce_gap']}"
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
            f"block cache: {_cache_counters(bc)}, "
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


@_store_command
def _cmd_serve_replay(args, store) -> int:
    from repro.harness.workloads import WorkloadGenerator
    from repro.server import BrokerConfig, BrokerCore, ClosedLoop, OpenLoop, replay

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
    if args.mode == "open":
        source = OpenLoop(tenant_queries, rate=args.rate, seed=args.seed)
    else:
        source = ClosedLoop(tenant_queries, think_time=args.think_time)
    summary = replay(BrokerCore(store, config), source).as_dict()
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


@_store_command
def _cmd_index(args, store) -> int:
    from repro.index import hbi_path

    fs = store.fs
    path = hbi_path(store.root)
    hbi_bytes = fs.size(path)
    s = store.hbi.stats()
    print(f"hierarchical index {path} (persisted): {hbi_bytes} bytes")
    print(
        f"tree: {s['n_bins']} bins x {s['n_runs']} chunk-runs of "
        f"{s['leaf_span']} chunks, {s['n_levels']} levels (fanout "
        f"{s['fanout']}), {s['interior_nodes']} interior nodes"
    )
    flat_bytes = sum(
        fs.size(store.files.index_path(b)) for b in range(s["n_bins"])
    )
    print(
        f"vs flat MLOC bin index: {flat_bytes} bytes "
        f"(hierarchical = {hbi_bytes / flat_bytes:.0%})"
    )
    return 0


@_store_command
def _cmd_relayout(args, source) -> int:
    fs = source.fs
    new_config = dataclasses.replace(
        source.meta.config,
        level_order=args.order,
        codec="zlib-bytes" if "M" in args.order else source.meta.config.codec,
        n_bins=args.bins if args.bins is not None else source.meta.config.n_bins,
    )
    if "M" in args.order and source.meta.config.level_order == "VS":
        print("note: switching a whole-value store to a PLoD order uses zlib-bytes")
    report = relayout(fs, args.root, args.variable, args.target_root, new_config)
    fs.save(args.snapshot)
    print(
        f"migrated {args.root}/{args.variable} ({report.source_order}) -> "
        f"{args.target_root}/{args.variable} ({report.target_order}); "
        f"stored at {report.write_report.total_ratio:.0%} of raw"
        + (" [approximate: lossy source]" if report.approximate else "")
    )
    _print_shard_balance(fs, args.target_root, args.variable, args.shards)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
