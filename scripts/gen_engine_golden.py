#!/usr/bin/env python
"""Regenerate the engine golden files from the current executor.

The golden file pins the *observable contract* of the read path:
results (checksummed), simulated component seconds, and the raw I/O
accounting (seeks / bytes / opens) of a fixed query list over the four
golden store layouts, plus the cache hit/miss pattern of a warm second
pass (which pins LRU insertion order).  The staged engine of
``repro.core.engine`` must reproduce every number bit-for-bit with
``coalesce_gap=0``: the cold rows pin the reference cell of the
contract matrix's axis table (``tests/test_contract_matrix.py``), and
``tests/test_engine_equivalence.py`` the warm rows.

:func:`build_store` is the one store builder of the tests: the golden
captures, ``tests/conftest.py``'s store fixtures and the contract
matrix all write their stores with it.

``tests/data/engine_golden_ext.json`` is a second capture, taken at the
last commit of the per-(bin, byte group) engine, of what the first file
does not reach: mixed-level (``tol``) plans, the position filter, a
single-chunk store, a sparse field whose (bin, chunk) pairs are mostly
empty, and sticky block losses of each kind — with all four simulated
components and the degradation counters, or the structured error under
``allow_partial=False``.  The columnar engine reproduces it exactly.
Its ``batch/*`` rows were captured at the last commit that served a
``query_many`` batch one query at a time; the fused assemble step
reproduces them exactly.

Run from the repo root after an *intentional* contract change (name a
section to rewrite only that file):

    PYTHONPATH=src python scripts/gen_engine_golden.py [base|ext]
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core import (
    DegradedResultError,
    MLOCStore,
    MLOCWriter,
    Query,
    mloc_col,
    mloc_isa,
    mloc_iso,
)
from repro.datasets import gts_like
from repro.index.bitmap import Bitmap
from repro.pfs import SimulatedPFS
from repro.pfs.faults import FaultPlan, FaultyPFS

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "engine_golden.json"
EXT_OUT = OUT.with_name("engine_golden_ext.json")

#: The four layouts the golden file pins; ``tests/conftest.py``'s store
#: fixtures and the contract matrix build theirs with :func:`build_store`.
STORE_KINDS = ("col", "vsm", "iso", "isa")
CACHE_BYTES = 256 * 1024


@functools.cache
def gts_field() -> np.ndarray:
    """The golden stores' field: 256x256 GTS-like, seed 7 (read-only)."""
    field = gts_like((256, 256), seed=7)
    field.flags.writeable = False
    return field


def store_config(kind: str, chunk_shape=(32, 32), **overrides):
    """The layout of a ``kind`` store; ``overrides`` go to its maker."""
    maker = {"col": mloc_col, "vsm": mloc_col, "iso": mloc_iso, "isa": mloc_isa}[kind]
    if kind == "vsm":
        overrides.setdefault("level_order", "VSM")
    sizes = {"chunk_shape": chunk_shape, "n_bins": 16, "target_block_bytes": 8 * 1024}
    return maker(**{**sizes, **overrides})


def build_store(kind: str, data=None, chunk_shape=(32, 32), **overrides):
    """``(fs, store)``: ``data`` (default: the 256x256 GTS-like field)
    written as a ``kind`` store on a fresh file system and opened with
    four ranks."""
    fs = SimulatedPFS()
    config = store_config(kind, chunk_shape, **overrides)
    MLOCWriter(fs, "/store", config).write(
        gts_field() if data is None else data, variable="field"
    )
    return fs, MLOCStore.open(fs, "/store", "field", n_ranks=4)


def queries_for(store) -> list[Query]:
    edges = store.meta.edges
    shape = store.shape
    box = tuple((d // 4, 3 * d // 4) for d in shape)
    queries = [
        Query(value_range=(float(edges[2]), float(edges[9])), output="positions"),
        Query(value_range=(float(edges[5]), float(edges[12])), output="values"),
        Query(region=box, output="positions"),
        Query(region=box, output="values"),
    ]
    if store.meta.config.plod_enabled:
        queries.append(Query(region=box, output="values", plod_level=3))
        queries.append(
            Query(
                value_range=(float(edges[1]), float(edges[7])),
                output="values",
                plod_level=5,
            )
        )
    return queries


def sha(arr) -> str | None:
    if arr is None:
        return None
    return hashlib.sha256(arr.tobytes()).hexdigest()


def capture(kind: str) -> dict:
    fs, store = build_store(kind)
    cold = []
    for query in queries_for(store):
        fs.clear_cache()
        r = store.query(query)
        cold.append(
            {
                "positions_sha": sha(r.positions),
                "values_sha": sha(r.values),
                "io": r.times.io,
                "decompression": r.times.decompression,
                "communication": r.times.communication,
                "seeks": r.stats["seeks"],
                "bytes_read": r.stats["bytes_read"],
                "files_opened": r.stats["files_opened"],
                "blocks_planned": r.stats["blocks_planned"],
                "blocks_decoded": r.stats["blocks_decoded"],
                "n_results": r.stats["n_results"],
            }
        )
    # Warm pass against a small LRU: pins cache insertion/eviction order
    # (and therefore every later query's hit pattern) across refactors.
    fs2, base = build_store(kind)
    cached = MLOCStore(fs2, base.root, base.meta, n_ranks=4, cache_bytes=CACHE_BYTES)
    warm = []
    for round_idx in range(2):
        for query in queries_for(base):
            fs2.clear_cache()
            r = cached.query(query)
            warm.append(
                {
                    "round": round_idx,
                    "positions_sha": sha(r.positions),
                    "cache_hits": r.stats["cache_hits"],
                    "cache_misses": r.stats["cache_misses"],
                    "cache_hit_raw_bytes": r.stats["cache_hit_raw_bytes"],
                    "bytes_read": r.stats["bytes_read"],
                    "seeks": r.stats["seeks"],
                    "io": r.times.io,
                }
            )
    return {"cold": cold, "warm": warm}


# ----------------------------------------------------------------------
# Extended capture (engine_golden_ext.json)
# ----------------------------------------------------------------------
_EXT_STATS = (
    "seeks",
    "bytes_read",
    "files_opened",
    "blocks_decoded",
    "cache_hits",
    "degraded_points",
    "dropped_points",
    "partial_chunks",
    "quarantined_blocks",
)
_ERROR_FIELDS = ("kind", "path", "offset", "bin_id", "chunk_ids")
#: Sticky-rot probability of the fault cases: a handful of the ~130
#: data / ~70 index blocks of a conftest store.
STICKY_RATE = 0.04


def ext_row(r) -> dict:
    """Everything the extended golden pins about one result."""
    row = {"positions_sha": sha(r.positions), "values_sha": sha(r.values)}
    for name in ("io", "decompression", "reconstruction", "communication"):
        row[name] = getattr(r.times, name)
    for key in _EXT_STATS:
        row[key] = r.stats[key]
    row["degraded_chunk_levels"] = sorted(
        [int(c), int(lvl)] for c, lvl in r.stats["degraded_chunk_levels"].items()
    )
    return row


def _run(fs, store, queries) -> list[dict]:
    rows = []
    for query in queries:
        fs.clear_cache()
        rows.append(ext_row(store.query(query)))
    return rows


def _box(store):
    return tuple((d // 4, 3 * d // 4) for d in store.shape)


def _vc(store, lo: int, hi: int) -> tuple[float, float]:
    edges = store.meta.edges
    return float(edges[lo]), float(edges[hi])


#: On the conftest field this bound sends 41 chunks to level 2 and 23 to
#: level 3 — ``1e-6`` and ``1e-3`` resolve to one level for all of them.
MIXED_TOL = {"tol": 4.5e-5, "tol_metric": "mean_rel"}


def capture_tol(kind: str) -> dict:
    """Error-bounded plans (uniform and truly mixed per-chunk levels)
    on a box and a range: cold on a plain handle, then two rounds
    against a small LRU."""
    fs, store = build_store(kind)
    bounds = ({"tol": 1e-6}, {"tol": 1e-3}, MIXED_TOL)
    queries = [Query(region=_box(store), output="values", **b) for b in bounds] + [
        Query(value_range=_vc(store, 5, 12), output="values", **b) for b in bounds
    ]
    cached = MLOCStore(fs, store.root, store.meta, n_ranks=4, cache_bytes=CACHE_BYTES)
    return {"cold": _run(fs, store, queries), "warm": _run(fs, cached, queries * 2)}


def capture_warm_positions(kind: str) -> list[dict]:
    """Position-only value queries (aligned bins skip their data file,
    unaligned ones read it) twice against an LRU small enough to evict:
    the hit pattern pins how index and data blocks interleave in the
    cache's insertion order."""
    fs, store = build_store(kind)
    box = _box(store)
    off_edges = (_vc(store, 3, 4)[1] * 0.999, _vc(store, 10, 11)[0])
    queries = [
        Query(value_range=_vc(store, 2, 9), output="positions"),
        Query(value_range=off_edges, output="positions"),
        Query(value_range=_vc(store, 4, 12), region=box, output="positions"),
        Query(region=box, output="positions"),
    ]
    cached = MLOCStore(fs, store.root, store.meta, n_ranks=4, cache_bytes=CACHE_BYTES // 4)
    return _run(fs, cached, queries * 2)


def capture_filter(kind: str) -> list[dict]:
    """``fetch_positions`` masked by the bitmap of a ~5 % value query."""
    fs, store = build_store(kind)
    data = gts_field()
    lo, hi = np.quantile(data, [0.60, 0.65])
    hits = store.query(Query(value_range=(float(lo), float(hi)), output="positions"))
    bitmap = Bitmap.from_positions(hits.positions, store.n_elements)
    rows = []
    for kwargs in ({}, {"region": _box(store)}, {"plod_level": 3}):
        fs.clear_cache()
        rows.append(ext_row(store.fetch_positions(bitmap, **kwargs)))
    return rows


def capture_single_chunk(kind: str) -> list[dict]:
    """``shape == chunk_shape``: one chunk, adjacent byte groups
    contiguous inside one block."""
    fs, store = build_store(kind, gts_like((32, 32), seed=7))
    queries = [
        Query(output="values"),
        Query(region=((4, 20), (8, 30)), output="values"),
        Query(value_range=_vc(store, 3, 11), output="positions"),
    ]
    if store.meta.config.plod_enabled:
        queries.append(Query(output="values", plod_level=3))
        queries.append(Query(region=((4, 20), (8, 30)), output="values", tol=1e-3))
    return _run(fs, store, queries)


def sparse_field() -> np.ndarray:
    """Every 32x32 chunk sits on its own plateau, so a bin holds the
    elements of about four of the 64 chunks and no others."""
    plateaus = (np.arange(64) * 37 % 64).reshape(8, 8).astype(np.float64)
    return np.kron(plateaus, np.ones((32, 32))) + 0.01 * gts_field()


def capture_sparse(kind: str) -> list[dict]:
    fs, store = build_store(kind, sparse_field())
    queries = [
        Query(region=_box(store), output="values"),
        Query(region=_box(store), output="positions"),
        Query(value_range=_vc(store, 5, 12), output="values"),
        Query(value_range=_vc(store, 2, 9), output="positions"),
    ]
    if store.meta.config.plod_enabled:
        queries.append(Query(region=_box(store), output="values", plod_level=3))
        # Levels {1, 2} and {2, 3} over the plateaus.
        queries.append(Query(region=_box(store), output="values", tol=1e-3))
        queries.append(Query(value_range=_vc(store, 2, 9), output="values", tol=1e-4))
    return _run(fs, store, queries)


def _rotten_blocks(store, plan: FaultPlan) -> list[tuple[str, bool]]:
    """(subfile kind, holds a base/whole-value cell) per rotten block."""
    meta, config = store.meta, store.meta.config
    rotten = []
    for bin_id in range(config.n_bins):
        path = store.files.index_path(bin_id)
        for _, _, offset, length, _ in meta.index_blocks.of_bin(bin_id).tolist():
            if plan.is_sticky(path, offset, length):
                rotten.append(("index", False))
        path = store.files.data_path(bin_id)
        for first, end, offset, length, _, _ in meta.data_blocks.of_bin(bin_id).tolist():
            if plan.is_sticky(path, offset, length):
                cells = np.arange(first, end)
                if not config.plod_enabled:
                    groups = np.zeros_like(cells)
                elif config.group_major:
                    groups = cells // meta.n_chunks
                else:
                    groups = cells % config.n_groups
                rotten.append(("data", bool((groups == 0).any())))
    return rotten


def fault_plan(store, loss: str) -> FaultPlan:
    """First seeded sticky plan whose rot is exactly of kind ``loss``:
    ``"refinement"`` (data blocks without a base-plane cell), ``"base"``
    (at least one block holding base-plane / whole-value cells) or
    ``"index"``.  Decided from the block tables alone."""
    suffix = ".index" if loss == "index" else ".data"
    for seed in range(1000):
        plan = FaultPlan(
            seed=seed, sticky_corruption_rate=STICKY_RATE, fault_suffixes=(suffix,)
        )
        rotten = _rotten_blocks(store, plan)
        if len(rotten) < 2:
            continue
        holds_base = any(base for _, base in rotten)
        if loss == "index" or holds_base == (loss == "base"):
            return plan
    raise RuntimeError(f"no sticky plan found for {loss!r}")


def capture_faults(kind: str, loss: str) -> dict:
    """One sticky plan, every query on one handle (the quarantine
    persists): degraded answers under ``allow_partial=True``, the
    structured error — or ``None`` where the query survives — without."""
    fs, base = build_store(kind)
    plan = fault_plan(base, loss)
    queries = queries_for(base)
    if base.meta.config.plod_enabled:
        queries.append(Query(region=_box(base), output="values", tol=1e-6))
        queries.append(Query(output="values", **MIXED_TOL))

    ffs = FaultyPFS(fs, plan)
    partial = MLOCStore.open(ffs, "/store", "field", n_ranks=4, allow_partial=True)
    rows = _run(ffs, partial, queries)

    ffs = FaultyPFS(fs, plan)
    strict = MLOCStore.open(ffs, "/store", "field", n_ranks=4)
    errors = []
    for query in queries:
        ffs.clear_cache()
        try:
            strict.query(query)
            errors.append(None)
        except DegradedResultError as err:
            fields = {name: getattr(err, name) for name in _ERROR_FIELDS}
            fields["chunk_ids"] = list(fields["chunk_ids"])
            errors.append(fields)
    return {"seed": plan.seed, "partial": rows, "strict_errors": errors}


def capture_batch(kind: str) -> dict:
    """``query_many`` over overlapping boxes (with a duplicate, a
    shallower PLoD level and a positions-only value query in the mix):
    cold on a plain handle, then two rounds against a small LRU.  Rows
    are per query, so which query of the batch pays each block — and
    what the batch leaves in the LRU for the next round — is pinned."""
    fs, store = build_store(kind)
    boxes = [((0, 160), (0, 160)), ((32, 192), (0, 160)), ((0, 160), (32, 192))]
    queries = [Query(region=box, output="values") for box in boxes] + [
        Query(region=boxes[0], output="values"),
        Query(region=boxes[1], output="values", plod_level=3),
        Query(value_range=_vc(store, 4, 12), region=boxes[2], output="positions"),
    ]

    def run(handle) -> list[dict]:
        fs.clear_cache()
        rows = []
        for r in handle.query_many(queries):
            row = ext_row(r)
            row.update({k: r.stats[k] for k in ("cache_misses", "dedup_blocks")})
            rows.append(row)
        return rows

    cached = MLOCStore(fs, store.root, store.meta, n_ranks=4, cache_bytes=CACHE_BYTES)
    return {"cold": run(store), "warm": [run(cached) for _ in range(2)]}


#: name -> zero-argument capture; one parametrised test case each.
EXT_CASES = {
    **{f"batch/{k}": (lambda k=k: capture_batch(k)) for k in ("col", "vsm")},
    **{f"tol/{k}": (lambda k=k: capture_tol(k)) for k in ("col", "vsm")},
    **{
        f"warm-positions/{k}": (lambda k=k: capture_warm_positions(k))
        for k in ("col", "iso")
    },
    **{f"filter/{k}": (lambda k=k: capture_filter(k)) for k in ("col", "vsm", "iso")},
    **{
        f"single-chunk/{k}": (lambda k=k: capture_single_chunk(k))
        for k in ("col", "vsm", "iso")
    },
    **{f"sparse/{k}": (lambda k=k: capture_sparse(k)) for k in ("col", "vsm", "iso")},
    **{
        f"faults/{k}/{loss}": (lambda k=k, loss=loss: capture_faults(k, loss))
        for k, losses in (
            ("col", ("refinement", "base", "index")),
            # V-S-M blocks mix a chunk's planes: one loss is fatal for
            # some chunks and a level cap for the one it cuts through.
            ("vsm", ("base",)),
            ("iso", ("base", "index")),
        )
        for loss in losses
    },
}


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main(sections: list[str]) -> None:
    if not sections or "base" in sections:
        _write(
            OUT,
            {
                "cache_bytes": CACHE_BYTES,
                "stores": {kind: capture(kind) for kind in STORE_KINDS},
            },
        )
    if not sections or "ext" in sections:
        _write(EXT_OUT, {name: run() for name, run in EXT_CASES.items()})


if __name__ == "__main__":
    main(sys.argv[1:])
