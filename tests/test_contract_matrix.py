"""One contract matrix: every way of serving a read answers like its
reference cell (DESIGN.md §6).

A *cell* is one row of :data:`AXES` served over one store of
:data:`KINDS`.  Serving a cell yields one observation per request —
the positions and values (by digest), the whole ``stats`` dict and all
four simulated ``times`` components — plus what the handle's LRU holds
at the end and, by door, what its shared fetcher still holds, the
observations of a second round, or the batch aggregate.  A cell must
equal its row's reference cell on every field, except the fields the
row lists under ``differs``: a listed direction (``LOWER``/``HIGHER``)
is still enforced, ``ANY`` is free, and a listed plain value is the
value the field must take.

The ``reference`` row — serial, one shard, four ranks, opened
directly, plain ``query``, no caches — is checked against the cold
rows of ``tests/data/engine_golden.json`` instead.  Every other row
varies one axis from its reference, or crosses axes where a crossing is
a contract of its own.  A new row or store kind is covered on every
cell it applies to without editing a test.

Observations are memoised per cell, so each cell is served once per
session, whichever test asks for it first.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import pytest

from repro.core import MLOCDataset, MLOCStore, Query, assemble
from repro.datasets import gts_like, s3d_like
from repro.index.bitmap import Bitmap
from repro.pfs import SimulatedPFS
from repro.pfs.faults import FaultyPFS
from repro.server import BrokerConfig, BrokerCore
from scripts.gen_engine_golden import build_store, gts_field, queries_for, store_config

LOWER, HIGHER, ANY = "lower", "higher", "any"


@dataclass(frozen=True)
class Row:
    """One axis value (or crossing) and the contract it keeps.

    ``opens`` are store keywords, plus ``door`` (how requests are
    served, below), ``fs="faulty"`` (a zero-rate :class:`FaultyPFS`),
    ``opened="member"`` (a sealed snapshot member) and ``passes``
    (serve every request that many times on one handle; observe the
    last pass).  The doors: ``query`` one by one on a cold file system;
    ``singles`` one by one through one shared fetcher, then ``batch``
    the same as one ``stage``/``assemble`` batch — each in two rounds,
    the second a reversed prefix of the first that meets a warm LRU;
    ``many`` the plain requests as one ``query_many``; ``ladder`` and
    ``session`` a PLoD ladder as fresh queries or as one refinement
    session; ``broker`` one ``BrokerCore`` round.

    ``ref`` names the reference row; ``kinds`` names the stores it runs
    on (default: the byte-column golden store); ``fewer`` names
    stats whose total over the cell must be strictly below the
    reference cell's."""

    name: str
    opens: dict = field(default_factory=dict)
    ref: str | None = "reference"
    differs: dict = field(default_factory=dict)
    kinds: tuple[str, ...] = ("col",)
    marks: tuple = ()
    fewer: tuple[str, ...] = ()


GOLDEN_KINDS = ("col", "vsm", "iso", "isa")
#: The curve changes chunk order, so what the index prunes (z-order
#: on the V-S-M level order).
CURVES = ("vsm-zorder", "col-rowmajor", "col-hierarchical")
#: What a shared fetcher or a warm LRU saves: work may only fall.
SAVED = {
    "bytes_read": LOWER, "seeks": LOWER, "files_opened": LOWER,
    "blocks_decoded": LOWER, "cache_misses": LOWER, "cache_hits": HIGHER,
    "cache_hit_raw_bytes": HIGHER, "dedup_blocks": HIGHER,
    "dedup_raw_bytes": HIGHER, "times.io": LOWER, "times.decompression": LOWER,
}
#: What the ``singles``/``batch`` and ``many`` doors observe beyond
#: their requests, and the ``query`` door does not.
ROUNDS = {"held": ANY, "round2": ANY}
MANY = {**SAVED, "batch": ANY}
#: Shards re-balance bins over their own ranks: the plan and every
#: answer byte stay, the read schedule and its seconds move.
SHARDED = {
    "n_shards": 3, "n_ranks": 12, "shards_hit": HIGHER, "seeks": ANY,
    "files_opened": ANY, "blocks_decoded": ANY, "cache_misses": ANY,
    "times.io": ANY, "times.decompression": ANY,
    "times.reconstruction": ANY, "times.communication": ANY,
}
#: The hierarchical index proves chunks empty: it may only lower the
#: planned work and the bytes read.
HBI = {
    "chunks_pruned": HIGHER, "chunks_accessed": LOWER, "blocks_planned": LOWER,
    "bytes_read": LOWER, "times.io": LOWER, "seeks": ANY, "blocks_decoded": ANY,
    "cache_misses": ANY, "times.decompression": ANY, "times.reconstruction": ANY,
}
#: Fewer ranks read more blocks each: fewer files, opens and decodes.
ONE_RANK = {
    "n_ranks": 1, "files_opened": LOWER, "seeks": LOWER, "blocks_decoded": LOWER,
    "cache_misses": LOWER, "times.io": ANY, "times.decompression": ANY,
    "times.reconstruction": ANY, "times.communication": ANY,
}
#: Round-robin deals blocks to ranks one by one: more ranks open each bin.
ROUND_ROBIN = {
    "files_opened": HIGHER, "blocks_decoded": HIGHER, "cache_misses": HIGHER,
    "seeks": ANY, "times.io": ANY, "times.decompression": ANY,
    "times.reconstruction": ANY,
}
#: Small stores, one per layout: a row over many stores, a crossing of
#: many rows or a spawned decode pool checks the same contract on less
#: data.
SMALL_KINDS = ("col-64", "vsm-64", "iso-64", "isa-64")
#: Sessions refine PLoD planes, which only column layouts have.
SESSION_KINDS = ("col-64", "vsm-64", "col-64-hierarchical", "vsm-64-hierarchical")
#: A session step reuses the planes its earlier steps fetched.
SESSION = {**SAVED, "refine_steps": ANY, "bytes_reused": ANY}
THREADS = {"backend": "threads", "workers": 4}
PROCS = {"backend": "processes", "workers": 2}
WARM = {"cache_bytes": 32 << 20, "passes": 2}
BATCH_CACHES = {"cache-off": 0, "cache-16KiB": 16 << 10, "cache-ample": 32 << 20}

AXES: tuple[Row, ...] = (
    Row("reference", ref=None, kinds=GOLDEN_KINDS),
    # backend
    Row("threads-4", THREADS, differs={"backend": "threads"}, kinds=("col", "iso")),
    *(
        Row(f"processes-{w}", {**PROCS, "workers": w}, differs={"backend": "processes"},
            kinds=("col-64", "iso-64", "isa-64") if w == 2 else ("col-64",))
        for w in (1, 2, 4, 8)
    ),
    # shards (one shard is the reference)
    Row("shards-3", {"n_shards": 3}, differs=SHARDED),
    *(
        Row(f"shards-{n}", {"n_shards": n}, differs={**SHARDED, "n_shards": n,
            "n_ranks": 4 * n}, kinds=("col", "iso") if n == 4 else ("col",))
        for n in (2, 4, 8)
    ),
    # ranks (four ranks is the reference)
    Row("ranks-1", {"n_ranks": 1}, differs=ONE_RANK),
    # scheduler (column order is the reference)
    Row("round-robin", {"scheduler": "round-robin"}, differs=ROUND_ROBIN),
    # use_hbi
    Row("hbi", {"use_hbi": True}, differs=HBI,
        kinds=("col", "iso", *CURVES),
        fewer=("chunks_accessed",)),
    # plan cache: a miss, then a hit
    Row("plan-miss", {"plan_cache": 16}, differs={"plan_cache_misses": 1},
        kinds=("col", "iso")),
    Row("plan-hit", {"plan_cache": 16, "passes": 2}, differs={"plan_cache_hits": 1},
        kinds=("col", "iso")),
    # block cache: cold, then warm
    Row("cache-cold", {"cache_bytes": 32 << 20}, differs={**SAVED, "lru": ANY}),
    Row("cache-warm", WARM, "cache-cold", differs={**SAVED, "lru": ANY},
        fewer=("bytes_read",)),
    # file system
    Row("faulty-pfs", {"fs": "faulty"}, kinds=SMALL_KINDS, marks=(pytest.mark.chaos,)),
    # opened: a snapshot member lives under other paths, so on other OSTs
    Row("member", {"opened": "member"}, differs={"times.io": ANY}),
    # door
    Row("singles", {"door": "singles"}, differs={**SAVED, **ROUNDS},
        kinds=("col", "iso", "col-3d"), fewer=("bytes_read",)),
    Row("batch", {"door": "batch"}, "singles", kinds=("col", "iso", "col-3d")),
    Row("many", {"door": "many"}, "singles", differs={"batch": ANY, **ROUNDS},
        kinds=("col", "iso", "col-3d")),
    Row("ladder", {"door": "ladder"}, ref=None, kinds=SESSION_KINDS),
    Row("session", {"door": "session"}, "ladder", differs=SESSION, kinds=SESSION_KINDS,
        fewer=("bytes_read",)),
    Row("broker", {"door": "broker"}, differs=SAVED, fewer=("bytes_read",)),
    # crossings
    Row("threads-4+cache-warm", {**THREADS, **WARM}, "cache-warm",
        differs={"backend": "threads"}, kinds=("col",)),
    Row("faulty-pfs+threads-4", {"fs": "faulty", **THREADS}, "faulty-pfs",
        differs={"backend": "threads"}, kinds=SMALL_KINDS, marks=(pytest.mark.chaos,)),
    Row("faulty-pfs+processes-2", {"fs": "faulty", **PROCS}, "faulty-pfs",
        differs={"backend": "processes"}, kinds=SMALL_KINDS, marks=(pytest.mark.chaos,)),
    Row("shards-3+processes-2", {"n_shards": 3, **PROCS}, "shards-3",
        differs={"backend": "processes"}, kinds=("col-64",)),
    Row("shards-3+cache-warm", {"n_shards": 3, **WARM}, "shards-3",
        differs={**SAVED, "lru": ANY}, kinds=("col",)),
    Row("hbi+threads-4", {"use_hbi": True, **THREADS}, "hbi",
        differs={"backend": "threads"}, kinds=("col", "iso")),
    Row("hbi+many", {"use_hbi": True, "door": "many"}, "hbi", differs=MANY,
        kinds=("col",)),
    Row("hbi+member", {"use_hbi": True, "opened": "member"}, "member", differs=HBI,
        kinds=("col",)),
    Row("session+threads-4", {"door": "session", **THREADS}, "session",
        differs={"backend": "threads"}, kinds=SESSION_KINDS),
    Row("ladder+shards-3", {"door": "ladder", "n_shards": 3}, "ladder",
        differs=SHARDED, kinds=SESSION_KINDS),
    Row("session+shards-3", {"door": "session", "n_shards": 3}, "ladder+shards-3",
        differs=SESSION, kinds=SESSION_KINDS),
    Row("broker+shards-3", {"door": "broker", "n_shards": 3}, "shards-3",
        differs=SAVED, kinds=("col",)),
    Row("many+shards-3", {"door": "many", "n_shards": 3}, "shards-3", differs=MANY,
        kinds=("col",)),
    Row("threads-4+batch", {**THREADS, "door": "batch"}, "batch",
        differs={"backend": "threads"}, kinds=("col-3d",)),
    Row("threads-4+many", {**THREADS, "door": "many"}, "many",
        differs={"backend": "threads"}, kinds=("col-3d",)),
    # batch x shards x block cache x ranks: a batch equals its singles
    # through one shared fetcher, fetcher and LRU contents included
    *(
        Row(f"{door}/{shards}-shards/{cache}/ranks-{ranks}",
            {"door": door, "n_shards": shards, "n_ranks": ranks,
             "cache_bytes": BATCH_CACHES[cache]},
            None if door == "singles" else f"singles/{shards}-shards/{cache}/ranks-{ranks}",
            kinds=SMALL_KINDS[:3])
        for door, shards, cache, ranks in product(
            ("singles", "batch"), (1, 3), BATCH_CACHES, (1, 3, 4)
        )
    ),
)
ROWS = {row.name: row for row in AXES}


# ----------------------------------------------------------------------
# Stores and requests
# ----------------------------------------------------------------------
FIELDS = {
    "gts": gts_field,
    "s3d": lambda: s3d_like((48, 48, 48), seed=8),
    "gts-64": lambda: gts_like((64, 64), seed=11),
}
SMALL = {"chunk_shape": (16, 16), "target_block_bytes": 2048}
#: kind -> (golden kind, field, build_store overrides).
KINDS = {
    "col": ("col", "gts", {}),
    "vsm": ("vsm", "gts", {}),
    "iso": ("iso", "gts", {}),
    "isa": ("isa", "gts", {}),
    "col-rowmajor": ("col", "gts", {"curve": "rowmajor"}),
    "col-hierarchical": ("col", "gts", {"curve": "hierarchical"}),
    "vsm-zorder": ("vsm", "gts", {"curve": "zorder"}),
    "col-3d": ("col", "s3d", {"chunk_shape": (16, 16, 16)}),
    **{f"{base}-64": (base, "gts-64", SMALL) for base in ("col", "vsm", "iso", "isa")},
    **{
        f"{base}-64-hierarchical": (base, "gts-64", {**SMALL, "curve": "hierarchical"})
        for base in ("col", "vsm")
    },
}


@functools.cache
def store(kind: str):
    """``(fs, handle)`` of the reference cell's store (built once)."""
    base, data, overrides = KINDS[kind]
    return build_store(base, FIELDS[data](), **overrides)


@functools.cache
def snapshot(kind: str):
    """The kind's store written as timestep 0 of a dataset, sealed."""
    base, data, overrides = KINDS[kind]
    dataset = MLOCDataset(SimulatedPFS(), "/ds", store_config(base, **overrides), n_ranks=4)
    dataset.append(FIELDS[data](), "field", timestep=0)
    return dataset.snapshot()


@functools.cache
def requests(kind: str, batched: bool = False) -> tuple[tuple[Query, Bitmap | None], ...]:
    """``(query, position filter)`` pairs: the golden queries first,
    then an overlapping value box, an empty answer and the position
    filter ``fetch_positions`` applies (last: ``query_many`` takes no
    filter, so its requests are a prefix of the singles'); ``batched`` adds
    the rest of the ways two members of a batch can relate — a
    duplicate, everything qualifying and a ``tol`` request where the
    layout has PLoD planes."""
    handle = store(kind)[1]
    edges = handle.meta.edges
    first, *rest = handle.shape  # a box that misses whole chunk rows and columns
    region = ((first // 16, 13 * first // 16), *((0, 3 * d // 4) for d in rest))
    box = Query(region=region, output="values")
    picked = handle.query(Query(value_range=(float(edges[6]), float(edges[9]))))
    keep = Bitmap.from_positions(picked.positions[::3], handle.n_elements)
    reqs = [
        *((q, None) for q in queries_for(handle)),
        (replace(box, value_range=(float(edges[4]), float(edges[11]))), None),
        (Query(value_range=(1e9, 2e9), output="values"), None),
        (box, keep),
    ]
    if batched:
        reqs += [(box, None), (box, None), (Query(output="values"), None)]
        if handle.meta.config.plod_enabled:
            reqs.append((replace(box, tol=1e-4), None))
    return tuple(reqs)


def ladder(reqs):
    """The first value and region requests for values, at PLoD levels
    2, 4 and 7."""
    values = [q for q, keep in reqs if keep is None and q.output == "values"]
    firsts = [next(q for q in values if q.region is None),
              next(q for q in values if q.value_range is None)]
    return [(replace(q, plod_level=level), None) for q in firsts for level in (2, 4, 7)]


# ----------------------------------------------------------------------
# Serving a cell
# ----------------------------------------------------------------------
def _digest(data) -> str | None:
    return None if data is None else hashlib.sha256(data.tobytes()).hexdigest()


def _times(times) -> dict:
    return {f"times.{name}": value for name, value in vars(times).items()}


def observation(result) -> dict:
    return {"positions": _digest(result.positions), "values": _digest(result.values),
            **result.stats, **_times(result.times)}


def lru(handle) -> tuple | None:
    """What ``handle``'s LRU holds (by digest of its key order) and its
    counters; ``None`` without one."""
    if handle.cache is None:
        return None
    keys = repr(handle.cache.keys()).encode()
    return hashlib.sha256(keys).hexdigest(), handle.cache.stats.as_dict()


def rounds(door: str, handle, reqs) -> tuple[list, dict]:
    """The ``singles`` and ``batch`` doors on a cold file system: two
    rounds, each through a fresh shared fetcher, the second a reversed
    prefix of the first."""
    handle.fs.clear_cache()
    served = []
    for round_ in (reqs, reqs[3::-1]):
        fetcher = handle.new_fetcher(shared=True)
        if door == "batch":
            served.append(assemble([handle.stage(q, keep, fetcher=fetcher)
                                    for q, keep in round_]))
        else:
            served.append([handle.query(q, keep, fetcher=fetcher) for q, keep in round_])
    held = hashlib.sha256(repr(fetcher.held_keys()).encode()).hexdigest()
    first, second = served
    return first, {"held": held, "round2": tuple(map(observation, second))}


def _serve(door: str, handle, fs, reqs) -> tuple[list, dict]:
    """One pass of ``reqs`` through ``door``: a result per request
    (``None`` where the door takes no position filter), and what else
    the door observes."""
    out = [None] * len(reqs)
    plain = [i for i, (_, keep) in enumerate(reqs) if keep is None]
    queries = [reqs[i][0] for i in plain]
    if door in ("query", "ladder"):
        for i, (query, keep) in enumerate(reqs):
            fs.clear_cache()
            out[i] = handle.query(query, keep)
        return out, {}
    if door in ("batch", "singles"):
        return rounds(door, handle, reqs)
    fs.clear_cache()
    extra = {}
    if door == "many":
        batch = handle.query_many(queries)
        extra["batch"] = {**batch.stats, **_times(batch.times)}
        results = batch.results
    elif door == "session":
        results = []
        for query in queries[::3]:
            fs.clear_cache()
            with handle.open_session(query) as session:
                for level in (4, 7):
                    fs.clear_cache()
                    session.refine(level)
                assert session.refine_steps == 2
                results += session.results
    else:
        core = BrokerCore(handle, BrokerConfig(max_inflight=2))
        served = [core.submit(f"tenant-{i % 3}", q) for i, q in enumerate(queries)]
        core.drain()
        assert all(req.status == "done" for req in served)
        results = [req.result for req in served]
    for i, result in zip(plain, results):
        out[i] = result
    return out, extra


@functools.cache
def observe(name: str, kind: str) -> tuple:
    """Cell ``(name, kind)``'s observations: one per request (``None``
    where its door cannot serve it), then its LRU and what else its
    door observes."""
    opens = dict(ROWS[name].opens)
    door = opens.pop("door", "query")
    passes = opens.pop("passes", 1)
    fs, base = store(kind)
    if opens.pop("opened", None) == "member":
        handle = snapshot(kind).store("field", 0, **opens)
        fs = handle.fs
    else:
        if opens.pop("fs", None) == "faulty":
            fs = FaultyPFS(fs)
        handle = MLOCStore(fs, base.root, base.meta, **{"n_ranks": 4, **opens})
    reqs = requests(kind, batched=door in ("singles", "batch"))
    if door in ("ladder", "session"):
        reqs = ladder(reqs)
    for _ in range(passes):
        results, extra = _serve(door, handle, fs, reqs)
    if isinstance(fs, FaultyPFS):
        assert not any(fs.injected.as_dict().values())
    return (*(None if r is None else observation(r) for r in results),
            {"lru": lru(handle), **extra})


GOLDEN = json.loads((Path(__file__).parent / "data" / "engine_golden.json").read_text())


def compare(got: dict, want: dict, differs: dict, where=()) -> None:
    """Assert observation ``got`` equals ``want`` on every field but
    those ``differs`` lists (see :class:`Row`)."""
    for key in got.keys() | want.keys():
        rule, a, b = differs.get(key), got.get(key), want.get(key)
        at = (*where, key, a, b)
        if rule == ANY:
            continue
        elif rule == LOWER:
            assert a <= b, at
        elif rule == HIGHER:
            assert a >= b, at
        elif key in differs:
            assert a == rule, at
        else:
            assert a == b, at


def check(name: str, kind: str, only=None) -> None:
    """Assert cell ``(name, kind)`` against its reference cell — or,
    for the reference row, against the golden cold rows; ``only``
    narrows the check to those request indices."""
    row = ROWS[name]
    *got, tail = observe(name, kind)
    if row.ref is None:
        expected = GOLDEN["stores"][kind]["cold"]
        assert len(expected) == len(queries_for(store(kind)[1]))
        for i in range(len(expected)) if only is None else only:
            for key, value in expected[i].items():
                key = key.removesuffix("_sha")
                assert got[i].get(key, got[i].get(f"times.{key}")) == value, (kind, i, key)
            # Reads are never coalesced at the default gap of 0.
            assert got[i]["coalesced_reads"] == got[i]["vectored_reads"] == 0
        return
    *want, want_tail = observe(row.ref, kind)
    if "round2" in row.differs:  # a batch door's own members have no twin
        n = min(len(got), len(want))
        got, want = got[:n], want[:n]
    assert len(got) == len(want)
    if "round2" not in row.differs:  # the second rounds, request by request
        assert len(tail.get("round2", ())) == len(want_tail.get("round2", ()))
        got += tail.get("round2", ())
        want += want_tail.get("round2", ())
    served = 0
    picked = range(len(got)) if only is None else only
    totals = {key: [0, 0] for key in row.fewer}
    for i in picked:
        if got[i] is None or want[i] is None:
            continue
        served += 1
        for key, total in totals.items():
            total[0] += got[i].get(key, 0)
            total[1] += want[i].get(key, 0)
        compare(got[i], want[i], row.differs, (name, kind, i))
    if only is None:
        tail = {key: value for key, value in tail.items() if key != "round2"}
        compare(tail, want_tail, {**row.differs, "round2": ANY}, (name, kind))
    assert served >= (2 if only is None else len(only))
    for key, (mine, theirs) in totals.items():
        assert mine < theirs or served < 2, (name, kind, key, mine, theirs)


@pytest.mark.parametrize(
    "name,kind",
    [
        pytest.param(row.name, kind, id=f"{row.name}-{kind}", marks=row.marks)
        for row in AXES
        if row.name == "reference" or row.ref is not None
        for kind in row.kinds
    ],
)
def test_cell(name, kind):
    check(name, kind)

