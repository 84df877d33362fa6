"""Per-layer metrics: what each name in ``BENCHMARK.json`` is made of.

Every metric is computed from the spans and counters of one traced
pass, as a mean **per operation** of the workload, except the names
ending in ``_ratio``.  ``*_ms`` is a layer's *self* time (its spans
minus what wrapped callees cover) so layers add up; the few envelope
metrics marked ``incl`` below are whole-span times and overlap the
layers inside them.  A metric whose spans did not resolve is ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from benchmarks.e2e.trace import END, NAME, OP, PARENT, START, WORK, has_ancestor, self_times


class TraceView:
    """Aggregates over the spans of one traced pass."""

    def __init__(self, spans: list, missing: set, n_ops: int, counters: dict) -> None:
        self.spans = spans
        self.missing = missing
        self.n_ops = n_ops
        self.counters = counters
        self._self = self_times(spans)
        self._by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self._by_name.setdefault(span[NAME], []).append(i)

    def _indices(self, names: tuple) -> list[int] | None:
        if self.missing.intersection(names):
            return None
        return [i for name in names for i in self._by_name.get(name, ())]

    def self_ms(self, *names: str) -> float | None:
        idx = self._indices(names)
        return None if idx is None else sum(self._self[i] for i in idx) / 1e6 / self.n_ops

    def incl_ms(self, *names: str) -> float | None:
        """Whole-span time, counting nested spans of the same names once."""
        idx = self._indices(names)
        if idx is None:
            return None
        wanted = frozenset(names)
        total = sum(
            self.spans[i][END] - self.spans[i][START]
            for i in idx if not has_ancestor(self.spans, i, wanted)
        )
        return total / 1e6 / self.n_ops

    def calls(self, *names: str) -> float | None:
        idx = self._indices(names)
        return None if idx is None else len(idx) / self.n_ops

    def work(self, *names: str, part: int | None = None, under: str | None = None):
        """Sum of the spans' work counts (``part`` picks a tuple element)."""
        idx = self._indices(names)
        if idx is None or (under is not None and under in self.missing):
            return None
        total = 0
        for i in idx:
            w = self.spans[i][WORK]
            if w is None:
                continue
            if under is not None and not has_ancestor(self.spans, i, frozenset((under,))):
                continue
            total += w if part is None else w[part]
        return total / self.n_ops

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0) / self.n_ops

    def queue_wait_ms(self) -> float | None:
        """Mean submit-end to execute-start gap of the brokered requests."""
        if self.missing.intersection(("broker.submit", "broker.execute")):
            return None
        submitted, total = {}, 0
        for span in self.spans:
            if span[NAME] == "broker.submit":
                submitted[span[OP]] = span[END]
            elif span[NAME] == "broker.execute" and span[OP] in submitted:
                total += span[START] - submitted[span[OP]]
        return total / 1e6 / self.n_ops

    def attributed_ms(self) -> float:
        """Time of top-level spans that served an operation."""
        total = sum(
            s[END] - s[START] for s in self.spans if s[PARENT] < 0 and s[OP] >= 0
        )
        return total / 1e6 / self.n_ops


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _add(*parts):
    return None if any(p is None for p in parts) else sum(parts)


def _kb(value):
    return None if value is None else value / 1024.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: ``compute(view, extra)``: ``view`` is the traced default pass and
    #: ``extra`` the dict of sweep / harness readings of the run.
    compute: Callable


def _self(*names):
    return lambda v, x: v.self_ms(*names)


def _incl(*names):
    return lambda v, x: v.incl_ms(*names)


def _counter(key):
    return lambda v, x: v.counter(key)


def _extra(key):
    return lambda v, x: x.get(key, 0.0)


def _hbi(fn):
    """Read from the ``use_hbi=True`` pass when the run made one."""
    return lambda v, x: fn(x.get("hbi_view", v), x)


M = LayerMetric
LAYER_METRICS: tuple[LayerMetric, ...] = (
    M("binning.assign_ms", "ms", "lower", _self("binning.assign")),
    M("binning.points", "count", "lower", lambda v, x: v.work("binning.assign")),
    M("sfc.curve_ms", "ms", "lower", _self("sfc.curve")),
    M("plod.split_ms", "ms", "lower", _self("plod.split")),
    M("plod.assemble_ms", "ms", "lower", _self("plod.assemble")),
    M("plod.bounds_ms", "ms", "lower", _self("plod.bounds")),
    M("plod.points", "count", "lower", lambda v, x: v.work("plod.split", "plod.assemble")),
    M("compression.encode_ms", "ms", "lower", _self("compression.encode")),
    M("compression.decode_ms", "ms", "lower", _self("compression.decode")),
    M("compression.raw_kb", "KB", "lower",
      lambda v, x: _kb(v.work("compression.encode", "compression.decode", part=0))),
    M("compression.ratio", "ratio", "higher",
      lambda v, x: _ratio(v.work("compression.encode", "compression.decode", part=0),
                          v.work("compression.encode", "compression.decode", part=1))),
    M("binindex.encode_ms", "ms", "lower", _self("binindex.encode")),
    M("binindex.decode_ms", "ms", "lower", _self("binindex.decode")),
    M("binindex.positions", "count", "lower",
      lambda v, x: v.work("binindex.encode", "binindex.decode")),
    M("varint.encode_ms", "ms", "lower", _self("varint.encode")),
    M("varint.decode_ms", "ms", "lower", _self("varint.decode")),
    M("hbi.build_ms", "ms", "lower", _self("hbi.build")),
    M("hbi.load_ms", "ms", "lower", _hbi(_self("hbi.load"))),
    M("hbi.prune_ms", "ms", "lower", _hbi(_self("hbi.prune"))),
    M("hbi.chunks_pruned", "count", "higher", _hbi(_counter("chunks_pruned"))),
    M("hbi.bins_pruned", "count", "higher", _hbi(_counter("bins_pruned"))),
    M("hbi.wall_ratio", "ratio", "lower", _extra("hbi.wall_ratio")),
    M("hbi.sim_ratio", "ratio", "lower", _extra("hbi.sim_ratio")),
    M("bitmap.ops_ms", "ms", "lower", _self("bitmap.ops")),
    M("simmpi.collective_ms", "ms", "lower", _self("simmpi.collective")),
    M("pfs.read_ms", "ms", "lower", _self("pfs.read", "pfs.readv")),
    M("pfs.reads", "count", "lower", lambda v, x: v.calls("pfs.read")),
    M("pfs.read_kb", "KB", "lower", lambda v, x: _kb(v.counter("bytes_read"))),
    M("pfs.seeks", "count", "lower", _counter("seeks")),
    M("pfs.files_opened", "count", "lower", _counter("files_opened")),
    M("pfs.write_ms", "ms", "lower", _self("pfs.write")),
    M("pfs.writes", "count", "lower", lambda v, x: v.calls("pfs.write")),
    M("pfs.write_kb", "KB", "lower", lambda v, x: _kb(v.work("pfs.write"))),
    M("blockcache.get_ms", "ms", "lower", _self("blockcache.get")),
    M("blockcache.put_ms", "ms", "lower", _self("blockcache.put")),
    M("blockcache.hit_ratio", "ratio", "higher",
      lambda v, x: _ratio(v.counter("cache_hits"),
                          v.counter("cache_hits") + v.counter("cache_misses"))),
    M("blockcache.evictions", "count", "lower", _counter("cache_evictions")),
    M("planner.plan_ms", "ms", "lower", _self("planner.plan")),
    M("planner.blocks_planned", "count", "lower", _counter("blocks_planned")),
    M("planner.cache_hit_ratio", "ratio", "higher",
      lambda v, x: _ratio(v.counter("plan_cache_hits"),
                          v.counter("plan_cache_hits") + v.counter("plan_cache_misses"))),
    M("parallel.assign_ms", "ms", "lower", _self("parallel.assign")),
    M("iosched.flush_self_ms", "ms", "lower", _self("iosched.flush")),
    M("iosched.vectored_reads", "count", "higher", _counter("vectored_reads")),
    M("iosched.crc_failures", "count", "lower", _counter("crc_failures")),
    M("iosched.io_retries", "count", "lower", _counter("io_retries")),
    M("fetcher.run_self_ms", "ms", "lower", _self("fetcher.run")),
    M("fetcher.blocks_decoded", "count", "lower", _counter("blocks_decoded")),
    M("fetcher.dedup_blocks", "count", "higher", _counter("dedup_blocks")),
    M("engine.execute_ms", "ms", "lower", _incl("engine.execute")),
    M("engine.self_ms", "ms", "lower", _self("engine.execute")),
    M("store.open_ms", "ms", "lower", _incl("store.open")),
    M("store.query_self_ms", "ms", "lower", _self("store.query")),
    M("compound.self_ms", "ms", "lower", _self("compound")),
    M("writer.write_ms", "ms", "lower", _incl("writer.write")),
    M("writer.self_ms", "ms", "lower", _self("writer.write")),
    M("manifest.load_ms", "ms", "lower", _incl("manifest.load")),
    M("manifest.commit_ms", "ms", "lower", _incl("manifest.commit")),
    M("manifest.kb_written", "KB", "lower",
      lambda v, x: _kb(v.work("pfs.write", under="manifest.commit"))),
    M("dataset.append_self_ms", "ms", "lower", _self("dataset.append")),
    M("dataset.snapshot_ms", "ms", "lower", _incl("dataset.snapshot")),
    M("broker.submit_ms", "ms", "lower", _incl("broker.submit")),
    M("broker.select_ms", "ms", "lower", _self("broker.select")),
    M("broker.execute_ms", "ms", "lower", _incl("broker.execute")),
    M("broker.queue_wait_ms", "ms", "lower", lambda v, x: v.queue_wait_ms()),
    M("broker.rounds", "count", "lower", _counter("broker_rounds")),
    M("broker.rejected", "count", "lower", _counter("broker_rejected")),
    M("fetchmerge.self_ms", "ms", "lower", _self("fetchmerge.execute")),
    M("procpool.threads_ratio", "ratio", "lower", _extra("procpool.threads_ratio")),
    M("procpool.processes_ratio", "ratio", "lower", _extra("procpool.processes_ratio")),
    M("bench.untraced_ms", "ms", "lower", _extra("bench.untraced_ms")),
    M("bench.trace_overhead_ratio", "ratio", "lower", _extra("bench.trace_overhead_ratio")),
    M("bench.unattributed_ms", "ms", "lower",
      lambda v, x: _add(x["traced_latency_ms"], -v.attributed_ms(),
                        -(v.queue_wait_ms() or 0.0))),
    M("bench.pass_spread", "ratio", "lower", _extra("bench.pass_spread")),
    M("bench.host_ms", "ms", "lower", _extra("bench.host_ms")),
)


def layer_metrics(view: TraceView, extra: dict) -> dict:
    """Every per-layer metric of a traced run: name -> number or ``None``."""
    return {m.name: m.compute(view, extra) for m in LAYER_METRICS}
