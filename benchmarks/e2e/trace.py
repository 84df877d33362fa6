"""Span recorder for the traced pass: wrappers around public callables.

Tracing lives in the benchmark, not in the program: :data:`TARGETS` is
a declarative table of the program's public callables, and
:class:`Tracer` wraps each one for the duration of one pass, then puts
every original back.  A wrapped call records one span — name, start,
end, the span that caused it, and the id of the operation it served.
Spans stay in memory and are written out when the run ends.

A layer's *self* time is its span minus the part its child spans
cover (:func:`self_times`).  A target that no longer resolves is left
out with a warning; metrics that need it are reported as ``null``.

The traced pass is single-threaded (serial backend, one asyncio
loop), so one parent stack is enough.
"""

from __future__ import annotations

import importlib
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable

# Span fields (spans are plain lists; one is appended per wrapped call).
FIELDS = ("name", "parent", "op", "start_ns", "end_ns", "work")
NAME, PARENT, OP, START, END, WORK = range(len(FIELDS))


class Recorder:
    """In-memory span store with one parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Id stamped on top-level spans; nested spans inherit their parent's.
        self.op: int = -1

    def open(self, name: str, op: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.spans[parent][OP] if parent >= 0 else self.op
        index = len(self.spans)
        self.spans.append([name, parent, op, time.perf_counter_ns(), 0, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, work=None, op_of=None) -> Callable:
        """A drop-in replacement for ``fn`` that records one span per call.

        ``work(args, kwargs, result)`` gives the span its work count;
        ``op_of(args)`` overrides the inherited operation id.  Both run
        outside the span's own interval.
        """

        def traced(*args, **kwargs):
            index = self.open(name, op_of(args) if op_of is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if work is not None:
                try:
                    self.spans[index][WORK] = work(args, kwargs, result)
                except (IndexError, AttributeError, TypeError):
                    pass  # a changed signature loses the count, not the run
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus what its direct children cover (ns).

    Children of one parent never overlap (single thread), so the part
    they cover is the sum of their durations.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def has_ancestor(spans: list[list], index: int, names: frozenset) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


# ----------------------------------------------------------------------
# The wrapper table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module:attr`` or ``module:Class.attr``.

    The pseudo-path ``"<codecs>:encode"`` / ``"<codecs>:decode"`` wraps
    that method on every registered codec class.
    """

    span: str
    path: str
    work: Callable | None = None
    op_of: Callable | None = None


def _size(x) -> int:
    nbytes = getattr(x, "nbytes", None)
    return int(nbytes) if nbytes is not None else len(x)


def _arg(i: int, attr: str | None = None):
    if attr is None:
        return lambda a, k, r: int(a[i])
    return lambda a, k, r: int(getattr(a[i], attr))


# Work hooks ``(args, kwargs, result) -> count``; ``args[0]`` is ``self``
# for methods.  Compression spans carry ``(raw bytes, stored bytes)``.
_encode_work = lambda a, k, r: (_size(a[1]), len(r))  # noqa: E731
_decode_work = lambda a, k, r: (_size(r), len(a[1]))  # noqa: E731
_written = lambda a, k, r: len(a[2])  # noqa: E731
_NO_OP = lambda a: -1  # noqa: E731

TARGETS: tuple[Target, ...] = (
    Target("binning.assign", "repro.binning.binner:BinScheme.assign", _arg(1, "size")),
    Target("binning.assign", "repro.binning.binner:per_bin_segments"),
    Target("sfc.curve", "repro.sfc.linearize:chunk_curve_order"),
    Target("sfc.curve", "repro.sfc.hilbert:hilbert_encode"),
    Target("plod.split", "repro.plod.byteplanes:split_byte_groups", _arg(0, "size")),
    Target("plod.assemble", "repro.plod.byteplanes:assemble_from_groups", _arg(1)),
    Target("plod.assemble", "repro.plod.byteplanes:assemble_from_groups_degraded", _arg(1)),
    Target("plod.bounds", "repro.plod.bounds:compute_chunk_bounds"),
    Target("plod.bounds", "repro.plod.bounds:PEBBuilder.add_chunk"),
    Target("plod.bounds", "repro.plod.bounds:PEBBuilder.finish"),
    Target("compression.encode", "<codecs>:encode", _encode_work),
    Target("compression.decode", "<codecs>:decode", _decode_work),
    Target(
        "binindex.encode", "repro.index.binindex:encode_position_block",
        lambda a, k, r: sum(int(p.size) for p in a[0]),
    ),
    Target(
        "binindex.decode", "repro.index.binindex:decode_position_block_flat",
        lambda a, k, r: int(r.size),
    ),
    Target("varint.encode", "repro.util.varint:varint_encode_array"),
    Target("varint.decode", "repro.util.varint:varint_decode_array"),
    Target("hbi.build", "repro.index.hbi:HBIBuilder.add_chunk"),
    Target("hbi.build", "repro.index.hbi:HBIBuilder.finish"),
    Target("hbi.load", "repro.index.hbi:HBIndex.from_bytes"),
    Target("hbi.prune", "repro.core.planner:PlanContext.prune_plan"),
    Target("bitmap.ops", "repro.index.bitmap:Bitmap.from_positions"),
    Target("bitmap.ops", "repro.index.bitmap:wah_encode"),
    Target("bitmap.ops", "repro.index.bitmap:wah_from_positions"),
    Target("bitmap.ops", "repro.index.bitmap:wah_expand_groups"),
    Target("bitmap.ops", "repro.index.bitmap:wah_cardinality"),
    Target("bitmap.ops", "repro.index.bitmap:wah_decode"),
    Target("simmpi.collective", "repro.parallel.simmpi:SimCommunicator.gather"),
    Target("simmpi.collective", "repro.parallel.simmpi:SimCommunicator.bcast"),
    Target("simmpi.collective", "repro.parallel.simmpi:SimCommunicator.allreduce"),
    Target("simmpi.collective", "repro.parallel.simmpi:SimCommunicator.allgather"),
    Target("pfs.read", "repro.pfs.simfs:SimFileHandle.read"),
    # readv/read_all end in read(); a separate name keeps pfs.reads a call count.
    Target("pfs.readv", "repro.pfs.simfs:SimFileHandle.readv"),
    Target("pfs.readv", "repro.pfs.simfs:SimFileHandle.read_all"),
    Target("pfs.write", "repro.pfs.simfs:SimulatedPFS.write_file", _written),
    Target("pfs.write", "repro.pfs.simfs:SimulatedPFS.append", _written),
    Target("blockcache.get", "repro.pfs.blockcache:BlockCache.get"),
    Target("blockcache.put", "repro.pfs.blockcache:BlockCache.put"),
    Target("planner.plan", "repro.core.planner:PlanContext.plan"),
    Target("parallel.assign", "repro.parallel.scheduler:column_order_assignment"),
    Target("iosched.flush", "repro.core.engine.scheduler:IOScheduler.flush"),
    Target("fetcher.run", "repro.core.engine.scheduler:_BlockFetcher.run"),
    Target("engine.execute", "repro.core.engine.stages:QueryEngine.execute"),
    Target("store.open", "repro.core.store:MLOCStore.open"),
    Target("store.query", "repro.core.store:MLOCStore.query"),
    Target("store.query", "repro.core.store:MLOCStore.fetch_positions"),
    Target("compound", "repro.core.compound:compound_query"),
    Target("writer.write", "repro.core.writer:MLOCWriter.write"),
    Target("manifest.load", "repro.core.manifest:load_manifest"),
    Target("manifest.commit", "repro.core.manifest:commit_manifest"),
    Target("dataset.append", "repro.core.dataset:MLOCDataset.append"),
    Target("dataset.snapshot", "repro.core.dataset:MLOCDataset.snapshot"),
    Target("broker.submit", "repro.server.broker:BrokerCore.submit"),
    # Round bookkeeping serves no single request: pass-level spans (id -1).
    Target("broker.select", "repro.server.broker:BrokerCore.select_round", op_of=_NO_OP),
    # The serve task executes on behalf of whichever tenant submitted
    # the request: tickets are dealt in submission order, and the
    # workload numbers its operations the same way.
    Target(
        "broker.execute", "repro.server.broker:BrokerCore.execute",
        op_of=lambda a: a[1].ticket,
    ),
    Target("broker.select", "repro.server.broker:BrokerCore.finish_round", op_of=_NO_OP),
    Target("fetchmerge.execute", "repro.server.fetchmerge:FetchMergeLoop.execute"),
)


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------
_PROGRAM = "repro"


def _program_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == _PROGRAM or name.startswith(_PROGRAM + "."))
    ]


class Tracer:
    """Installs the wrappers of a target table; a context manager."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.recorder = Recorder()
        #: Span names with at least one target that did not resolve.
        self.missing: set[str] = set()
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for target in self.targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing.add(target.span)
                warnings.warn(
                    f"trace target {target.path!r} did not resolve ({exc!r}); "
                    f"metrics built on span {target.span!r} are reported as null",
                    stacklevel=2,
                )

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def _install_one(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        if module_name == "<codecs>":
            registry = importlib.import_module("repro.compression.base")._REGISTRY
            for cls in registry.values():
                self._patch_method(cls, qualname, target)
            return
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            self._patch_method(getattr(module, owner_name), attr, target)
        else:
            self._patch_function(getattr(module, attr), target)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        return self.recorder.wrap(target.span, fn, target.work, target.op_of)

    def _patch_method(self, cls: type, attr: str, target: Target) -> None:
        definer = next((c for c in cls.__mro__ if attr in c.__dict__), None)
        if definer is None:
            raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")
        raw = definer.__dict__[attr]
        if any(o is definer and k == attr for o, k, _ in self._undo):
            return  # two codecs sharing one inherited method
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._undo.append((definer, attr, raw))
        setattr(definer, attr, wrapped)

    def _patch_function(self, fn: Callable, target: Target) -> None:
        """Rebind every program-module global (and global-dict value) that
        ``is`` ``fn``, so ``from x import f`` call sites are covered too."""
        wrapped = self._wrap(fn, target)
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, key, fn))
                    setattr(module, key, wrapped)
                elif type(value) is dict and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._undo.append((value, k, fn))
                            value[k] = wrapped
