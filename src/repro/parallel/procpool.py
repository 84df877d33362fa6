"""Shared-nothing process pool for the read path's ``processes`` backend.

The ``threads`` decode backend cannot beat serial on CPU-bound codec
work — the GIL serializes most of the fan-out
(``results/BENCH_perf_smoke.json``'s 0.94-0.99x rows).  This module
provides the GIL-free alternative: a persistent pool of **spawned**
worker processes that never share live objects with the parent.

The backend rule (DESIGN.md "Shared-nothing process backend"):

* Work travels as **picklable specs** — tagged tuples carrying a codec
  *name* plus its constructor params and the raw payload bytes, never
  codec instances, file handles, or closures.  Workers rebuild codecs
  through the ordinary :func:`~repro.compression.base.make_codec`
  registry and memoize them per ``(name, params)``.
* Results are committed by the **parent** in deterministic plan/table
  order, so output stays bit-identical to the ``serial`` backend for
  any worker count.
* A dying worker breaks the whole pool (shared-nothing means no
  work-stealing recovery inside a batch); the pool resets itself and
  raises :class:`PoolBrokenError` so callers re-run the batch inline.
  Nothing hangs, nothing is dropped.

Spawn (not fork) is used deliberately: it is the start method that
works everywhere, and it is the one that flushes out unpicklable codec
state (ISABELA's design-matrix lock) — the codec picklability audit in
``tests/test_codec_pickle.py`` enforces the contract this module
relies on.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = [
    "PoolBrokenError",
    "ProcessPool",
    "run_task",
    "get_pool",
    "shutdown_pools",
]


class PoolBrokenError(RuntimeError):
    """The worker pool died mid-batch (a worker process exited).

    The pool has already been reset when this is raised; the caller is
    expected to fall back to inline execution for the affected batch
    and may keep submitting to the (fresh) pool afterwards.
    """


# ----------------------------------------------------------------------
# Worker side: spec interpreter.  Everything here must be importable in
# a spawned child, so heavyweight imports stay inside the functions.
# ----------------------------------------------------------------------

#: Per-process codec cache keyed by ``(name, params_items)``; workers
#: are shared-nothing, so no locking is needed.
_WORKER_CODECS: dict = {}


def _worker_codec(name: str, params_items: tuple):
    codec = _WORKER_CODECS.get((name, params_items))
    if codec is None:
        from repro.compression import make_codec

        codec = make_codec(name, **dict(params_items))
        _WORKER_CODECS[(name, params_items)] = codec
    return codec


def run_task(task: tuple):
    """Execute one ``(spec, payload)`` decode task.

    Spec forms (all fields picklable by construction):

    * ``("index", counts)`` + payload bytes — inflate and check a
      position-index block into a :class:`~repro.index.binindex.PositionBlock`.
    * ``("bytes", name, params, raw_len)`` + payload bytes — byte-codec
      decode into a uint8 array (PLoD byte planes).
    * ``("float", name, params, count)`` + payload bytes — float-codec
      decode into a float64 array (whole-value layouts).
    * ``("__crash__",)`` — test hook: kill this worker immediately, to
      exercise the broken-pool fallback path.

    This function also serves as the parent-side inline fallback when
    the pool breaks, so spec semantics exist in exactly one place.
    """
    spec, payload = task
    kind = spec[0]
    if kind == "index":
        from repro.index.binindex import PositionBlock

        return PositionBlock(payload, spec[1])
    if kind == "bytes":
        import numpy as np

        _, name, params, raw_len = spec
        codec = _worker_codec(name, params)
        return np.frombuffer(codec.decode(payload, raw_len), dtype=np.uint8)
    if kind == "float":
        _, name, params, count = spec
        return _worker_codec(name, params).decode(payload, count)
    if kind == "__crash__":
        os._exit(1)
    raise ValueError(f"unknown task spec kind {kind!r}")


# ----------------------------------------------------------------------
# Parent side: persistent pool with ordered results and reset-on-break.
# ----------------------------------------------------------------------
class ProcessPool:
    """A persistent spawn-based worker pool running :func:`run_task`.

    Workers are created lazily on first use and reused across queries
    (spawning is expensive: each worker re-imports the package).
    Results always come back in submission order, which is what pins
    the deterministic commit order.
    """

    def __init__(self, workers: int) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        #: Batches that died on a broken pool since creation.
        self.broken_batches = 0

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._executor

    def _reset(self) -> None:
        executor, self._executor = self._executor, None
        self.broken_batches += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def run_tasks(self, tasks: list[tuple]) -> list:
        """Run ``tasks`` on the pool, results in submission order.

        Raises :class:`PoolBrokenError` (after resetting the pool) when
        a worker died.  Task-level exceptions (e.g. a corrupt payload's
        :class:`~repro.compression.base.CodecDecodeError`) propagate
        unchanged, exactly as inline execution would raise them.
        """
        try:
            executor = self._ensure()
            futures = [executor.submit(run_task, task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self._reset()
            raise PoolBrokenError(str(exc)) from exc

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


#: Process-wide pools keyed by worker count, so repeated queries (and
#: every shard engine of a :class:`~repro.core.store.MLOCStore`) share
#: one set of warm workers per width.
_POOLS: dict[int, ProcessPool] = {}
_ATEXIT_REGISTERED = False


def get_pool(workers: int) -> ProcessPool:
    """The shared persistent pool of the given width (lazily created).

    The atexit shutdown hook is registered here, on first use, rather
    than at module import: importing ``repro`` must stay side-effect
    free (embedders that never touch the process backend get no hook),
    and first-use registration orders the hook *after* any hooks the
    host application registered before creating a pool — so ours runs
    first at exit, while worker processes are still join-able.
    """
    global _ATEXIT_REGISTERED
    pool = _POOLS.get(workers)
    if pool is None:
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True
        pool = ProcessPool(workers)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every shared pool (atexit hook; also used by tests)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()
