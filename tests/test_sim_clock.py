"""The simulated clock is a pure function of (data, config, query).

Every second in a ``ComponentTimes`` — for MLOC and for the three
baselines alike — is ``PFSCostModel.cpu_seconds`` or an I/O/comm cost
model applied to counted work (DESIGN.md §5).  No stopwatch reading
enters it, so repeats are equal with ``==``, the CPU components scale
exactly with ``byte_scale``, and reconstruction depends neither on the
PLoD level nor on block-cache hits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fastbit import FastBitStore
from repro.baselines.scidb import SciDBStore
from repro.baselines.seqscan import SeqScanStore
from repro.core import (
    MLOCDataset,
    MLOCStore,
    MLOCWriter,
    Query,
    mloc_col,
    mloc_isa,
    mloc_iso,
)
from repro.datasets import gts_like
from repro.pfs import PFSCostModel, SimulatedPFS
from repro.server import (
    BrokerCore,
    IngestQueryEvent,
    IngestReplay,
    IngestSession,
    OpenLoop,
    TimestepArrival,
    replay,
)

DATA = gts_like((64, 64), seed=17)
VALUE_RANGE = tuple(float(v) for v in np.quantile(DATA, [0.30, 0.45]))
BOX = ((5, 41), (9, 50))
_CHUNKS = {"chunk_shape": (16, 16), "n_bins": 8, "target_block_bytes": 4096}

MLOC_CONFIGS = {
    "mloc_col-vms": mloc_col(level_order="VMS", **_CHUNKS),
    "mloc_col-vsm": mloc_col(level_order="VSM", **_CHUNKS),
    "mloc_iso": mloc_iso(**_CHUNKS),
    "mloc_isa": mloc_isa(**_CHUNKS),
}
SYSTEMS = (*MLOC_CONFIGS, "seqscan", "fastbit", "scidb")
KINDS = ("region", "value")


class _System:
    """One system built on its own PFS, queried the harness's way."""

    def __init__(self, name: str, byte_scale: float = 64.0, **options) -> None:
        self.fs = SimulatedPFS(PFSCostModel(byte_scale=byte_scale))
        if name in MLOC_CONFIGS:
            MLOCWriter(self.fs, "/s", MLOC_CONFIGS[name]).write(DATA, variable="f")
            self.store = MLOCStore.open(self.fs, "/s", "f", n_ranks=4, **options)
        elif name == "seqscan":
            self.store = SeqScanStore.build(self.fs, "/s", DATA, n_ranks=4)
        elif name == "fastbit":
            self.store = FastBitStore.build(self.fs, "/s", DATA, n_bins=64, n_ranks=4)
        else:
            # No startup constant, so the whole term scales with bytes.
            self.store = SciDBStore.build(
                self.fs, "/s", DATA, (16, 16), startup_seconds=0.0, n_ranks=4
            )

    def query(self, kind: str, *, cold: bool = True, plod_level: int = 7):
        if cold:
            self.fs.clear_cache()
        if isinstance(self.store, MLOCStore):
            if kind == "region":
                return self.store.query(Query(value_range=VALUE_RANGE, output="positions"))
            return self.store.query(
                Query(region=BOX, output="values", plod_level=plod_level)
            )
        if kind == "region":
            return self.store.region_query(VALUE_RANGE)
        return self.store.value_query(BOX)


@pytest.fixture(scope="module", params=SYSTEMS)
def system(request):
    return _System(request.param)


@pytest.mark.parametrize("kind", KINDS)
def test_repeat_is_equal(system, kind):
    a, b = system.query(kind), system.query(kind)
    assert a.times == b.times
    assert a.times.reconstruction > 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_cpu_components_double_with_byte_scale(system, kind, request):
    name = request.node.callspec.params["system"]
    base, doubled = system.query(kind).times, _System(name, 128.0).query(kind).times
    assert doubled.reconstruction == 2 * base.reconstruction
    assert doubled.decompression == 2 * base.decompression


@pytest.mark.parametrize("name", ["mloc_col-vms", "mloc_col-vsm"])
def test_reconstruction_is_plod_level_independent(name):
    system = _System(name)
    coarse = system.query("value", plod_level=2).times
    full = system.query("value", plod_level=7).times
    assert coarse.reconstruction == full.reconstruction
    assert coarse.io <= full.io  # block granularity can tie V-S-M here


@pytest.mark.parametrize("name", list(MLOC_CONFIGS))
def test_block_cache_hit_keeps_reconstruction(name):
    system = _System(name, cache_bytes=8 << 20)
    cold = system.query("value")
    warm = system.query("value", cold=False)
    assert warm.stats["cache_hits"] > 0
    assert warm.times.reconstruction == cold.times.reconstruction
    assert warm.times.io < cold.times.io


def test_open_loop_replay_repeats_exactly():
    system = _System("mloc_col-vms")
    queries = {
        f"t{t}": [
            Query(region=((t, 32 + t), (0, 48)), output="values", plod_level=3 + t)
            for _ in range(3)
        ]
        for t in range(3)
    }

    def run():
        system.fs.clear_cache()
        core = BrokerCore(MLOCStore.open(system.fs, "/s", "f", n_ranks=4))
        return replay(core, OpenLoop(queries, rate=20.0, seed=5))

    a, b = run(), run()
    assert a.samples == b.samples and a.clock == b.clock
    assert a.clock > 0.0


def test_ingest_replay_repeats_exactly():
    def run():
        fs = SimulatedPFS(PFSCostModel(byte_scale=64.0))
        dataset = MLOCDataset(fs, "/ds", MLOC_CONFIGS["mloc_col-vms"], n_ranks=4)
        arrivals = [
            TimestepArrival(
                time=2.0 * t, variable="temp", timestep=t, data=gts_like((64, 64), seed=t)
            )
            for t in range(3)
        ]
        events = [
            IngestQueryEvent(
                arrival=1.0 + i,
                tenant=f"t{i % 2}",
                variable="temp",
                query=Query(region=BOX, output="values"),
                timestep=None if i % 2 else min(i // 2 + 1, 2),
            )
            for i in range(5)
        ]
        return replay(BrokerCore(), IngestReplay(IngestSession(dataset, arrivals), events))

    a, b = run(), run()
    assert a.samples == b.samples and a.clock == b.clock
    assert len(a.samples) == 5
