"""``scripts/check_layers.py`` rules 3 (serving and the harness sit
above core), 8 (the batch is the unit), 9 (deleted second paths stay
deleted), 10 (nothing ambient switches a handle), 11 (every persisted
byte is a framed record), 12 (no unused import) and 13 (scipy loads on
demand), and the whole check over this tree."""

from __future__ import annotations

import ast

from scripts.check_layers import (
    batch_loop_violations,
    check,
    deleted_name_violations,
    environ_violations,
    scipy_import_violations,
    serializer_violations,
    unused_import_violations,
    upper_layer_violations,
)

PER_REQUEST = """
def run_round(self):
    batch = self.select_round()
    for req in batch:
        req.result = req.store.query(req.query, planned=(req.plan, req.plan_stats))
    return [assemble([store.stage(q, planned=p)])[0] for q, p in batch]
"""

STAGED = """
def run_round(self):
    batch = self.select_round()
    for req in batch:
        req.staged = req.store.stage(req.query, planned=(req.plan, req.plan_stats))
    results = assemble([req.staged for req in batch])
    while self.pending():
        self.run_round()
"""


def test_a_reintroduced_per_request_loop_is_a_violation():
    found = batch_loop_violations(ast.parse(PER_REQUEST), "broker.py")
    assert [v.split(": ")[1].split("(")[0] for v in found] == ["query", "assemble"]
    assert found[0].startswith("broker.py:5:")


def test_staging_in_a_loop_and_assembling_once_is_clean():
    assert batch_loop_violations(ast.parse(STAGED), "broker.py") == []


REINTRODUCED = """
from repro.index.hbi import HBIndex, build_from_store
import repro.parallel.scheduler.BlockRef

class MultiVarResult:
    def to_refs(self):
        return [hbi_path(self.root)]

    def execute_planned(self, query, plan, **how):
        return assemble([self.stage_planned(query, plan, **how)])[0]

    def sharded_store(self, variable, timestep=None, *, n_shards=2):
        return self.store(variable, timestep, n_shards=n_shards)
"""


def test_a_reintroduced_second_path_is_a_violation():
    found = deleted_name_violations(ast.parse(REINTRODUCED), "x.py")
    named = [v.split(": ")[1].split(" ")[0] for v in found]
    assert named == [
        "build_from_store", "BlockRef", "MultiVarResult",
        "to_refs", "execute_planned", "sharded_store",
    ]  # fmt: skip
    assert found[0].startswith("x.py:2:")


SECOND_CATALOG = """
from repro.plod.byteplanes import split_byte_groups, refinement_groups

class ExecutionConfig:
    coalesce_gap: int = 0
    readahead: int = 0

class BlockCache:
    def invalidate_generation(self, generation):
        return 0

class MLOCDataset:
    def _drop_handles(self, key):
        self.cache.invalidate_generation(self._handles.pop(key).generation)

class SimulatedPFS:
    def extent_cached(self, path, offset, length):
        return False
"""


def test_a_reintroduced_invalidation_path_or_readahead_is_a_violation():
    found = deleted_name_violations(ast.parse(SECOND_CATALOG), "x.py")
    named = [v.split(": ")[1].split(" ")[0] for v in found]
    assert named == [
        "refinement_groups", "readahead", "invalidate_generation",
        "_drop_handles", "extent_cached",
    ]  # fmt: skip
    assert found[1].startswith("x.py:6:")


SECOND_STORE = """
from repro.core import MLOCStore, ShardedMLOCStore

class ShardedMLOCStore(MLOCStore):
    def stage_planned(self, query, plan, **how):
        return super().stage_planned(query, plan, **how)

store = MLOCStore(fs, root, meta, n_shards=4)
"""


def test_a_reintroduced_store_subclass_is_a_violation():
    found = deleted_name_violations(ast.parse(SECOND_STORE), "x.py")
    assert [v.split(":")[1] for v in found] == ["2", "4"]
    assert all("ShardedMLOCStore was deleted" in v for v in found)


def test_the_remaining_implementations_are_clean():
    assert deleted_name_violations(ast.parse(STAGED), "broker.py") == []


AMBIENT = """
import os
from os import getenv

class MLOCStore:
    def __init__(self, use_hbi=None):
        if use_hbi is None:
            use_hbi = os.environ.get("FLEET_HBI") == "1"
        self.workers = int(os.getenv("FLEET_WORKERS", "2"))
"""


def test_a_reintroduced_ambient_switch_is_a_violation():
    found = environ_violations(ast.parse(AMBIENT), "store.py")
    assert [v.split(":")[1] for v in found] == ["3", "8", "9"]
    assert all("rule 10" in v for v in found)


def test_a_handle_switched_where_it_is_opened_is_clean():
    assert environ_violations(ast.parse(STAGED), "broker.py") == []


UPWARD = """
from repro.core.store import MLOCStore

def recommend_level_order(data, profile, base_config):
    from repro.harness.workloads import WorkloadGenerator
    import repro.server.broker
    return WorkloadGenerator.for_data(data, seed=0)
"""


def test_a_function_level_import_of_the_harness_from_core_is_a_violation():
    found = upper_layer_violations(ast.parse(UPWARD), "src/repro/core/advisor.py")
    assert [v.split(":")[1] for v in found] == ["5", "6"]
    assert "repro.harness.workloads sits above repro.core" in found[0]


def test_the_harness_bench_and_cli_may_import_the_harness():
    for where in ("src/repro/harness/advisor.py", "src/repro/bench.py"):
        found = upper_layer_violations(ast.parse(UPWARD), where)
        assert [v.split(": ")[1].split(" ")[0] for v in found] == ["repro.server.broker"]
    assert upper_layer_violations(ast.parse(UPWARD), "src/repro/cli.py") == []


SECOND_COUNTERS = """
from dataclasses import dataclass
from repro.core.engine.scheduler import QueryCounters, _HandleOpener

@dataclass
class _FaultContext:
    crc_failures: int = 0

class _IOCounters:
    coalesced_reads = 0
"""


def test_a_reintroduced_counter_holder_is_a_violation():
    found = deleted_name_violations(ast.parse(SECOND_COUNTERS), "x.py")
    named = [v.split(": ")[1].split(" ")[0] for v in found]
    assert named == ["_HandleOpener", "_FaultContext", "_IOCounters"]
    assert found[0].startswith("x.py:3:")


DATASET_FRONT_END = """
from repro.server.broker import BrokerCore, BrokerRejected

class NotYetSealed(BrokerRejected):
    pass

class IngestBroker:
    def submit(self, tenant, query, *, variable, timestep=None):
        return self.core.submit(tenant, query, store=self.snapshot.store(variable, timestep))
"""


def test_a_reintroduced_dataset_front_end_is_a_violation():
    found = deleted_name_violations(ast.parse(DATASET_FRONT_END), "x.py")
    named = [v.split(": ")[1].split(" ")[0] for v in found]
    assert named == ["NotYetSealed", "IngestBroker"]
    assert found[0].startswith("x.py:4:")


TEST_ONLY_DOORS = """
from repro.harness.trace import QueryTrace, TracingStore

class PlanContext:
    @classmethod
    def for_store(cls, meta, grid, curve, scheme=None, *, plan_cache=0):
        return cls(meta, grid, curve, scheme, plan_cache=plan_cache)

class DatasetSnapshot:
    def refresh(self):
        return self._dataset.snapshot()

class MLOCDataset:
    _generations_seen: set
"""


def test_a_reintroduced_test_only_door_is_a_violation():
    found = deleted_name_violations(ast.parse(TEST_ONLY_DOORS), "x.py")
    named = [v.split(": ")[1].split(" ")[0] for v in found]
    assert named == [
        "QueryTrace", "TracingStore", "for_store", "refresh", "_generations_seen",
    ]
    assert found[0].startswith("x.py:2:")


PER_MODE_REPLAY = """
from repro.server.replay import ReplayEvent, serve_round

def open_loop_events(tenant_queries, rate, seed=0):
    return poisson_arrivals(len(tenant_queries), rate, seed)

def replay_open_loop(core, events, *, retry_backoff=0.001):
    return serve_round(core, 0.0, None, {})

def replay_closed_loop(core, tenant_queries, *, think_time=0.0):
    pass

def replay_ingest(session, events):
    pass

class IngestReplayReport(ReplayReport):
    pass

def poisson_arrivals(n, rate, seed=0):
    pass
"""


def test_a_reintroduced_per_mode_replay_driver_is_a_violation():
    found = deleted_name_violations(ast.parse(PER_MODE_REPLAY), "x.py")
    named = sorted(v.split(": ")[1].split(" ")[0] for v in found)
    assert named == sorted([
        "ReplayEvent", "serve_round", "open_loop_events", "replay_open_loop",
        "retry_backoff", "replay_closed_loop", "replay_ingest",
        "IngestReplayReport", "poisson_arrivals",
    ])  # fmt: skip
    assert found[0].startswith("x.py:2:")



OST_LOAD_VECTOR = """
class SimulatedPFS:
    def _ost_loads(self, f, offset, length):
        pass
"""


def test_a_reintroduced_ost_load_vector_is_a_violation():
    (found,) = deleted_name_violations(ast.parse(OST_LOAD_VECTOR), "simfs.py")
    assert found.startswith("simfs.py:3: _ost_loads was deleted")


RUNNER_HEADERS = """
EXPERIMENTS = {"table1": ("8g", False, ["system", "data", "index", "total"])}

def main():
    EXPERIMENTS = None  # a local of that name is no second table
"""


def test_a_reintroduced_runner_header_table_is_a_violation():
    (found,) = deleted_name_violations(ast.parse(RUNNER_HEADERS), "bench.py")
    assert found.startswith("bench.py:2: EXPERIMENTS was deleted")


CODEC_PARAMS = """
@dataclass(frozen=True)
class MLOCConfig:
    codec: str = "zlib-bytes"
    codec_params: dict[str, Any] = field(default_factory=dict)
"""


BLOCK_FIELDS = """
DATA_BLOCK_FIELDS = ("cell_start", "cell_end", "offset", "comp_len", "raw_len", "crc32")
INDEX_BLOCK_FIELDS = ("cpos_start", "cpos_end", "offset", "comp_len", "crc32")
"""


def test_a_reintroduced_codec_keyword_table_is_a_violation():
    (found,) = deleted_name_violations(ast.parse(CODEC_PARAMS), "config.py")
    assert found.startswith("config.py:5: codec_params was deleted")
    found = deleted_name_violations(ast.parse(BLOCK_FIELDS), "meta.py")
    assert [v.split(": ")[1].split()[0] for v in found] == [
        "DATA_BLOCK_FIELDS", "INDEX_BLOCK_FIELDS"
    ]


THREADED_WRITER = """
from concurrent.futures import ThreadPoolExecutor

WRITE_BACKENDS = ("serial", "threads")


@dataclass(frozen=True)
class ExecutionConfig:
    write_backend: str = "serial"

    def writer_options(self):
        return {}


class _ThreadedBackend:
    def __init__(self, config, write_workers):
        self._pool = ThreadPoolExecutor(max_workers=write_workers)


def writer_backend_rows(data, config):
    return {}
"""


def test_a_reintroduced_threaded_writer_is_a_violation():
    found = deleted_name_violations(ast.parse(THREADED_WRITER), "writer.py")
    assert [v.split(": ")[1].split()[0] for v in found] == [
        "WRITE_BACKENDS", "_ThreadedBackend", "writer_backend_rows",
        "write_backend", "writer_options", "write_workers",
    ]


SCALAR_PROBE = """
import numpy as np


def _deflate_cannot_shrink(buf):
    return buf.size < 4


class ZlibByteCodec:
    def encode(self, data):
        return _deflate_cannot_shrink(np.frombuffer(data, np.uint8))
"""


def test_a_reintroduced_one_buffer_probe_is_a_violation():
    found = deleted_name_violations(ast.parse(SCALAR_PROBE), "zlib_codec.py")
    assert [v.split(": ")[1].split()[0] for v in found] == ["_deflate_cannot_shrink"]


TEST_ONLY_DEFS = """
from repro.index.binindex import decode_position_block


class PFSCostModel:
    def serial_time(self, stats):
        return 0.0
"""


def test_a_reintroduced_test_only_definition_is_a_violation():
    found = deleted_name_violations(ast.parse(TEST_ONLY_DEFS), "fsck.py")
    names = [v.split(": ")[1].split()[0] for v in found]
    assert names == ["decode_position_block", "serial_time"]


HAND_WRITTEN_COLD_LOOPS = """
from repro.harness.trace import QueryTrace, replay_trace


class SystemSuite:
    def value_query_batch(self, system, regions, plod_level=7):
        return self.store(system).query_many(regions)

    def average_value_times(self, system, constraints, plod_level=7):
        return replay_trace(self.store(system), QueryTrace(constraints))
"""


def test_a_reintroduced_cold_loop_is_a_violation():
    found = deleted_name_violations(ast.parse(HAND_WRITTEN_COLD_LOOPS), "systems.py")
    assert [v.split(": ")[1].split()[0] for v in found] == [
        "QueryTrace", "replay_trace", "value_query_batch", "average_value_times",
    ]
    assert found[0].startswith("systems.py:2:")


LEAFY_HBI = """
import numpy as np


class HBIndex:
    def __init__(self, run_counts, leaf_offsets, leaf_words):
        self.run_counts = run_counts

    def range_run_groups(self, lo, hi, run): ...

    def range_positions(self, lo, hi, grid, curve): ...

    def bin_positions(self, b, grid, curve): ...

    def bins_intersecting(self, positions, grid, curve): ...
"""


def test_a_reintroduced_hbi_leaf_is_a_violation():
    found = deleted_name_violations(ast.parse(LEAFY_HBI), "hbi.py")
    assert sorted(v.split(": ")[1].split()[0] for v in found) == [
        "bin_positions", "bins_intersecting", "leaf_offsets", "leaf_words",
        "range_positions", "range_run_groups",
    ]


PICKLED_META = """
import io
import pickle

def from_bytes(raw):
    from marshal import loads
    import shelve as store
    return pickle.loads(raw)
"""


def test_a_reintroduced_pickle_decoder_is_a_violation():
    found = serializer_violations(ast.parse(PICKLED_META), "meta.py")
    assert [v.split(":")[1] for v in found] == ["3", "6", "7"]
    assert all("rule 11" in v for v in found)


def test_a_framed_record_decoder_is_clean():
    framed = "from repro.util.record import RecordReader, frame\nimport zlib\n"
    assert serializer_violations(ast.parse(framed), "meta.py") == []


UNUSED_IMPORTS = """
from __future__ import annotations

import numpy as np
import os.path
import repro.core.store
from repro.index.bitmap import Bitmap, wah_encode as encode
from repro.core import *

__all__ = ["PositionBlock"]

from repro.index.binindex import PositionBlock


def mask(bits: "Bitmap") -> int:
    import zlib  # a function's import is not module level
    return repro.core.store.MLOCStore
"""


def test_an_unused_import_is_a_violation():
    found = unused_import_violations(ast.parse(UNUSED_IMPORTS), "x.py")
    assert [v.split(": ")[1].split()[0] for v in found] == ["np", "os", "encode"]
    assert found[0].startswith("x.py:4:")
    assert all("rule 12" in v for v in found)


def test_the_tree_is_clean():
    assert check() == []


LOAD_TIME_SCIPY = """
import numpy as np
from scipy.interpolate import splev, splrep

try:
    import scipy.sparse as sparse
except ImportError:
    sparse = None


class Codec:
    from scipy import stats

    def fit(self, values):
        from scipy.interpolate import splrep
        return splrep(values)
"""


def test_a_load_time_scipy_import_is_a_violation():
    found = scipy_import_violations(ast.parse(LOAD_TIME_SCIPY), "isabela.py")
    assert sorted(int(v.split(":")[1]) for v in found) == [3, 6, 12]
    assert all("rule 13" in v for v in found)
