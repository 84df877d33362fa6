"""Writer-backend equivalence: parallel output is bit-identical to serial.

The parallel write pipeline (chunk-stage fan-out + compression offload
+ ordered commit) must produce exactly the serial writer's bytes —
every data subfile, every index subfile, and the metadata — for every
level order, codec, curve, and worker count.  This is the write-side
analogue of ``tests/test_backend_equivalence.py`` and the enforcement
of DESIGN.md §6's bit-identical-output rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionConfig, MLOCStore, MLOCWriter, Query, mloc_col
from repro.core.config import MLOCConfig
from repro.datasets import gts_like
from repro.pfs import SimulatedPFS


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return gts_like((128, 128), seed=21)


def _write_files(data, config, backend, workers=None) -> dict[str, bytes]:
    """All subfile bytes (data, index, meta) of one write."""
    fs = SimulatedPFS()
    writer = MLOCWriter(
        fs, "/eq", config, write_backend=backend, write_workers=workers
    )
    writer.write(data, variable="f")
    session = fs.session()
    return {
        path: bytes(session.open(path).read_all()) for path in fs.list_files("/eq/")
    }


def _assert_identical(serial: dict[str, bytes], parallel: dict[str, bytes]) -> None:
    assert serial.keys() == parallel.keys()
    for path in serial:
        assert parallel[path] == serial[path], f"{path} differs across write backends"


CONFIG_CASES = [
    pytest.param({"level_order": "VMS", "codec": "zlib-bytes"}, id="vms-col"),
    pytest.param({"level_order": "VSM", "codec": "zlib-bytes"}, id="vsm-col"),
    pytest.param({"level_order": "VS", "codec": "isobar"}, id="vs-iso"),
    pytest.param({"level_order": "VS", "codec": "isabela"}, id="vs-isa"),
]


class TestBitIdenticalOutput:
    @pytest.mark.parametrize("kwargs", CONFIG_CASES)
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_level_orders_and_codecs(self, data, kwargs, workers):
        config = MLOCConfig(
            chunk_shape=(16, 16), n_bins=8, target_block_bytes=2048, **kwargs
        )
        serial = _write_files(data, config, "serial")
        threaded = _write_files(data, config, "threads", workers)
        _assert_identical(serial, threaded)

    @pytest.mark.parametrize(
        "curve", ["hilbert", "zorder", "rowmajor", "hierarchical"]
    )
    def test_curves(self, data, curve):
        config = mloc_col((16, 16), n_bins=8, curve=curve, target_block_bytes=2048)
        serial = _write_files(data, config, "serial")
        threaded = _write_files(data, config, "threads", 4)
        _assert_identical(serial, threaded)

    def test_equal_width_binning(self, data):
        config = mloc_col(
            (16, 16), n_bins=8, binning="equal-width", target_block_bytes=2048
        )
        serial = _write_files(data, config, "serial")
        threaded = _write_files(data, config, "threads", 3)
        _assert_identical(serial, threaded)


class TestThreadedWriterServesQueries:
    def test_roundtrip_query_matches_data(self, data):
        fs = SimulatedPFS()
        config = mloc_col((16, 16), n_bins=8, target_block_bytes=2048)
        MLOCWriter(fs, "/q", config, write_backend="threads", write_workers=4).write(
            data, variable="f"
        )
        store = MLOCStore.open(fs, "/q", "f")
        flat = data.reshape(-1)
        lo, hi = np.quantile(flat, [0.4, 0.6])
        result = store.query(Query(value_range=(float(lo), float(hi)), output="values"))
        expect = np.flatnonzero((flat >= lo) & (flat <= hi))
        assert np.array_equal(result.positions, expect)
        assert np.allclose(np.sort(result.values), np.sort(flat[expect]))


class TestWriteOptionValidation:
    def test_unknown_backend_rejected(self, data):
        with pytest.raises(ValueError, match="write_backend"):
            MLOCWriter(SimulatedPFS(), "/x", mloc_col((16, 16)), write_backend="mpi")

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="write_workers"):
            MLOCWriter(
                SimulatedPFS(),
                "/x",
                mloc_col((16, 16)),
                write_backend="threads",
                write_workers=0,
            )

    def test_execution_config_carries_writer_options(self):
        exec_cfg = ExecutionConfig(write_backend="threads", write_workers=4)
        assert exec_cfg.writer_options() == {
            "write_backend": "threads",
            "write_workers": 4,
        }
        # Read-side store options must stay free of write knobs.
        assert "write_backend" not in exec_cfg.store_options()
        with pytest.raises(ValueError, match="write_backend"):
            ExecutionConfig(write_backend="fork")
        with pytest.raises(ValueError, match="write_workers"):
            ExecutionConfig(write_workers=-1)


class TestEqualWidthFullRange:
    def test_edges_span_true_extremes(self):
        """Equal-width edges come from the full array, not the sample.

        Plant extremes the boundary sample is unlikely to draw; the
        edges must still span them exactly, so outliers land in real
        bins instead of silently clamping into the end bins.
        """
        rng = np.random.default_rng(5)
        data = rng.normal(0.0, 1.0, size=(64, 64))
        data[0, 0] = -50.0
        data[63, 63] = 75.0
        fs = SimulatedPFS()
        config = mloc_col(
            (16, 16),
            n_bins=8,
            binning="equal-width",
            sample_fraction=0.01,
            target_block_bytes=2048,
        )
        MLOCWriter(fs, "/ew", config).write(data, variable="f")
        store = MLOCStore.open(fs, "/ew", "f")
        assert store.meta.edges[0] == data.min()
        assert store.meta.edges[-1] == data.max()
        # With sample-derived edges both outliers would clamp into the
        # end bins alongside ordinary values; with true-range edges the
        # interior bins actually partition [-50, 75].
        widths = np.diff(store.meta.edges)
        assert np.allclose(widths, widths[0])
