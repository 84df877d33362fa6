"""Tests for the experiment harness: scales, workloads, system suite."""

import numpy as np
import pytest

from repro.core.config import ExecutionConfig
from repro.harness.scales import SCALE_TIERS, get_spec, scale_tier
from repro.harness.systems import ALL_SYSTEMS, SystemSuite
from repro.harness.tables import PAPER, format_rows, record_result
from repro.harness.workloads import WorkloadGenerator


class TestScales:
    def test_all_tiers_resolve(self):
        for tier in SCALE_TIERS:
            for size_class in ("8g", "512g"):
                for kind in ("gts", "s3d"):
                    spec = get_spec(size_class, kind, tier)
                    assert spec.kind == kind
                    assert spec.n_elements > 0

    def test_byte_scale_matches_paper_size(self):
        spec = get_spec("8g", "gts", "tiny")
        assert spec.byte_scale == pytest.approx((8 << 30) / spec.raw_bytes)
        spec512 = get_spec("512g", "gts", "tiny")
        assert spec512.paper_bytes == 512 << 30

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="no spec"):
            get_spec("1024g", "gts", "tiny")

    def test_env_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert scale_tier() == "tiny"
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            scale_tier()

    def test_generate(self):
        spec = get_spec("8g", "s3d", "tiny")
        data = spec.generate()
        assert data.shape == spec.shape


class TestWorkloads:
    @pytest.fixture()
    def gen(self, rng):
        data = rng.normal(0, 1, (64, 64))
        return WorkloadGenerator.for_data(data, seed=3)

    def test_value_constraints_hit_selectivity(self, rng):
        data = rng.normal(0, 1, (128, 128))
        gen = WorkloadGenerator.for_data(data, seed=1)
        flat = data.reshape(-1)
        for lo, hi in gen.value_constraints(0.05, 10):
            frac = ((flat >= lo) & (flat <= hi)).mean()
            assert 0.03 < frac < 0.08

    def test_region_constraints_hit_selectivity(self, gen):
        for region in gen.region_constraints(0.01, 10):
            volume = np.prod([hi - lo for lo, hi in region]) / (64 * 64)
            assert 0.005 < volume < 0.02
            for (lo, hi), extent in zip(region, (64, 64)):
                assert 0 <= lo < hi <= extent

    def test_deterministic(self, gen):
        assert gen.value_constraints(0.1, 3) == gen.value_constraints(0.1, 3)
        assert gen.region_constraints(0.1, 3) == gen.region_constraints(0.1, 3)

    def test_selectivity_validated(self, gen):
        with pytest.raises(ValueError):
            gen.value_constraints(0.0, 1)
        with pytest.raises(ValueError):
            gen.region_constraints(1.5, 1)

    def test_3d_regions(self, rng):
        data = rng.normal(0, 1, (32, 32, 32))
        gen = WorkloadGenerator.for_data(data, seed=2)
        for region in gen.region_constraints(0.001, 5):
            assert len(region) == 3


class TestSystemSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return SystemSuite(get_spec("8g", "gts", "tiny"), n_ranks=4)

    def test_all_systems_answer_identically(self, suite):
        """Cross-system integration: every system returns the same
        positions for the same region query (ISA within its bound)."""
        flat = suite.flat
        lo, hi = np.quantile(flat, [0.40, 0.44])
        expect = np.flatnonzero((flat >= lo) & (flat <= hi))
        for name in ALL_SYSTEMS:
            r = suite.region_query(name, (lo, hi))
            if name == "mloc-isa":
                assert abs(r.n_results - expect.size) < 0.01 * expect.size + 20
            else:
                assert np.array_equal(r.positions, expect), name

    def test_all_systems_same_value_query(self, suite):
        region = suite.workload.region_constraints(0.01, 1)[0]
        reference = None
        for name in ALL_SYSTEMS:
            r = suite.value_query(name, region)
            if reference is None:
                reference = r.positions
            assert np.array_equal(r.positions, reference), name

    def test_storage_bytes_reported(self, suite):
        for name in ALL_SYSTEMS:
            sizes = suite.storage_bytes(name)
            assert sizes["data"] > 0
            assert sizes["index"] >= 0

    def test_block_bytes_floor(self, suite):
        assert suite.block_bytes >= 4096

    def test_unknown_system(self, suite):
        with pytest.raises(ValueError, match="unknown system"):
            suite.store("duckdb")

    def test_takes_no_execution_options(self):
        """The suite's store handles run with the default options: no
        caller ever passed another (``execution`` is no parameter)."""
        with pytest.raises(TypeError, match="execution"):
            SystemSuite(get_spec("8g", "gts", "tiny"), execution=ExecutionConfig())


class TestTables:
    def test_paper_reference_complete(self):
        for exp in (
            "table1_storage_gb",
            "table2_region_8g",
            "table3_value_8g",
            "table4_region_512g",
            "table5_value_512g",
            "table6_plod_accuracy_pct",
            "table7_level_orders",
        ):
            assert exp in PAPER

    def test_format_rows(self):
        text = format_rows("T", ["system", "a"], {"x": [1.2345]})
        assert "T" in text and "x" in text and "1.234" in text

    def test_record_result(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = record_result("unit_test", {"rows": {"a": [1, 2]}})
        assert path.exists()
        import json

        payload = json.loads(path.read_text())
        assert payload["experiment"] == "unit_test"
