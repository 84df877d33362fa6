"""Tests for the level-order advisor."""

import pytest

from repro.harness import (
    AdvisorReport,
    QueryClass,
    WorkloadProfile,
    recommend_level_order,
)
from repro.core.config import mloc_col
from repro.datasets import s3d_like
from repro.pfs import PFSCostModel


class TestQueryClass:
    def test_validation(self):
        with pytest.raises(ValueError, match="pattern"):
            QueryClass("scan")
        with pytest.raises(ValueError, match="selectivity"):
            QueryClass("region", selectivity=0.0)

    def test_defaults(self):
        q = QueryClass("value")
        assert q.plod_level == 7 and q.selectivity == 0.01


#: Threshold hunting: region queries dominate (Section III-A2).
FUSION = WorkloadProfile(
    (
        (QueryClass("region", 0.01), 0.7),
        (QueryClass("value", 0.01), 0.2),
        (QueryClass("value", 0.01, plod_level=2), 0.1),
    )
)
#: Spatial exploration: value queries dominate.
CLIMATE = WorkloadProfile(((QueryClass("value", 0.01), 0.7), (QueryClass("region", 0.01), 0.3)))
#: Reduced-precision statistics dominate: PLoD-heavy.
ANALYTICS = WorkloadProfile(
    (
        (QueryClass("value", 0.05, plod_level=2), 0.7),
        (QueryClass("value", 0.01), 0.2),
        (QueryClass("region", 0.01), 0.1),
    )
)


class TestWorkloadProfile:
    def test_presets(self):
        for profile in (FUSION, CLIMATE, ANALYTICS):
            assert sum(w for _, w in profile.classes) > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            WorkloadProfile(())
        with pytest.raises(ValueError, match="positive"):
            WorkloadProfile(((QueryClass("region"), 0.0),))


class TestRecommendation:
    @pytest.fixture(scope="class")
    def sample(self):
        return s3d_like((64, 64, 64), seed=51)

    @pytest.fixture(scope="class")
    def base_config(self):
        return mloc_col(
            chunk_shape=(16, 16, 16), n_bins=8, target_block_bytes=4096
        )

    def test_report_structure(self, sample, base_config):
        report = recommend_level_order(
            sample,
            CLIMATE,
            base_config,
            n_queries=2,
        )
        assert isinstance(report, AdvisorReport)
        assert set(report.scores) == {"VMS", "VSM"}
        assert report.recommended in report.scores
        assert min(report.scores, key=report.scores.get) == report.recommended
        assert all(len(v) == 2 for v in report.per_class.values())

    def test_plod_heavy_profile_prefers_vms(self, sample, base_config):
        """Table VII's mechanism through the advisor: a reduced-
        precision-dominated workload favors V-M-S; a full-precision
        retrieval workload favors V-S-M."""
        cost = PFSCostModel(byte_scale=(8 << 30) / sample.nbytes)
        plod_heavy = WorkloadProfile(
            ((QueryClass("value", 0.10, plod_level=2), 1.0),)
        )
        full_heavy = WorkloadProfile(((QueryClass("value", 0.10, plod_level=7), 1.0),))
        r_plod = recommend_level_order(
            sample, plod_heavy, base_config, cost_model=cost, n_queries=4
        )
        r_full = recommend_level_order(
            sample, full_heavy, base_config, cost_model=cost, n_queries=4
        )
        assert r_plod.recommended == "VMS"
        assert r_full.recommended == "VSM"

    def test_recommendation_is_reproducible(self, sample, base_config):
        """The ranking is a pure function of (sample, profile, config):
        two calls agree to the last digit, not merely on the winner."""
        cost = PFSCostModel(byte_scale=(8 << 30) / sample.nbytes)
        a, b = (
            recommend_level_order(
                sample,
                ANALYTICS,
                base_config,
                cost_model=cost,
                n_queries=2,
            )
            for _ in range(2)
        )
        assert a.scores == b.scores
        assert a.per_class == b.per_class

    def test_single_candidate(self, sample, base_config):
        report = recommend_level_order(
            sample,
            FUSION,
            base_config,
            candidates=("VMS",),
            n_queries=1,
        )
        assert report.recommended == "VMS"

    def test_no_candidates_rejected(self, sample, base_config):
        with pytest.raises(ValueError, match="at least one candidate"):
            recommend_level_order(
                sample, FUSION, base_config, candidates=()
            )

    def test_combined_pattern_runs(self, sample, base_config):
        profile = WorkloadProfile(((QueryClass("combined", 0.05), 1.0),))
        report = recommend_level_order(sample, profile, base_config, n_queries=1)
        assert report.recommended in ("VMS", "VSM")
