"""Tests for the shared experiment row functions (tiny scale)."""

import pytest

from repro.harness import get_spec, get_suite
from repro.harness.experiments import (
    fig6_rows,
    fig8_rows,
    table1_rows,
    table2_rows,
)


@pytest.fixture(scope="module")
def suite_8g(monkeypatch=None):
    return get_suite(get_spec("8g", "gts", "tiny"), n_ranks=4)


class TestTable1Rows:
    def test_structure_and_paper_column(self, suite_8g):
        rows = table1_rows(suite_8g)
        assert set(rows) == {
            "mloc-col", "mloc-iso", "mloc-isa", "seqscan", "fastbit", "scidb",
        }
        for cells in rows.values():
            assert len(cells) == 4
            assert cells[2] == pytest.approx(cells[0] + cells[1], abs=2e-3)
        assert rows["seqscan"][:3] == [1.0, 0.0, 1.0]


class TestQueryRows:
    def test_table2_shape(self, suite_8g):
        rows = table2_rows(suite_8g, "gts", 1)  # floored to 3 internally
        assert all(len(v) == 4 for v in rows.values())
        assert all(v[0] > 0 for v in rows.values())

    def test_dataset_offset_selects_paper_columns(self, suite_8g):
        gts = table2_rows(suite_8g, "gts", 1)
        s3d = table2_rows(suite_8g, "s3d", 1)
        # Same seeded workload, different paper reference columns.
        assert gts["seqscan"][0] == s3d["seqscan"][0]
        assert gts["seqscan"][2:] != s3d["seqscan"][2:]


class TestFigureRows:
    def test_fig6_components_sum(self, suite_8g):
        rows = fig6_rows(suite_8g, 1)
        for cells in rows.values():
            # total >= io + decomp + reconstruction (communication adds
            # a little on top; rounding subtracts a little).
            assert cells[3] >= 0.9 * (cells[0] + cells[1] + cells[2])

    def test_fig8_io_monotone(self, suite_8g):
        rows = fig8_rows(suite_8g, 1, levels=(1, 4, 7))
        ios = [rows[f"PLoD {lvl} ({lvl + 1}B)"][0] for lvl in (1, 4, 7)]
        assert ios[0] < ios[1] < ios[2]
