"""Tests for the ASCII figure renderer."""

import pytest

from repro.harness.asciiplot import stacked_bars


class TestStackedBars:
    def test_glyph_proportions(self):
        text = stacked_bars(
            "F", {"sys": [3.0, 1.0]}, ["io", "cpu"], width=40
        )
        bar_line = text.splitlines()[2]
        assert bar_line.count("#") == 30
        assert bar_line.count("=") == 10

    def test_legend_present(self):
        text = stacked_bars("F", {"s": [1.0]}, ["io"])
        assert "#=io" in text

    def test_shared_scale(self):
        text = stacked_bars(
            "F", {"big": [4.0, 0.0], "small": [1.0, 0.0]}, ["a", "b"], width=20
        )
        lines = text.splitlines()
        assert lines[2].count("#") == 20
        assert lines[3].count("#") == 5

    def test_component_count_checked(self):
        with pytest.raises(ValueError, match="2 values"):
            stacked_bars("F", {"s": [1.0, 2.0]}, ["only-one"])

    def test_too_many_components(self):
        with pytest.raises(ValueError, match="at most"):
            stacked_bars("F", {"s": [1.0] * 5}, ["a", "b", "c", "d", "e"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stacked_bars("F", {}, ["io"])


class TestSVGPlot:
    def test_valid_svg_document(self):
        from repro.harness.svgplot import stacked_bar_svg

        svg = stacked_bar_svg(
            "Fig X", {"sys-a": [1.0, 2.0], "sys-b": [3.0, 0.5]}, ["io", "cpu"]
        )
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") >= 2 + 4  # legend swatches + segments
        assert "Fig X" in svg and "sys-a" in svg

    def test_escaping(self):
        from repro.harness.svgplot import stacked_bar_svg

        svg = stacked_bar_svg("a < b & c", {"r<1>": [1.0]}, ["io"])
        assert "a &lt; b &amp; c" in svg
        assert "r&lt;1&gt;" in svg

    def test_zero_segments_omitted(self):
        from repro.harness.svgplot import stacked_bar_svg

        svg = stacked_bar_svg("T", {"r": [0.0, 1.0]}, ["a", "b"])
        # exactly: 2 legend swatches + 1 bar segment
        assert svg.count("<rect") == 3

    def test_validation(self):
        from repro.harness.svgplot import stacked_bar_svg

        with pytest.raises(ValueError, match="at least one"):
            stacked_bar_svg("T", {}, ["a"])
        with pytest.raises(ValueError, match="2 values"):
            stacked_bar_svg("T", {"r": [1.0, 2.0]}, ["only"])
        with pytest.raises(ValueError, match="negative"):
            stacked_bar_svg("T", {"r": [-1.0]}, ["a"])

    def test_save(self, tmp_path):
        from repro.harness.svgplot import save_figure_svg

        out = save_figure_svg(tmp_path / "f.svg", "T", {"r": [1.0]}, ["io"])
        assert out.exists()
        assert out.read_text().startswith("<svg")
