"""Smoke tests for the standalone reproduction runner (repro.bench)."""

import json

import pytest

from repro.bench import RUNS, build_parser, main
from repro.harness import get_spec


class TestParser:
    def test_defaults_cover_all_experiments(self):
        args = build_parser().parse_args([])
        assert set(args.experiments.split(",")) == set(RUNS)

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["--experiments", "table99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_unknown_dataset_rejected(self, capsys):
        assert main(["--datasets", "mnist"]) == 2
        assert "unknown datasets" in capsys.readouterr().err


class TestRun:
    @pytest.fixture(autouse=True)
    def _tiny(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        self.tmp_path = tmp_path

    def test_table1_runs_and_records(self, capsys):
        assert main(["--experiments", "table1", "--datasets", "gts", "--queries", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "mloc-isa" in out
        assert (self.tmp_path / "results" / "table1_storage.json").exists()

    def test_no_record_flag(self, capsys):
        assert main([
            "--experiments", "table1", "--datasets", "gts",
            "--queries", "1", "--no-record",
        ]) == 0
        assert not (self.tmp_path / "results" / "table1_storage.json").exists()

    def test_fig8_with_svg(self, capsys):
        svg_dir = self.tmp_path / "figs"
        assert main([
            "--experiments", "fig8", "--datasets", "gts",
            "--queries", "1", "--svg", str(svg_dir),
        ]) == 0
        assert (svg_dir / "fig8_gts.svg").exists()
        assert "Fig 8" in capsys.readouterr().out

    def test_fig6_is_the_s3d_figure(self, capsys, monkeypatch):
        """Fig. 6 is measured on S3D whatever ``--datasets`` says, and
        recorded under the benchmark suite's name."""
        specs = []
        monkeypatch.setattr("repro.bench.get_spec", lambda *a: specs.append(a) or get_spec(*a))
        monkeypatch.setattr("repro.harness.systems._SUITES", {})  # drop the suite afterwards
        assert main(["--experiments", "fig6", "--datasets", "gts", "--queries", "1"]) == 0
        assert specs == [("512g", "s3d")]
        out = capsys.readouterr().out
        assert "512 GB-class S3D" in out and "GTS" not in out
        results = self.tmp_path / "results"
        assert list(results.iterdir()) == [results / "fig6_components.json"]
        record = json.loads((results / "fig6_components.json").read_text())
        assert record["experiment"] == "fig6_components"
        assert set(record["payload"]["rows"]) == {"mloc-col", "mloc-iso", "mloc-isa", "seqscan"}
