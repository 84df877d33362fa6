"""The published tables: every fenced table of EXPERIMENTS.md and
``docs/`` is exactly what ``scripts/render_experiments.py`` renders from
the committed ``results/``, and every table name resolves in the one
registry, ``repro.harness.TABLES``."""

from __future__ import annotations

import ast
import re
import shutil
from pathlib import Path

import pytest

from repro.bench import RUNS
from repro.harness.tables import TABLES, lookup
from scripts.render_experiments import REPO, RESULTS, documents, render

DOCUMENTS = documents()
FENCE = re.compile(r"^<!-- results:(\S+) -->$", re.M)


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_every_fence_matches_its_committed_record(path):
    text = path.read_text()
    assert render(text) == text, (
        f"{path.name} differs from results/; run scripts/render_experiments.py"
    )


def test_experiments_md_fences_every_recorded_table():
    fenced = set(FENCE.findall((REPO / "EXPERIMENTS.md").read_text()))
    for name in ("table1_storage", "fig6_components", "fig8_plod_access", "BENCH_calibration"):
        assert name in fenced
    for stem in ("table2_region_8g", "table3_value_8g", "table4_region_512g",
                 "table5_value_512g", "fig7_scalability"):  # fmt: skip
        assert {f"{stem}_gts", f"{stem}_s3d"} <= fenced


def _fenced_cell(text: str) -> tuple[int, int]:
    """The span of the first digit of the first numeric cell in a fence."""
    fence = text.index("<!-- results:")
    row = re.compile(r"^\| [^|\n]+ \| [^|\n]*?(\d)[^|\n]* \|", re.M).search(text, fence)
    return row.start(1), row.end(1)


def _bump(digit: str) -> str:
    return str((int(digit) + 1) % 10)


def test_one_digit_edited_in_a_fence_fails():
    text = (REPO / "EXPERIMENTS.md").read_text()
    start, end = _fenced_cell(text)
    edited = text[:start] + _bump(text[start:end]) + text[end:]
    assert render(edited) != edited
    assert render(edited) == text


def test_one_digit_edited_in_a_record_fails(tmp_path):
    results = tmp_path / "results"
    shutil.copytree(RESULTS, results)
    record = results / "table1_storage.json"
    body = record.read_text()
    digit = re.search(r"\d", body[body.index('"mloc-col"') :])
    at = body.index('"mloc-col"') + digit.start()
    record.write_text(body[:at] + _bump(body[at]) + body[at + 1 :])
    text = (REPO / "EXPERIMENTS.md").read_text()
    assert render(text, results) != text


LOOSE = """Prose.

| system | seconds |
|---|---|
| mloc-col | 1.14 |
"""


def test_a_table_outside_any_fence_fails():
    with pytest.raises(ValueError, match="outside any fence"):
        render(LOOSE)
    hand = f"<!-- hand-derived: a worked example -->\n{LOOSE}<!-- /hand-derived -->\n"
    assert render(hand) == hand


def test_a_fence_naming_no_registered_table_fails():
    with pytest.raises(KeyError, match="no published table"):
        render("<!-- results:BENCH_perf_smoke#varint -->\n<!-- /results -->\n")


def _named_in(call: ast.Call) -> str:
    """A call's first argument as a record name, ``{ds}`` for an f-string field."""
    arg = call.args[0]
    if isinstance(arg, ast.Constant):
        return arg.value
    return "".join(
        part.value if isinstance(part, ast.Constant) else "{ds}" for part in arg.values
    )


def test_every_recorded_and_fenced_name_is_registered():
    names = set()
    for path in (REPO / "benchmarks").glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("record_result", "format_table")
                and node.args
            ):
                names.add(_named_in(node))
    composite = {name for name in names if name.startswith("BENCH_")}
    assert names - composite - set(TABLES) == set()
    assert {"table1_storage", "fig6_components", "coalescing"} <= names
    for path in DOCUMENTS:
        for address in FENCE.findall(path.read_text()):
            lookup(address.rpartition("#")[2])
    assert {name for name, _, _ in RUNS.values()} <= set(TABLES)


def test_lookup_resolves_a_per_dataset_record():
    table, dataset = lookup("table2_region_8g_s3d")
    assert (table.name, dataset) == ("table2_region_8g_{ds}", "s3d")
    assert lookup("fig6_components")[1] == "s3d"
    with pytest.raises(KeyError):
        lookup("table2_region_8g_mnist")


def test_documents_are_the_experiments_and_docs_pages():
    assert [p.relative_to(REPO) for p in DOCUMENTS][:1] == [Path("EXPERIMENTS.md")]
    assert {p.parent.name for p in DOCUMENTS[1:]} == {"docs"}
