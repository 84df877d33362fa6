"""Render the fenced result tables of EXPERIMENTS.md and ``docs/*.md``.

Every numeric table in those documents sits in one of two fences:

    <!-- results:<record>[#<section>] -->   rendered from results/<record>.json
    <!-- /results -->

    <!-- hand-derived: <what it is derived from> -->   written by hand
    <!-- /hand-derived -->

This script rewrites each ``results`` region in place from the committed
record: the title and header registered for it in
``repro.harness.TABLES``, then its rows and cells as recorded (floats in
``.4g``).  The prose around the fences stays hand-written.  A Markdown
table outside both fences is an error, and so is a fence that names no
registered table.  ``tests/test_render_experiments.py`` re-renders every
fence and fails when a document differs from its committed records.

Run:  PYTHONPATH=src python scripts/render_experiments.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.harness import render_result

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"

_RESULTS_FENCE = re.compile(
    r"^(<!-- results:(\S+) -->\n).*?^(<!-- /results -->)$", re.M | re.S
)
_HAND_FENCE = re.compile(
    r"^[ \t]*<!-- hand-derived: [^\n]+ -->\n.*?^[ \t]*<!-- /hand-derived -->$", re.M | re.S
)
_TABLE_RULE = re.compile(r"^\s*\|\s*:?-{3,}", re.M)


def documents() -> list[Path]:
    """The documents whose tables are fenced."""
    return [REPO / "EXPERIMENTS.md", *sorted((REPO / "docs").glob("*.md"))]


def render(text: str, results: Path = RESULTS) -> str:
    """``text`` with every ``results`` fence re-rendered from ``results``.

    Raises ``ValueError`` when a Markdown table stands outside every
    fence, and ``KeyError`` when a fence names no registered table."""
    rest = _HAND_FENCE.sub("", _RESULTS_FENCE.sub("", text))
    loose = _TABLE_RULE.search(rest)
    if loose:
        line = rest[: loose.start()].count("\n") + 1
        raise ValueError(
            f"a Markdown table outside any fence (line {line} once fences are "
            f"removed): fence it as results:<record> or hand-derived"
        )
    return _RESULTS_FENCE.sub(
        lambda m: f"{m[1]}\n{render_result(m[2], results)}\n\n{m[3]}", text
    )


def main() -> int:
    for path in documents():
        text = path.read_text()
        rendered = render(text)
        if rendered != text:
            path.write_text(rendered)
            print(f"rendered {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
