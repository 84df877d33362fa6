"""ASCII rendering of the paper's figures from recorded results.

The evaluation figures (6, 7, 8) are stacked-bar charts of component
times.  matplotlib is not available in the reproduction environment,
so this module renders the same information as aligned text charts —
enough to eyeball the shapes (who is I/O-bound, where scaling
plateaus, how PLoD levels grow) directly in benchmark output or from
the ``results/*.json`` records via ``examples/render_figures.py``.
"""

from __future__ import annotations

__all__ = ["stacked_bars"]

#: Glyph per component, in rendering order.
_GLYPHS = ("#", "=", "-", "~")


def stacked_bars(
    title: str,
    rows: dict[str, list[float]],
    components: list[str],
    *,
    width: int = 60,
    unit: str = "s",
) -> str:
    """Stacked horizontal bars (one per row, one glyph per component).

    ``rows[label]`` holds one value per component; all bars share a
    scale so relative totals are visible.
    """
    if not rows:
        raise ValueError("stacked_bars needs at least one row")
    n_comp = len(components)
    if n_comp > len(_GLYPHS):
        raise ValueError(f"at most {len(_GLYPHS)} components supported")
    for label, values in rows.items():
        if len(values) != n_comp:
            raise ValueError(
                f"row {label!r} has {len(values)} values for {n_comp} components"
            )
    peak = max(sum(v) for v in rows.values())
    label_w = max(len(k) for k in rows)
    legend = "  ".join(f"{g}={c}" for g, c in zip(_GLYPHS, components))
    lines = [title, f"[{legend}]"]
    for label, values in rows.items():
        total = sum(values)
        bar = ""
        for glyph, value in zip(_GLYPHS, values):
            n = int(round(width * value / peak)) if peak > 0 else 0
            bar += glyph * n
        lines.append(f"{label.rjust(label_w)} |{bar:<{width}}| {total:.3g} {unit}")
    return "\n".join(lines)
