"""A figure result as plain text: what ``hpcc-repro run`` prints.

The text twin of :mod:`repro.report.html`: the same
:class:`~repro.report.figures.FigureRender` and
:class:`~repro.report.fidelity.FidelityScore` the report draws, as
aligned tables and ASCII charts.
"""

from __future__ import annotations

from ..metrics.reporter import ascii_series, format_table
from .fidelity import FidelityScore
from .figures import FigureRender, Panel

#: Series up to this many points print as a row of values (the
#: per-bucket p95/p99 tables of Figures 2, 3, 10 and 11, bar panels);
#: longer ones (time series, CDFs) as ASCII charts.
ROW_POINTS = 12


def stats_table(render: FigureRender) -> str:
    """The ``stats`` dict pivoted on its ``family/label`` keys: one row
    per label, one column per family (keys without a label share the
    ``-`` row)."""
    families: list[str] = []
    rows: dict[str, dict[str, float]] = {}
    for key, value in render.stats.items():
        family, _, label = key.partition("/")
        if family not in families:
            families.append(family)
        rows.setdefault(label or "-", {})[family] = value
    return format_table(
        [""] + families,
        [
            [label] + [f"{cells[f]:.4g}" if f in cells else "-"
                       for f in families]
            for label, cells in rows.items()
        ],
        title=render.title,
    )


def format_panel(panel: Panel) -> str:
    """One panel: short series as table rows, long ones as charts."""
    short = [s for s in panel.series if len(s.x) <= ROW_POINTS]
    blocks = []
    if short:
        headers: dict[float, str] = {}
        for s in short:
            for i, x in enumerate(s.x):
                headers.setdefault(x, s.labels[i] if s.labels else f"{x:g}")
        xs = sorted(headers)
        rows = []
        for s in short:
            at = dict(zip(s.x, s.y))
            rows.append([s.name] + [
                f"{at[x]:.4g}" if x in at else "-" for x in xs
            ])
        blocks.append(format_table(
            [panel.x_label] + [headers[x] for x in xs], rows,
            title=f"[{panel.key}] {panel.title} — {panel.y_label}",
        ))
    for s in panel.series:
        if len(s.x) > ROW_POINTS:
            blocks.append(ascii_series(
                s.x, s.y,
                label=f"[{panel.key}] {s.name}: {panel.y_label} "
                      f"vs {panel.x_label}",
            ))
    return "\n\n".join(blocks)


def format_render(render: FigureRender) -> str:
    """Stats table, then every panel, then the render's notes."""
    blocks = [stats_table(render)]
    blocks += [format_panel(panel) for panel in render.panels]
    blocks += [f"note: {note}" for note in render.notes]
    return "\n\n".join(blocks)


def format_score(key: str, score: FidelityScore | None) -> str:
    """The fidelity verdict line plus one line per refdata check."""
    if score is None:
        return f"{key}: unscored (no reference data checked in)"
    lines = [f"{key}: {score.summary()}"]
    lines += [
        f"  [{'ok' if check.passed else 'FAIL'}] {check.id}: {check.detail}"
        for check in score.checks
    ]
    lines += [f"  [n/a] {check.id}: {check.detail}"
              for check in score.out_of_scope]
    return "\n".join(lines)
