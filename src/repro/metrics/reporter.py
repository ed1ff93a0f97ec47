"""Plain-text rendering of results: aligned tables and ASCII charts.

Every experiment driver and benchmark prints through these helpers so the
output mirrors the paper's figures (rows per flow-size bucket, series per
scheme) without any plotting dependency.
"""

from __future__ import annotations

from typing import Sequence

from .fct import BucketStats


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.2f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_bucket_table(
    stats_by_label: dict[str, list[BucketStats]],
    percentile_attr: str = "p95",
    title: str | None = None,
) -> str:
    """One row per flow-size bucket, one column per scheme (paper style)."""
    all_buckets: list[tuple[int, int]] = []
    for stats in stats_by_label.values():
        for s in stats:
            key = (s.lo, s.hi)
            if key not in all_buckets:
                all_buckets.append(key)
    all_buckets.sort()
    headers = ["size<="] + list(stats_by_label)
    rows = []
    for lo, hi in all_buckets:
        row: list[object] = [BucketStats(lo, hi, 0, 0, 0, 0, 0).label]
        for label, stats in stats_by_label.items():
            match = next((s for s in stats if (s.lo, s.hi) == (lo, hi)), None)
            row.append(
                f"{getattr(match, percentile_attr):.2f}" if match else "-"
            )
        rows.append(row)
    return format_table(headers, rows, title=title)


def ascii_series(
    times: Sequence[float],
    values: Sequence[float],
    width: int = 72,
    height: int = 12,
    label: str = "",
    t_unit: float = 1.0,
) -> str:
    """A small ASCII line chart (used by the examples)."""
    if not times or not values or len(times) != len(values):
        return f"{label}: (no data)"
    v_max = max(values) or 1.0
    t_min, t_max = times[0], times[-1]
    span = (t_max - t_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, v in zip(times, values):
        x = min(width - 1, int((t - t_min) / span * (width - 1)))
        y = min(height - 1, int(v / v_max * (height - 1)))
        grid[height - 1 - y][x] = "*"
    lines = [f"{label}  (max={v_max:.2f})"] if label else []
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append(
        "+" + "-" * width
        + f"  t: {t_min / t_unit:.1f} .. {t_max / t_unit:.1f}"
    )
    return "\n".join(lines)
