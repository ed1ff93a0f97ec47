"""The render-hook data model: what one reproduced figure *is*.

Every experiment module declares a ``render(specs, records)`` hook that
maps its :class:`~repro.runner.RunRecord` list into a
:class:`FigureRender` — a backend-neutral bundle of plot panels plus a
flat dict of scalar summary statistics.  The report pipeline
(:mod:`repro.report.build`) feeds the panels to the SVG emitter
(:mod:`repro.report.svg`) and the panels *and* stats to the fidelity
scorer (:mod:`repro.report.fidelity`), which compares them against the
digitized paper curves in :mod:`repro.report.refdata`.

Keep render hooks defensive about backend differences: fluid records
report zero PFC telemetry.  Queue series need no such care: every
backend samples the probes a spec declares in ``measure.sample_ports``
under the declared labels, so ``record.queue_series(label)`` reads the
same queue on each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics.fct import BucketStats

__all__ = [
    "FigureRender",
    "Panel",
    "Series",
    "bucket_panel",
    "cdf_series",
]


@dataclass
class Series:
    """One plotted curve (or bar group member).

    ``kind`` selects the mark: ``"line"`` (polyline over x/y),
    ``"ref"`` (dashed polyline, for digitized paper curves),
    ``"marker"`` (unconnected circles — e.g. decision instants on a
    timeline) or ``"bar"`` (categorical bars; ``x`` is the ordinal
    position and ``labels`` names each position).  ``band`` optionally
    carries a ``(lo, hi)`` envelope drawn as a translucent error band
    behind the line.  Non-finite ``y`` values split a line into
    visibly separate segments (a rendered gap, not an interpolation).
    """

    name: str
    x: list[float]
    y: list[float]
    kind: str = "line"
    labels: list[str] | None = None
    band: tuple[list[float], list[float]] | None = None

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: x has {len(self.x)} points, "
                f"y has {len(self.y)}"
            )


@dataclass
class Panel:
    """One chart of a figure.  ``key`` is the stable identifier the
    refdata JSON references — renaming a title never breaks scoring."""

    key: str
    title: str
    series: list[Series] = field(default_factory=list)
    x_label: str = ""
    y_label: str = ""
    x_log: bool = False

    def series_named(self, name: str) -> Series | None:
        for s in self.series:
            if s.name == name:
                return s
        return None


@dataclass
class FigureRender:
    """Everything the report needs from one reproduced figure."""

    figure: str                 # the CLI key, e.g. "fig11"
    title: str
    panels: list[Panel]
    stats: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def panel(self, key: str) -> Panel | None:
        for p in self.panels:
            if p.key == key:
                return p
        return None


# -- shared series builders -------------------------------------------------------

def bucket_panel(
    key: str,
    title: str,
    per_label: dict[str, list[BucketStats]],
    pct: str = "p95",
    edges: list[int] | None = None,
) -> Panel:
    """A per-size-bucket slowdown panel (the Figure 2/3/10/11 shape).

    X is the bucket ordinal (decile index), which is scale-invariant:
    ``bench`` runs shrink flow sizes by ``size_scale`` but keep the
    decile structure, so curves stay comparable with the paper's.

    Pass the bucket ``edges`` the stats were computed with:
    ``slowdown_by_bucket`` drops empty buckets, so a bare enumeration
    would silently shift every bucket after a gap one ordinal left —
    and index-normalized fidelity scoring would then compare decile k
    against the paper's decile k+1.  With ``edges``, each bucket keeps
    its true decile ordinal even when neighbours are empty.
    """
    series = []
    for label, stats in per_label.items():
        if edges is not None:
            x = [float(edges.index(s.hi)) for s in stats]
        else:
            x = [float(i) for i in range(1, len(stats) + 1)]
        series.append(Series(
            name=label,
            x=x,
            y=[float(getattr(s, pct)) for s in stats],
        ))
    return Panel(
        key=key, title=title, series=series,
        x_label="flow-size bucket (decile)", y_label=f"{pct} FCT slowdown",
    )


def cdf_series(name: str, values: list[float]) -> Series:
    """An empirical CDF as a line series (x = value, y = fraction <= x)."""
    if not values:
        return Series(name=name, x=[], y=[])
    ordered = sorted(values)
    n = len(ordered)
    return Series(
        name=name,
        x=[float(v) for v in ordered],
        y=[(i + 1) / n for i in range(n)],
    )
