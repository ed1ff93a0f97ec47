"""Quantitative fidelity scoring: reproduction versus digitized paper.

Three ingredients, combined into one per-figure verdict:

* **curve deviation** — for every reference series matched by (panel
  key, series name), the reproduction is resampled onto the reference
  grid (after the figure's declared x/y normalization) and scored as
  normalized RMSE (RMSE over the reference's value range);
* **trend agreement** — the fraction of consecutive reference segments
  whose direction (up / down / flat) the reproduction matches; on bar
  panels this degrades gracefully into ordering agreement;
* **checks** — the scalar relations the figure demonstrates (HPCC's
  short-flow tail below DCQCN's, the queue does drain, ...), evaluated
  against the render hook's ``stats`` dict.

Thresholds live *in the refdata file*, per figure, because the tolerable
deviation depends on what the figure claims: a shape-only comparison
across a 10x scale shrink legitimately tolerates more RMSE than a
dimensionless-slowdown ordering.  The extraction notes record each
file's calibration rationale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .figures import FigureRender
from .refdata import RefCheck, RefFigure, RefSeries

VERDICTS = ("pass", "warn", "fail")

#: Relative tolerance under which a segment counts as "flat" for trend
#: direction matching (fraction of the curve's value range).
FLAT_TOL = 0.02


@dataclass
class SeriesScore:
    panel: str
    name: str
    matched: bool
    nrmse: float | None = None
    trend: float | None = None


@dataclass
class CheckScore:
    id: str
    passed: bool
    detail: str
    note: str = ""


@dataclass
class FidelityScore:
    """One figure's reproduction-fidelity summary."""

    figure: str
    verdict: str
    series: list[SeriesScore] = field(default_factory=list)
    checks: list[CheckScore] = field(default_factory=list)
    nrmse: float | None = None          # mean over matched series
    trend: float | None = None          # mean over matched series
    check_fraction: float | None = None
    #: Checks whose ``backends`` scope excludes a backend the figure ran
    #: on: listed with their reason, never scored.
    out_of_scope: list[CheckScore] = field(default_factory=list)

    @property
    def missing_series(self) -> list[str]:
        return [f"{s.panel}/{s.name}" for s in self.series if not s.matched]

    def summary(self) -> str:
        parts = [f"verdict={self.verdict}"]
        if self.nrmse is not None:
            parts.append(f"nrmse={self.nrmse:.3f}")
        if self.trend is not None:
            parts.append(f"trend={self.trend:.2f}")
        if self.check_fraction is not None:
            done = sum(1 for c in self.checks if c.passed)
            parts.append(f"checks={done}/{len(self.checks)}")
        return " ".join(parts)


# -- curve comparison -------------------------------------------------------------

def _normalize_y(values: list[float]) -> list[float]:
    peak = max((abs(v) for v in values), default=0.0)
    if peak == 0.0:
        return list(values)
    return [v / peak for v in values]


def _normalize_x(xs: list[float], mode: str) -> list[float]:
    if mode == "index":
        return [float(i) for i in range(len(xs))]
    if mode == "span":
        lo, hi = min(xs), max(xs)
        span = hi - lo
        if span == 0.0:
            return [0.0 for _ in xs]
        return [(x - lo) / span for x in xs]
    return list(xs)


def resample(
    x_ref: list[float], x_rep: list[float], y_rep: list[float]
) -> list[float]:
    """Linearly interpolate the reproduction onto the reference grid.

    Reference points outside the reproduction's x-domain clamp to the
    nearest endpoint value (bench runs can be shorter than the paper's
    window; extrapolating would invent data).
    """
    if not x_rep:
        return [math.nan for _ in x_ref]
    out = []
    for xr in x_ref:
        if xr <= x_rep[0]:
            out.append(y_rep[0])
            continue
        if xr >= x_rep[-1]:
            out.append(y_rep[-1])
            continue
        # x_rep is sorted (time axes, bucket ordinals); find the segment.
        lo, hi = 0, len(x_rep) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if x_rep[mid] <= xr:
                lo = mid
            else:
                hi = mid
        x0, x1 = x_rep[lo], x_rep[hi]
        if x1 == x0:
            out.append(y_rep[lo])
        else:
            frac = (xr - x0) / (x1 - x0)
            out.append(y_rep[lo] + frac * (y_rep[hi] - y_rep[lo]))
    return out


def nrmse(reference: list[float], reproduced: list[float]) -> float:
    """RMSE normalized by the reference's value range.

    The denominator is floored at 10% of the reference's peak magnitude
    (1.0 for an all-zero reference): a *flat* reference curve — e.g.
    "the three HPCC bars are near-identical" — would otherwise divide by
    a sliver of noise and report huge deviation for a reproduction that
    is also flat.  With the floor, flat-vs-flat compares on absolute
    deviation relative to the curve's own scale.
    """
    if len(reference) != len(reproduced) or not reference:
        raise ValueError("nrmse needs two equal-length non-empty sequences")
    peak = max(abs(v) for v in reference)
    span = max(max(reference) - min(reference), 0.1 * peak) or 1.0
    total = 0.0
    for r, p in zip(reference, reproduced):
        total += (r - p) ** 2
    return math.sqrt(total / len(reference)) / span


def trend_agreement(reference: list[float], reproduced: list[float]) -> float:
    """Fraction of reference segments whose direction the repro matches.

    Direction is up / down / flat, with "flat" meaning the segment moves
    less than :data:`FLAT_TOL` of the curve's own range.  A single-point
    series has no segments and scores 1.0 (nothing to disagree with).
    """
    if len(reference) != len(reproduced):
        raise ValueError("trend_agreement needs equal-length sequences")
    if len(reference) < 2:
        return 1.0

    def directions(values: list[float]) -> list[int]:
        span = max(values) - min(values)
        tol = FLAT_TOL * span if span > 0 else 0.0
        out = []
        for a, b in zip(values, values[1:]):
            delta = b - a
            if abs(delta) <= tol:
                out.append(0)
            else:
                out.append(1 if delta > 0 else -1)
        return out

    ref_dir = directions(reference)
    rep_dir = directions(reproduced)
    agree = sum(1 for r, p in zip(ref_dir, rep_dir) if r == p)
    return agree / len(ref_dir)


def score_series(
    ref: RefSeries, render: FigureRender, x_mode: str, y_mode: str
) -> SeriesScore:
    panel = render.panel(ref.panel)
    series = panel.series_named(ref.name) if panel is not None else None
    if series is None or not series.x:
        return SeriesScore(panel=ref.panel, name=ref.name, matched=False)
    x_ref = _normalize_x(list(ref.x), x_mode)
    x_rep = _normalize_x(list(series.x), x_mode)
    y_ref = list(ref.y)
    y_rep = resample(x_ref, x_rep, [float(v) for v in series.y])
    if y_mode == "max":
        y_ref = _normalize_y(y_ref)
        y_rep = _normalize_y(y_rep)
    return SeriesScore(
        panel=ref.panel, name=ref.name, matched=True,
        nrmse=nrmse(y_ref, y_rep),
        trend=trend_agreement(y_ref, y_rep),
    )


# -- checks -----------------------------------------------------------------------

def _resolve(value: str | float | None, stats: dict) -> float | None:
    if value is None:
        return None
    if isinstance(value, str):
        got = stats.get(value)
        return None if got is None else float(got)
    return float(value)


def evaluate_check(check: RefCheck, stats: dict) -> CheckScore:
    lhs = _resolve(check.stat, stats)
    if lhs is None or (check.type != "finite" and math.isnan(lhs)):
        return CheckScore(
            id=check.id, passed=False,
            detail=f"stat {check.stat!r} missing from render stats",
            note=check.note,
        )
    if check.type == "finite":
        ok = math.isfinite(lhs)
        return CheckScore(
            id=check.id, passed=ok,
            detail=f"{check.stat} = {lhs:g} ({'finite' if ok else 'not finite'})",
            note=check.note,
        )
    if check.type == "between":
        ok = check.lo <= lhs <= check.hi
        return CheckScore(
            id=check.id, passed=ok,
            detail=f"{check.stat} = {lhs:g} in [{check.lo:g}, {check.hi:g}]: {ok}",
            note=check.note,
        )
    rhs = _resolve(check.than, stats)
    if rhs is None or math.isnan(rhs):
        return CheckScore(
            id=check.id, passed=False,
            detail=f"comparand {check.than!r} missing from render stats",
            note=check.note,
        )
    rhs_scaled = rhs * check.factor
    op = {"le": lhs <= rhs_scaled, "lt": lhs < rhs_scaled,
          "ge": lhs >= rhs_scaled, "gt": lhs > rhs_scaled}[check.type]
    shown_rhs = (
        f"{check.factor:g} x {check.than} ({rhs_scaled:g})"
        if check.factor != 1.0 else f"{rhs_scaled:g}"
    )
    return CheckScore(
        id=check.id, passed=op,
        detail=f"{check.stat} = {lhs:g} {check.type} {shown_rhs}: {op}",
        note=check.note,
    )


# -- the combined score -----------------------------------------------------------

def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _tier_ok(score: "FidelityScore", tier: dict) -> bool:
    if "nrmse" in tier and score.nrmse is not None \
            and score.nrmse > tier["nrmse"]:
        return False
    if "trend" in tier and score.trend is not None \
            and score.trend < tier["trend"]:
        return False
    if "checks" in tier and score.check_fraction is not None \
            and score.check_fraction < tier["checks"]:
        return False
    return True


def score_figure(render: FigureRender, ref: RefFigure,
                 backends: set[str] | None = None) -> FidelityScore:
    """Score one rendered figure against its reference bundle.

    ``backends`` is the set the figure's cells ran on; a check counts
    only when its scope lists every one of them (``None`` scores all).
    """
    x_mode = ref.normalize.get("x", "none")
    y_mode = ref.normalize.get("y", "none")
    series = [
        score_series(rs, render, x_mode, y_mode) for rs in ref.series
    ]
    checks, out_of_scope = [], []
    for c in ref.checks:
        if backends and c.backends and not backends <= set(c.backends):
            out_of_scope.append(CheckScore(
                id=c.id, passed=False, note=c.note,
                detail=f"not scored on {'+'.join(sorted(backends))}: "
                       f"{c.note}",
            ))
        else:
            checks.append(evaluate_check(c, render.stats))

    score = FidelityScore(
        figure=ref.figure,
        verdict="fail",
        series=series,
        checks=checks,
        out_of_scope=out_of_scope,
        nrmse=_mean([s.nrmse for s in series if s.matched]),
        trend=_mean([s.trend for s in series if s.matched]),
        check_fraction=(
            sum(1 for c in checks if c.passed) / len(checks)
            if checks else None
        ),
    )
    if score.missing_series:
        # A digitized curve the reproduction never produced can at best
        # warn: the comparison is incomplete, not merely imprecise.
        score.verdict = (
            "warn" if _tier_ok(score, ref.thresholds["warn"]) else "fail"
        )
        return score
    if _tier_ok(score, ref.thresholds["pass"]):
        score.verdict = "pass"
    elif _tier_ok(score, ref.thresholds["warn"]):
        score.verdict = "warn"
    return score
