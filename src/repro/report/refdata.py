"""Typed loader for the digitized paper reference data.

Each JSON file under ``refdata/`` captures one SIGCOMM'19 figure:
digitized curve points (``series``), scalar relations the figure
demonstrates (``checks``), the pass/warn thresholds the fidelity scorer
applies (``thresholds``), and free-text ``extraction`` notes recording
how the numbers were read off the published PDF.

The schema is deliberately small and fully validated
(:func:`validate_refdata`): a checked-in reference file that drifts from
the schema fails the test suite, not the report build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..runner.spec import BACKENDS

REFDATA_DIR = Path(__file__).parent / "refdata"

#: Allowed ``normalize`` modes.  ``x``: ``index`` aligns curves by sample
#: ordinal (bucket deciles), ``span`` rescales each curve's x to [0, 1]
#: (time axes with different run lengths), ``none`` compares raw x.
#: ``y``: ``max`` rescales each curve by its own peak (shape
#: comparison across absolute-scale gaps), ``none`` compares raw values.
X_MODES = ("none", "index", "span")
Y_MODES = ("none", "max")

CHECK_TYPES = ("le", "lt", "ge", "gt", "between", "finite")


@dataclass(frozen=True)
class RefSeries:
    """One digitized curve, addressed by (panel key, series name)."""

    panel: str
    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    note: str = ""


@dataclass(frozen=True)
class RefCheck:
    """A scalar relation the paper figure demonstrates.

    * ``le``/``lt``/``ge``/``gt`` — compare ``stat`` against ``than``
      (another stat key or a literal number) scaled by ``factor``;
    * ``between`` — ``lo <= stat <= hi``;
    * ``finite`` — the stat exists and is finite (e.g. "the queue does
      drain": drain time is not ``inf``).

    ``backends`` (``None``: all) names the backends that can show the
    claim; a figure whose cells ran on any other backend reports the
    check as out of scope, with ``note`` as the reason, instead of
    scoring it.
    """

    id: str
    type: str
    stat: str
    than: str | float | None = None
    factor: float = 1.0
    lo: float | None = None
    hi: float | None = None
    note: str = ""
    backends: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RefFigure:
    """One paper figure's reference bundle."""

    figure: str
    title: str
    source: str
    extraction: str
    series: tuple[RefSeries, ...]
    checks: tuple[RefCheck, ...]
    thresholds: dict
    normalize: dict = field(default_factory=lambda: {"x": "none", "y": "none"})
    units: dict = field(default_factory=dict)

    def series_for(self, panel: str) -> list[RefSeries]:
        return [s for s in self.series if s.panel == panel]

    def panel_keys(self) -> list[str]:
        keys: list[str] = []
        for s in self.series:
            if s.panel not in keys:
                keys.append(s.panel)
        return keys


class RefdataError(ValueError):
    """A reference file violates the refdata schema."""


def _fail(figure: str, message: str) -> None:
    raise RefdataError(f"refdata {figure!r}: {message}")


def _require_numbers(figure: str, where: str, values) -> tuple[float, ...]:
    if not isinstance(values, list) or not values:
        _fail(figure, f"{where} must be a non-empty list of numbers")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(figure, f"{where} contains non-numeric value {v!r}")
        out.append(float(v))
    return tuple(out)


def validate_refdata(data: dict) -> RefFigure:
    """Validate one decoded refdata JSON document; return the typed form."""
    figure = data.get("figure")
    if not isinstance(figure, str) or not figure:
        raise RefdataError("refdata document missing a 'figure' string")
    for key in ("title", "source", "extraction"):
        if not isinstance(data.get(key), str) or not data[key]:
            _fail(figure, f"missing required string field {key!r}")

    normalize = data.get("normalize", {"x": "none", "y": "none"})
    if not isinstance(normalize, dict):
        _fail(figure, "'normalize' must be an object")
    x_mode = normalize.get("x", "none")
    y_mode = normalize.get("y", "none")
    if x_mode not in X_MODES:
        _fail(figure, f"normalize.x {x_mode!r} not in {X_MODES}")
    if y_mode not in Y_MODES:
        _fail(figure, f"normalize.y {y_mode!r} not in {Y_MODES}")

    raw_series = data.get("series", [])
    if not isinstance(raw_series, list):
        _fail(figure, "'series' must be a list")
    series = []
    seen: set[tuple[str, str]] = set()
    for i, entry in enumerate(raw_series):
        if not isinstance(entry, dict):
            _fail(figure, f"series[{i}] must be an object")
        panel, name = entry.get("panel"), entry.get("name")
        if not isinstance(panel, str) or not isinstance(name, str):
            _fail(figure, f"series[{i}] needs string 'panel' and 'name'")
        if (panel, name) in seen:
            _fail(figure, f"duplicate series ({panel!r}, {name!r})")
        seen.add((panel, name))
        x = _require_numbers(figure, f"series[{i}].x", entry.get("x"))
        y = _require_numbers(figure, f"series[{i}].y", entry.get("y"))
        if len(x) != len(y):
            _fail(figure, f"series[{i}]: x has {len(x)} points, y {len(y)}")
        series.append(RefSeries(
            panel=panel, name=name, x=x, y=y,
            note=str(entry.get("note", "")),
        ))

    raw_checks = data.get("checks", [])
    if not isinstance(raw_checks, list):
        _fail(figure, "'checks' must be a list")
    checks = []
    check_ids: set[str] = set()
    for i, entry in enumerate(raw_checks):
        if not isinstance(entry, dict):
            _fail(figure, f"checks[{i}] must be an object")
        cid, ctype = entry.get("id"), entry.get("type")
        if not isinstance(cid, str) or not cid:
            _fail(figure, f"checks[{i}] needs a string 'id'")
        if cid in check_ids:
            _fail(figure, f"duplicate check id {cid!r}")
        check_ids.add(cid)
        if ctype not in CHECK_TYPES:
            _fail(figure, f"checks[{i}].type {ctype!r} not in {CHECK_TYPES}")
        if not isinstance(entry.get("stat"), str):
            _fail(figure, f"checks[{i}] needs a string 'stat'")
        than = entry.get("than")
        if ctype in ("le", "lt", "ge", "gt"):
            if not isinstance(than, (str, int, float)) or isinstance(than, bool):
                _fail(figure,
                      f"checks[{i}] ({ctype}) needs 'than': stat key or number")
        lo, hi = entry.get("lo"), entry.get("hi")
        if ctype == "between":
            for bound, value in (("lo", lo), ("hi", hi)):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    _fail(figure, f"checks[{i}] (between) needs numeric {bound!r}")
        factor = entry.get("factor", 1.0)
        if isinstance(factor, bool) or not isinstance(factor, (int, float)):
            _fail(figure, f"checks[{i}].factor must be a number")
        backends = entry.get("backends")
        if backends is not None and (
                not isinstance(backends, list) or not backends
                or any(b not in BACKENDS for b in backends)):
            _fail(figure, f"checks[{i}].backends must be a non-empty list "
                          f"of names from {BACKENDS}")
        checks.append(RefCheck(
            id=cid, type=ctype, stat=entry["stat"],
            than=float(than) if isinstance(than, (int, float)) else than,
            factor=float(factor),
            lo=None if lo is None else float(lo),
            hi=None if hi is None else float(hi),
            note=str(entry.get("note", "")),
            backends=None if backends is None else tuple(backends),
        ))

    thresholds = data.get("thresholds")
    if not isinstance(thresholds, dict):
        _fail(figure, "'thresholds' must be an object")
    for tier in ("pass", "warn"):
        tier_data = thresholds.get(tier)
        if not isinstance(tier_data, dict):
            _fail(figure, f"thresholds.{tier} must be an object")
        for metric, value in tier_data.items():
            if metric not in ("nrmse", "trend", "checks"):
                _fail(figure, f"unknown threshold metric {metric!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _fail(figure, f"thresholds.{tier}.{metric} must be a number")

    if not series and not checks:
        _fail(figure, "needs at least one series or one check")

    units = data.get("units", {})
    if not isinstance(units, dict):
        _fail(figure, "'units' must be an object")

    return RefFigure(
        figure=figure,
        title=data["title"],
        source=data["source"],
        extraction=data["extraction"],
        series=tuple(series),
        checks=tuple(checks),
        thresholds=thresholds,
        normalize={"x": x_mode, "y": y_mode},
        units=units,
    )


def refdata_path(figure: str) -> Path:
    return REFDATA_DIR / f"{figure}.json"


def available_refdata() -> list[str]:
    """Figure keys with a checked-in reference file, sorted."""
    return sorted(p.stem for p in REFDATA_DIR.glob("*.json"))


def load_refdata(figure: str) -> RefFigure | None:
    """Load and validate one figure's reference data (None if absent)."""
    path = refdata_path(figure)
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    ref = validate_refdata(data)
    if ref.figure != figure:
        raise RefdataError(
            f"refdata file {path.name} declares figure {ref.figure!r}"
        )
    return ref
