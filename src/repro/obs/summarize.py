"""Reader side of the telemetry format: ``hpcc-repro tele summarize``.

Parses a telemetry JSONL file (tolerating torn/invalid lines, which it
counts instead of aborting on), validates each record against
:mod:`repro.obs.schema`, and aggregates:

* per-run span durations (count / total / max per span name),
* final counter totals per run,
* gauge statistics (samples / min / mean / max per gauge name),
* event and histogram tallies.

The text rendering is deliberately plain — one section per category,
aligned columns — because the JSONL itself is the machine interface;
this command is for humans eyeballing a run.
"""

from __future__ import annotations

import json
from pathlib import Path

from .schema import json_number, validate_record


def read_jsonl(path: str | Path) -> tuple[list[dict], list[tuple[int, str]]]:
    """Parse + validate ``path``; return (records, [(lineno, error)]).

    A rejected ``meta`` line is not skipped but raised as ``ValueError``:
    it declares a schema or version this reader does not read, so every
    record after it would be interpreted under the wrong layout.
    """
    records: list[dict] = []
    errors: list[tuple[int, str]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                errors.append((lineno, "not valid JSON"))
                continue
            err = validate_record(obj)
            if err is not None:
                if isinstance(obj, dict) and obj.get("kind") == "meta":
                    raise ValueError(f"line {lineno}: {err}")
                errors.append((lineno, err))
                continue
            records.append(obj)
    return records, errors


def _num(value) -> float:
    """Decode a schema number (strings spell non-finite floats)."""
    return float(value) if not isinstance(value, str) else float(value)


def summarize(records: list[dict]) -> dict:
    """Aggregate validated records into the summary structure."""
    runs: dict[str, dict] = {}
    spans: dict[str, list[float]] = {}
    gauges: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    events: dict[str, int] = {}
    hists: dict[str, dict[str, float]] = {}
    decisions: dict[str, dict] = {}
    for rec in records:
        kind = rec["kind"]
        if kind == "meta":
            runs.setdefault(rec["run_id"], dict(rec.get("labels", {})))
            continue
        runs.setdefault(rec["run_id"], {})
        name = rec["name"]
        if kind == "span":
            spans.setdefault(name, []).append(_num(rec["dur"]))
        elif kind == "gauge":
            gauges.setdefault(name, []).append(_num(rec["value"]))
        elif kind == "counter":
            counters[name] = counters.get(name, 0) + _num(rec["value"])
        elif kind == "event":
            events[name] = events.get(name, 0) + 1
        elif kind == "hist":
            total = hists.setdefault(name, {})
            for bucket, count in rec["buckets"].items():
                total[bucket] = total.get(bucket, 0) + _num(count)
        elif kind == "decision":
            scheme = rec["scheme"]
            agg = decisions.setdefault(
                scheme, {"count": 0, "flows": set(), "branches": {}}
            )
            agg["count"] += 1
            agg["flows"].add(rec["flow"])
            branch = rec.get("branch") or rec["event"]
            agg["branches"][branch] = agg["branches"].get(branch, 0) + 1
    return {"runs": runs, "spans": spans, "gauges": gauges,
            "counters": counters, "events": events, "hists": hists,
            "decisions": decisions}


def format_summary(path: str | Path, summary: dict,
                   errors: list[tuple[int, str]]) -> str:
    """Render the aggregate as the ``tele summarize`` text report."""
    lines = [f"telemetry summary: {path}", f"  runs: {len(summary['runs'])}"]
    if errors:
        lines.append(f"  invalid lines skipped: {len(errors)} "
                     f"(first: line {errors[0][0]}: {errors[0][1]})")

    if summary["spans"]:
        lines.append("spans (name: n / total / max):")
        for name in sorted(summary["spans"]):
            durs = summary["spans"][name]
            lines.append(f"  {name:<24} {len(durs):>5}  "
                         f"{sum(durs):>9.3f}s  {max(durs):>8.3f}s")
    if summary["counters"]:
        lines.append("counters (totals across runs):")
        for name in sorted(summary["counters"]):
            lines.append(f"  {name:<32} {summary['counters'][name]:>14,.0f}")
    if summary["gauges"]:
        lines.append("gauges (name: samples / min / mean / max):")
        for name in sorted(summary["gauges"]):
            values = summary["gauges"][name]
            lines.append(
                f"  {name:<24} {len(values):>5}  {min(values):>12,.1f}  "
                f"{sum(values) / len(values):>12,.1f}  {max(values):>12,.1f}")
    if summary["hists"]:
        lines.append("histograms (summed buckets):")
        for name in sorted(summary["hists"]):
            buckets = summary["hists"][name]
            body = "  ".join(f"{b}={int(n)}" for b, n in buckets.items())
            lines.append(f"  {name:<24} {body}")
    if summary["events"]:
        lines.append("events:")
        for name in sorted(summary["events"]):
            lines.append(f"  {name:<32} {summary['events'][name]:>6}")
    if summary.get("decisions"):
        lines.append("decisions (scheme: n / flows / branches):")
        for scheme in sorted(summary["decisions"]):
            agg = summary["decisions"][scheme]
            branches = "  ".join(
                f"{b}={n}" for b, n in sorted(agg["branches"].items())
            )
            lines.append(f"  {scheme:<24} {agg['count']:>6}  "
                         f"{len(agg['flows']):>4} flows  {branches}")
    return "\n".join(lines)


def summary_to_json(path: str | Path, summary: dict,
                    errors: list[tuple[int, str]]) -> dict:
    """The aggregate as a JSON-able structure (``tele summarize --json``).

    Per-kind, per-metric aggregates: spans and gauges carry their
    distribution stats, counters/events their totals, histograms their
    summed buckets, decisions their per-scheme branch tallies.
    """
    spans = {
        name: {"count": len(durs), "total_s": json_number(sum(durs)),
               "max_s": json_number(max(durs))}
        for name, durs in sorted(summary["spans"].items())
    }
    gauges = {
        name: {
            "samples": len(vals), "min": json_number(min(vals)),
            "mean": json_number(sum(vals) / len(vals)),
            "max": json_number(max(vals)),
        }
        for name, vals in sorted(summary["gauges"].items())
    }
    decisions = {
        scheme: {
            "count": agg["count"],
            "flows": len(agg["flows"]),
            "branches": dict(sorted(agg["branches"].items())),
        }
        for scheme, agg in sorted(summary.get("decisions", {}).items())
    }
    return {
        "path": str(path),
        "runs": {run: dict(labels) for run, labels in summary["runs"].items()},
        "invalid_lines": [
            {"line": lineno, "error": err} for lineno, err in errors
        ],
        "spans": spans,
        "gauges": gauges,
        "counters": {
            name: json_number(value)
            for name, value in sorted(summary["counters"].items())
        },
        "events": dict(sorted(summary["events"].items())),
        "hists": {
            name: {b: json_number(n) for b, n in buckets.items()}
            for name, buckets in sorted(summary["hists"].items())
        },
        "decisions": decisions,
    }


def summarize_file(path: str | Path,
                   as_json: bool = False) -> tuple[str, int]:
    """Summarize ``path``; return (text, exit status for the CLI).

    With ``as_json`` the text is a machine-readable JSON document of
    per-kind/per-metric aggregates instead of the human rendering.
    """
    try:
        records, errors = read_jsonl(path)
    except (OSError, ValueError) as exc:
        if as_json:
            return json.dumps({"path": str(path), "error": str(exc)}), 1
        return f"cannot read {path}: {exc}", 1
    if not records:
        if as_json:
            return json.dumps({"path": str(path),
                               "error": "no valid telemetry records"}), 1
        return f"{path}: no valid telemetry records", 1
    summary = summarize(records)
    if as_json:
        return json.dumps(summary_to_json(path, summary, errors),
                          indent=2, sort_keys=True, allow_nan=False), 0
    return format_summary(path, summary, errors), 0
