"""Self-contained HTML assembly for the reproduction report.

One ``index.html``, no network fetches: every chart is an inline SVG
(also written next to it as a standalone ``.svg`` file), the stylesheet
is embedded, and the fidelity tables are plain HTML.  Layout per figure:
reproduction panels on the left, the digitized paper reference on the
right, fidelity badge + metric table underneath.  After the figures, a
"Run telemetry" panel shows what the build cost (per-figure wall time
and engine events/s, with the BENCH_pr*.json substrate-throughput trend
for context) and the benchmark-trajectory chart closes the page.
"""

from __future__ import annotations

import html as _html
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .build import FigureReport, Report

BADGE_COLORS = {
    "pass": "#2e7d32",
    "warn": "#b26a00",
    "fail": "#c62828",
    "n/a": "#757575",
}

_CSS = """
body { font-family: -apple-system, "Segoe UI", Helvetica, Arial, sans-serif;
       margin: 0 auto; max-width: 1080px; padding: 24px; color: #1a1a1a; }
h1 { font-size: 26px; margin-bottom: 4px; }
h2 { font-size: 20px; border-bottom: 2px solid #eee; padding-bottom: 4px;
     margin-top: 40px; }
.meta { color: #555; font-size: 13px; margin-bottom: 24px; }
.meta td { padding: 1px 12px 1px 0; }
.badge { display: inline-block; color: white; border-radius: 4px;
         padding: 2px 10px; font-size: 12px; font-weight: 600;
         vertical-align: middle; margin-left: 8px; }
.panels { display: grid; grid-template-columns: 1fr 1fr; gap: 12px;
          align-items: start; }
.panels .column h3 { font-size: 13px; color: #666; text-transform: uppercase;
                     letter-spacing: 0.06em; margin: 8px 0 4px; }
.panels svg { max-width: 100%; height: auto; border: 1px solid #eee; }
table.fidelity { border-collapse: collapse; font-size: 13px; margin: 10px 0; }
table.fidelity th, table.fidelity td { border: 1px solid #ddd;
         padding: 4px 10px; text-align: left; }
table.fidelity th { background: #f7f7f7; }
.check-pass { color: #2e7d32; font-weight: 600; }
.check-fail { color: #c62828; font-weight: 600; }
.note { color: #666; font-size: 12px; }
.extraction { background: #f7f7f2; border-left: 3px solid #ccc;
              font-size: 12px; color: #555; padding: 6px 10px; margin: 8px 0; }
"""


def esc(text: str) -> str:
    return _html.escape(str(text), quote=True)


def badge(verdict: str) -> str:
    color = BADGE_COLORS.get(verdict, BADGE_COLORS["n/a"])
    return (
        f'<span class="badge" style="background:{color}">'
        f"{esc(verdict.upper())}</span>"
    )


def _fidelity_tables(fig: "FigureReport") -> str:
    score = fig.score
    if score is None:
        return (
            '<p class="note">No digitized reference data for this figure; '
            "fidelity not scored.</p>"
        )
    parts = []
    if score.series:
        rows = []
        for s in score.series:
            if s.matched:
                rows.append(
                    f"<tr><td>{esc(s.panel)}/{esc(s.name)}</td>"
                    f"<td>{s.nrmse:.3f}</td><td>{s.trend:.2f}</td></tr>"
                )
            else:
                rows.append(
                    f"<tr><td>{esc(s.panel)}/{esc(s.name)}</td>"
                    '<td colspan="2" class="check-fail">missing from '
                    "reproduction</td></tr>"
                )
        parts.append(
            '<table class="fidelity"><tr><th>reference curve</th>'
            "<th>nRMSE</th><th>trend agreement</th></tr>"
            + "".join(rows) + "</table>"
        )
    if score.checks or score.out_of_scope:
        rows = []
        for c in score.checks:
            cls = "check-pass" if c.passed else "check-fail"
            word = "pass" if c.passed else "FAIL"
            note = f'<div class="note">{esc(c.note)}</div>' if c.note else ""
            rows.append(
                f"<tr><td>{esc(c.id)}</td>"
                f'<td class="{cls}">{word}</td>'
                f"<td>{esc(c.detail)}{note}</td></tr>"
            )
        rows += [
            f'<tr><td>{esc(c.id)}</td><td class="note">n/a</td>'
            f"<td>{esc(c.detail)}</td></tr>"
            for c in score.out_of_scope
        ]
        parts.append(
            '<table class="fidelity"><tr><th>check</th><th>result</th>'
            "<th>detail</th></tr>" + "".join(rows) + "</table>"
        )
    return "".join(parts)


def _divergence_table(fig: "FigureReport") -> str:
    """The fig13 drilldown: per-flow packet-vs-fluid decision diff."""
    div = fig.divergence
    if not div:
        return ""
    s = div["summary"]
    agreement = s.get("attribution_agreement")
    intro = (
        f'<p class="note">Control-loop flight recorder: the same scenario '
        f"({esc(div.get('spec', {}).get('cc', ''))}, "
        f"{s['flows_compared']} flows) run on both backends with the "
        f"decision tap attached; rate trajectories compared at a "
        f"{div['threshold']:.0%} relative-gap threshold. "
        "Machine-readable copy: <code>divergence.json</code>; "
        "rerun ad hoc with <code>hpcc-repro trace diff</code>.</p>"
    )
    rows = []
    for flow_id, entry in div["flows"].items():
        err = entry["time_weighted_rate_error"]
        first = entry["first_divergence_ns"]
        attr = entry["attribution"]
        err_cell = f"{err:.2%}" if err is not None else "&mdash;"
        first_cell = (f"{first / 1000.0:.2f}us" if first is not None
                      else "never")
        attr_cell = (f"{attr['agree']}/{attr['compared']}" if attr
                     else "&mdash;")
        rows.append(
            f"<tr><td>{esc(flow_id)}</td>"
            f"<td>{entry['packet_decisions']}</td>"
            f"<td>{entry['fluid_decisions']}</td>"
            f"<td>{err_cell}</td><td>{first_cell}</td>"
            f"<td>{attr_cell}</td></tr>"
        )
    foot = ""
    if agreement is not None:
        foot = (
            f'<p class="note">Bottleneck attribution: both backends blamed '
            f"the same hop for {agreement:.1%} of "
            f"{s['attribution_compared']} compared decisions.</p>"
        )
    return (
        "<h3>Backend decision divergence</h3>" + intro
        + '<table class="fidelity"><tr><th>flow</th><th>packet decisions</th>'
        "<th>fluid decisions</th><th>time-weighted rate error</th>"
        "<th>first divergence</th><th>attribution agree</th></tr>"
        + "".join(rows) + "</table>" + foot
    )


def _figure_section(fig: "FigureReport") -> str:
    verdict = fig.score.verdict if fig.score is not None else "n/a"
    failure_badge = ""
    if fig.n_failed:
        failure_badge = (
            f'<span class="badge" style="background:{BADGE_COLORS["fail"]}">'
            f"{fig.n_failed} CELL{'S' if fig.n_failed != 1 else ''} "
            f"FAILED</span>"
        )
    parts = [
        f'<h2 id="{esc(fig.key)}">{esc(fig.title)}{badge(verdict)}'
        f"{failure_badge}</h2>",
        f'<p class="meta">backend: <b>{esc(fig.backend)}</b> &middot; '
        f"scale: {esc(fig.scale)} &middot; {fig.n_specs} scenarios "
        f"({fig.n_cached} cached"
        + (f", {fig.n_failed} failed" if fig.n_failed else "")
        + f") &middot; {fig.wall_time_s:.2f}s</p>",
    ]
    for note in fig.notes:
        parts.append(f'<p class="note">{esc(note)}</p>')
    repro_svgs = "".join(fig.panel_svgs)
    if fig.ref_svgs:
        ref_svgs = "".join(fig.ref_svgs)
        parts.append(
            '<div class="panels"><div class="column">'
            f"<h3>reproduction</h3>{repro_svgs}</div>"
            f'<div class="column"><h3>paper (digitized)</h3>{ref_svgs}</div>'
            "</div>"
        )
    else:
        parts.append(
            f'<div class="panels"><div class="column">'
            f"<h3>reproduction</h3>{repro_svgs}</div></div>"
        )
    parts.append(_fidelity_tables(fig))
    parts.append(_divergence_table(fig))
    if fig.extraction:
        parts.append(
            f'<div class="extraction"><b>extraction notes:</b> '
            f"{esc(fig.extraction)}</div>"
        )
    return "".join(parts)


def _telemetry_section(report: "Report", rate_svg: str | None) -> str:
    """The run-telemetry panel: per-figure build cost + engine trend."""
    rows = []
    for fig in report.figures:
        rate = fig.events_per_s
        rate_cell = f"{rate:,.0f}" if rate is not None else "&mdash; (cached)"
        unit = "steps" if fig.backend == "fluid" else "events"
        rows.append(
            f'<tr><td><a href="#{esc(fig.key)}">{esc(fig.key)}</a></td>'
            f"<td>{esc(fig.backend)}</td>"
            f"<td>{fig.wall_time_s:.2f}</td>"
            f"<td>{fig.n_specs - fig.n_cached}/{fig.n_specs}</td>"
            f"<td>{fig.events_processed:,} {unit}</td>"
            f"<td>{rate_cell}</td></tr>"
        )
    table = (
        '<table class="fidelity"><tr><th>figure</th><th>backend</th>'
        "<th>wall (s)</th><th>computed</th><th>engine work</th>"
        "<th>events/s</th></tr>" + "".join(rows) + "</table>"
    )
    trend = ""
    if rate_svg:
        trend = (
            '<p class="note">Packet-engine substrate throughput (the 200k-'
            "event chain microbench) per checked-in BENCH_pr&lt;N&gt;.json "
            "snapshot &mdash; the baseline the per-figure rates above divide "
            "against.</p>"
            f'<div class="panels"><div class="column">{rate_svg}</div></div>'
        )
    telemetry = report.metadata.get("telemetry")
    note = (
        f'<p class="note">Full probe stream: <code>{esc(telemetry)}</code> '
        "(inspect with <code>hpcc-repro tele summarize</code>).</p>"
        if telemetry else
        '<p class="note">Build again with <code>--telemetry</code> for the '
        "full probe stream (spans, engine gauges, cache stats).</p>"
    )
    return (
        "<h2>Run telemetry</h2>"
        '<p class="note">What this report cost to build: per-figure wall '
        "time and engine work (cached scenarios contribute work but no "
        "wall time; their events/s column shows &mdash;).</p>"
        + table + trend + note
    )


def _summary_table(report: "Report") -> str:
    rows = []
    for fig in report.figures:
        verdict = fig.score.verdict if fig.score is not None else "n/a"
        detail = fig.score.summary() if fig.score is not None else "no refdata"
        rows.append(
            f'<tr><td><a href="#{esc(fig.key)}">{esc(fig.key)}</a></td>'
            f"<td>{esc(fig.backend)}</td><td>{badge(verdict)}</td>"
            f"<td>{esc(detail)}</td></tr>"
        )
    return (
        '<table class="fidelity"><tr><th>figure</th><th>backend</th>'
        "<th>fidelity</th><th>detail</th></tr>" + "".join(rows) + "</table>"
    )


def render_index(report: "Report", bench_svg: str | None,
                 rate_svg: str | None = None) -> str:
    """The whole report as one self-contained HTML document."""
    meta_rows = "".join(
        f"<tr><td>{esc(k)}</td><td>{esc(v)}</td></tr>"
        for k, v in report.metadata.items()
    )
    sections = "".join(_figure_section(fig) for fig in report.figures)
    bench_section = ""
    if bench_svg:
        bench_section = (
            "<h2>Benchmark trajectory</h2>"
            '<p class="note">Wall time of each benchmarks/run_all.py workload '
            "per checked-in BENCH_pr&lt;N&gt;.json snapshot (the series "
            "starts at PR 3; PR 0&ndash;2 predate the convention).</p>"
            f'<div class="panels"><div class="column">{bench_svg}</div></div>'
        )
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>HPCC reproduction report</title>
<style>{_CSS}</style>
</head>
<body>
<h1>HPCC reproduction report</h1>
<p class="meta">Reproduction of &ldquo;HPCC: High Precision Congestion
Control&rdquo; (SIGCOMM 2019) &mdash; side-by-side repro-vs-paper figures
with quantitative fidelity scores.</p>
<table class="meta">{meta_rows}</table>
{_summary_table(report)}
{sections}
{_telemetry_section(report, rate_svg)}
{bench_section}
</body>
</html>
"""
