"""The report layer: fidelity math, refdata schema, SVG emitter."""

import json
import math
from pathlib import Path

import pytest

from repro.report import (
    FigureRender,
    Panel,
    RefdataError,
    Series,
    available_refdata,
    bucket_panel,
    cdf_series,
    evaluate_check,
    load_refdata,
    nice_ticks,
    nrmse,
    refdata_path,
    render_panel,
    resample,
    score_figure,
    trend_agreement,
    validate_refdata,
)
from repro.report.refdata import RefCheck
from repro.runner import RunRecord, ScenarioSpec

GOLDEN_DIR = Path(__file__).parent / "data"


# -- fidelity math on synthetic curves --------------------------------------------


class TestNrmse:
    def test_identical_curves_score_zero(self):
        ref = [1.0, 2.0, 3.0, 4.0]
        assert nrmse(ref, list(ref)) == 0.0

    def test_known_deviation(self):
        # Constant offset 0.3 against a range-1 reference: nrmse == 0.3.
        ref = [0.0, 0.5, 1.0]
        rep = [0.3, 0.8, 1.3]
        assert nrmse(ref, rep) == pytest.approx(0.3)

    def test_flat_reference_uses_magnitude_floor(self):
        # A flat reference would divide by ~0 range; the 10%-of-peak
        # floor keeps flat-vs-flat comparisons meaningful.
        ref = [10.0, 10.1, 10.0]
        rep = [10.0, 10.1, 10.1]
        assert nrmse(ref, rep) < 0.1

    def test_all_zero_reference(self):
        assert nrmse([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            nrmse([1.0], [1.0, 2.0])


class TestTrendAgreement:
    def test_same_shape_scores_one(self):
        ref = [0.0, 1.0, 2.0, 1.0]
        rep = [0.0, 5.0, 9.0, 2.0]        # same up/up/down pattern
        assert trend_agreement(ref, rep) == 1.0

    def test_opposite_shape_scores_zero(self):
        assert trend_agreement([0.0, 1.0, 2.0], [2.0, 1.0, 0.0]) == 0.0

    def test_single_point_scores_one(self):
        assert trend_agreement([1.0], [5.0]) == 1.0

    def test_flat_segments_match_flat(self):
        ref = [1.0, 1.0, 2.0]
        rep = [3.0, 3.0, 9.0]
        assert trend_agreement(ref, rep) == 1.0


class TestResample:
    def test_interpolates_linearly(self):
        out = resample([0.5], [0.0, 1.0], [0.0, 10.0])
        assert out == [5.0]

    def test_clamps_outside_domain(self):
        out = resample([-1.0, 2.0], [0.0, 1.0], [3.0, 7.0])
        assert out == [3.0, 7.0]

    def test_empty_repro_gives_nan(self):
        assert all(math.isnan(v) for v in resample([0.0, 1.0], [], []))


class TestChecks:
    def test_le_against_stat(self):
        check = RefCheck(id="c", type="le", stat="a", than="b")
        assert evaluate_check(check, {"a": 1.0, "b": 2.0}).passed
        assert not evaluate_check(check, {"a": 3.0, "b": 2.0}).passed

    def test_factor_scales_comparand(self):
        check = RefCheck(id="c", type="ge", stat="a", than="b", factor=2.0)
        assert evaluate_check(check, {"a": 5.0, "b": 2.0}).passed
        assert not evaluate_check(check, {"a": 3.0, "b": 2.0}).passed

    def test_between(self):
        check = RefCheck(id="c", type="between", stat="a", lo=0.0, hi=1.0)
        assert evaluate_check(check, {"a": 0.5}).passed
        assert not evaluate_check(check, {"a": 1.5}).passed

    def test_finite(self):
        check = RefCheck(id="c", type="finite", stat="a")
        assert evaluate_check(check, {"a": 1.0}).passed
        assert not evaluate_check(check, {"a": float("inf")}).passed

    def test_missing_stat_fails_with_detail(self):
        check = RefCheck(id="c", type="le", stat="missing", than=1.0)
        result = evaluate_check(check, {})
        assert not result.passed
        assert "missing" in result.detail

    def test_nan_stat_fails(self):
        check = RefCheck(id="c", type="le", stat="a", than=1.0)
        assert not evaluate_check(check, {"a": float("nan")}).passed


def _ref_doc(**overrides):
    doc = {
        "figure": "figX",
        "title": "t",
        "source": "s",
        "extraction": "e",
        "normalize": {"x": "none", "y": "none"},
        "series": [
            {"panel": "p", "name": "A", "x": [0, 1, 2], "y": [0.0, 1.0, 2.0]},
        ],
        "checks": [
            {"id": "c1", "type": "le", "stat": "a", "than": 1.0},
        ],
        "thresholds": {
            "pass": {"nrmse": 0.2, "checks": 1.0},
            "warn": {"nrmse": 0.5, "checks": 0.5},
        },
    }
    doc.update(overrides)
    return doc


def _render(y, stats):
    return FigureRender(
        figure="figX", title="t",
        panels=[Panel(key="p", title="p", series=[
            Series(name="A", x=[0.0, 1.0, 2.0], y=y),
        ])],
        stats=stats,
    )


class TestScoreFigure:
    def test_perfect_reproduction_passes(self):
        ref = validate_refdata(_ref_doc())
        score = score_figure(_render([0.0, 1.0, 2.0], {"a": 0.5}), ref)
        assert score.verdict == "pass"
        assert score.nrmse == 0.0
        assert score.check_fraction == 1.0

    def test_moderate_deviation_warns(self):
        ref = validate_refdata(_ref_doc())
        score = score_figure(_render([0.6, 1.6, 2.6], {"a": 0.5}), ref)
        assert score.verdict == "warn"

    def test_failed_checks_fail(self):
        ref = validate_refdata(_ref_doc())
        score = score_figure(_render([0.0, 1.0, 2.0], {"a": 5.0}), ref)
        assert score.verdict == "fail"

    def test_missing_series_caps_at_warn(self):
        ref = validate_refdata(_ref_doc())
        render = FigureRender(figure="figX", title="t", panels=[],
                              stats={"a": 0.5})
        score = score_figure(render, ref)
        assert score.verdict == "warn"
        assert score.missing_series == ["p/A"]

    def test_gross_deviation_fails(self):
        ref = validate_refdata(_ref_doc())
        score = score_figure(_render([2.0, 0.0, 5.0], {"a": 0.5}), ref)
        assert score.verdict == "fail"


class TestBackendScope:
    """A check scoped to ``backends`` counts only on figures whose cells
    all ran on listed backends; otherwise it is carried as out of scope."""

    @staticmethod
    def scored(ran_on, scope=("packet",)):
        ref = validate_refdata(_ref_doc(checks=[
            {"id": "c1", "type": "le", "stat": "a", "than": 1.0},
            {"id": "strict", "type": "lt", "stat": "a", "than": 0.1,
             "backends": list(scope), "note": "sub-RTT effect"},
        ]))
        return score_figure(_render([0.0, 1.0, 2.0], {"a": 0.5}), ref, ran_on)

    def test_out_of_scope_on_fluid(self):
        score = self.scored({"fluid"})
        assert [c.id for c in score.checks] == ["c1"]
        assert score.check_fraction == 1.0 and score.verdict == "pass"
        [skipped] = score.out_of_scope
        assert skipped.id == "strict"
        assert skipped.detail == "not scored on fluid: sub-RTT effect"
        assert "checks=1/1" in score.summary()

    def test_scored_on_packet(self):
        score = self.scored({"packet"})
        assert [c.id for c in score.checks] == ["c1", "strict"]
        assert not score.out_of_scope
        assert score.check_fraction == 0.5          # 0.5 < 0.1 fails

    def test_mixed_figure_needs_every_backend_listed(self):
        score = self.scored({"fluid", "hybrid"}, scope=("packet", "hybrid"))
        assert [c.id for c in score.out_of_scope] == ["strict"]
        assert score.out_of_scope[0].detail.startswith(
            "not scored on fluid+hybrid: ")
        score = self.scored({"fluid", "hybrid"}, scope=("fluid", "hybrid"))
        assert [c.id for c in score.checks] == ["c1", "strict"]

    def test_two_argument_call_scores_every_check(self):
        ref = validate_refdata(_ref_doc(checks=[
            {"id": "strict", "type": "lt", "stat": "a", "than": 1.0,
             "backends": ["packet"]},
        ]))
        score = score_figure(_render([0.0, 1.0, 2.0], {"a": 0.5}), ref)
        assert [c.id for c in score.checks] == ["strict"]
        assert not score.out_of_scope

    def test_text_and_html_show_na_rows(self):
        from types import SimpleNamespace

        from repro.report.html import _fidelity_tables
        from repro.report.text import format_score

        score = self.scored({"fluid"})
        assert "  [n/a] strict: not scored on fluid: sub-RTT effect" in \
            format_score("figX", score).splitlines()
        html = _fidelity_tables(SimpleNamespace(score=score))
        assert "<td>strict</td>" in html and ">n/a</td>" in html


# -- refdata schema ---------------------------------------------------------------


class TestRefdataSchema:
    def test_all_checked_in_files_validate(self):
        figures = available_refdata()
        assert len(figures) >= 12
        assert {"appendix", "failover"} <= set(figures)     # checks-only
        for figure in figures:
            ref = load_refdata(figure)
            assert ref is not None and ref.figure == figure

    def test_checked_in_files_cover_the_headline_figures(self):
        available = set(available_refdata())
        assert {"fig10", "fig11", "fig13"} <= available

    def test_file_name_must_match_declared_figure(self):
        assert json.loads(refdata_path("fig11").read_text())["figure"] == "fig11"

    def test_missing_figure_returns_none(self):
        assert load_refdata("nonexistent") is None

    @pytest.mark.parametrize("mutation", [
        {"figure": None},
        {"title": ""},
        {"thresholds": {"pass": {}}},                      # no warn tier
        {"thresholds": {"pass": {"bogus": 1}, "warn": {}}},
        {"normalize": {"x": "wat", "y": "none"}},
        {"series": [{"panel": "p", "name": "A", "x": [0], "y": [0, 1]}]},
        {"series": [{"panel": "p", "name": "A", "x": [0], "y": ["no"]}]},
        {"checks": [{"id": "c", "type": "nope", "stat": "a"}]},
        {"checks": [{"id": "c", "type": "le", "stat": "a"}]},   # no than
        {"checks": [{"id": "c", "type": "between", "stat": "a"}]},
        {"checks": [{"id": "c", "type": "le", "stat": "a", "than": 1,
                     "backends": ["packet", "ns3"]}]},     # unknown backend
        {"checks": [{"id": "c", "type": "le", "stat": "a", "than": 1,
                     "backends": "packet"}]},              # not a list
        {"checks": [{"id": "c", "type": "le", "stat": "a", "than": 1,
                     "backends": []}]},
    ])
    def test_schema_violations_raise(self, mutation):
        doc = _ref_doc(**mutation)
        with pytest.raises(RefdataError):
            validate_refdata(doc)

    def test_duplicate_series_rejected(self):
        doc = _ref_doc()
        doc["series"].append(dict(doc["series"][0]))
        with pytest.raises(RefdataError, match="duplicate"):
            validate_refdata(doc)

    def test_every_check_has_a_note_and_every_file_an_extraction(self):
        # Refdata is documentation as much as data: each file must say
        # how it was digitized, and each check why it holds.
        for figure in available_refdata():
            ref = load_refdata(figure)
            assert len(ref.extraction) > 40, figure
            for check in ref.checks:
                assert check.note, f"{figure}:{check.id}"


# -- figure helpers ---------------------------------------------------------------


class TestFigureHelpers:
    def test_series_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Series(name="s", x=[1.0], y=[])

    def test_cdf_series_monotone(self):
        series = cdf_series("s", [3.0, 1.0, 2.0])
        assert series.x == [1.0, 2.0, 3.0]
        assert series.y == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_bucket_panel_uses_ordinals(self):
        from repro.metrics.fct import BucketStats

        stats = [BucketStats(lo=0, hi=10, count=1, p50=1, p95=2, p99=3, mean=1)]
        panel = bucket_panel("k", "t", {"A": stats})
        assert panel.series[0].x == [1.0]
        assert panel.series[0].y == [2.0]


# -- SVG emitter ------------------------------------------------------------------


def _sample_panel():
    return Panel(
        key="k", title="Sample panel",
        series=[
            Series(name="up", x=[0.0, 1.0, 2.0], y=[0.0, 5.0, 9.0]),
            Series(name="bars", kind="bar", x=[0.0, 1.0], y=[3.0, 6.0],
                   labels=["a", "b"]),
        ],
        x_label="x", y_label="y",
    )


class TestSvg:
    def test_renders_wellformed_svg(self):
        svg = render_panel(_sample_panel())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg and "rect" in svg
        import xml.etree.ElementTree as ET

        ET.fromstring(svg)                   # parses as XML

    def test_deterministic(self):
        panel = _sample_panel()
        assert render_panel(panel) == render_panel(panel)

    def test_escapes_markup_in_labels(self):
        panel = Panel(key="k", title="<b>&", series=[
            Series(name="a<b", x=[0.0], y=[1.0]),
        ])
        svg = render_panel(panel)
        assert "<b>" not in svg
        assert "&amp;" in svg

    def test_empty_panel_renders(self):
        svg = render_panel(Panel(key="k", title="empty"))
        assert "</svg>" in svg

    def test_nan_points_skipped(self):
        panel = Panel(key="k", title="t", series=[
            Series(name="a", x=[0.0, 1.0, 2.0], y=[1.0, float("nan"), 3.0]),
        ])
        assert "nan" not in render_panel(panel)

    def test_nice_ticks_cover_range(self):
        ticks = nice_ticks(0.0, 97.0)
        assert ticks[0] <= 0.0 + 1e-9
        assert ticks[-1] <= 97.0
        assert len(ticks) >= 3


# -- golden snapshot: one figure rendered end-to-end ------------------------------


def _synthetic_fig13():
    """Deterministic fig13-shaped specs + records (no simulation)."""
    from repro.experiments import figure13

    specs = figure13.scenarios(scale="bench", seed=1)
    records = []
    for i, spec in enumerate(specs):
        bin_ns = spec.config["goodput_bin"]
        bins = {
            "1": {str(idx): 90_000 + 1_000 * ((idx + i) % 5)
                  for idx in range(20)}
        }
        queues = {
            "bneck": {
                "times": [float(t) * 10_000 for t in range(20)],
                "qlens": [max(0, 200_000 - (20_000 + 5_000 * i) * t)
                          for t in range(20)],
            }
        }
        records.append(RunRecord(
            spec=spec,
            queues=queues,
            extras={"goodput": {"bin_ns": bin_ns, "bins": bins},
                    "flow_ids": {"incast": [1]}},
            duration_ns=600_000.0,
            completed=True,
        ))
    return specs, records


class TestGoldenSvg:
    def test_fig13_goodput_svg_matches_golden(self):
        """Byte-for-byte snapshot of the fig13 goodput panel.

        Pins the whole render()+SVG pipeline: axis placement, tick
        labels, palette order, coordinate formatting.  Regenerate after
        an *intentional* change with:

            PYTHONPATH=src python tests/regen_golden_svg.py
        """
        from repro.experiments import figure13

        specs, records = _synthetic_fig13()
        render = figure13.render(specs, records)
        panel = render.panel("goodput")
        svg = render_panel(panel)
        golden = (GOLDEN_DIR / "fig13_goodput_golden.svg").read_text()
        assert svg == golden

    def test_synthetic_render_has_expected_stats(self):
        from repro.experiments import figure13

        specs, records = _synthetic_fig13()
        render = figure13.render(specs, records)
        for label in ("per-ACK", "per-RTT", "HPCC"):
            assert f"min_tput/{label}" in render.stats
            assert math.isfinite(render.stats[f"drain_us/{label}"])
