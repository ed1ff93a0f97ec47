"""`hpcc-repro report` end-to-end: the --fastest fluid build.

This is the acceptance smoke for the report subsystem: offline, no
matplotlib, builds index.html + per-figure SVGs, and the two headline
figures (Fig. 11 and Fig. 13) score "pass" against the digitized
reference data on the fluid backend.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.report.build import (
    FASTEST_FIGURES,
    load_bench_trajectory,
    resolve_figures,
)


def packet_only(key: str) -> bool:
    return getattr(EXPERIMENTS[key][1], "PACKET_ONLY", False)


class TestResolveFigures:
    def test_fastest_subset(self):
        assert resolve_figures(None, fastest=True) == list(FASTEST_FIGURES)

    def test_default_is_all(self):
        assert resolve_figures(None, fastest=False) == list(EXPERIMENTS)

    def test_aliases_resolve(self):
        assert resolve_figures(["figure11", "fig13"], False) == [
            "fig11", "fig13",
        ]

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            resolve_figures(["fig99"], False)

    def test_fastest_conflicts_with_explicit_figures(self):
        # Silently ignoring --figures would build the wrong report.
        with pytest.raises(SystemExit, match="fastest"):
            resolve_figures(["fig10"], fastest=True)

    def test_fastest_figures_are_fluid_eligible_and_scored(self):
        from repro.report import available_refdata

        refdata = set(available_refdata())
        for key in FASTEST_FIGURES:
            assert not packet_only(key), key
            assert key in refdata, key

    def test_packet_only_figures_flagged(self):
        assert [key for key in EXPERIMENTS if packet_only(key)] == [
            "fig1", "fig12",
        ]


class TestBenchTrajectory:
    def test_reads_snapshots(self, tmp_path):
        for pr, wall in ((3, 1.5), (4, 1.2)):
            (tmp_path / f"BENCH_pr{pr}.json").write_text(json.dumps({
                "results": [{"name": "engine_events", "wall_time_s": wall}],
            }))
        panel = load_bench_trajectory(tmp_path)
        [series] = panel.series
        assert series.name == "engine_events"
        assert series.x == [3.0, 4.0]
        assert series.y == [1.5, 1.2]

    def test_no_snapshots_returns_none(self, tmp_path):
        assert load_bench_trajectory(tmp_path) is None

    def test_corrupt_snapshot_skipped(self, tmp_path):
        (tmp_path / "BENCH_pr3.json").write_text("{not json")
        assert load_bench_trajectory(tmp_path) is None

    def test_missing_prs_render_as_nan_gaps(self, tmp_path):
        """pr5/pr7-style snapshot gaps become NaN points, not bridges."""
        import math

        (tmp_path / "BENCH_pr3.json").write_text(json.dumps({
            "results": [{"name": "engine_events", "wall_time_s": 1.5}],
        }))                                      # unstamped v1 snapshot
        (tmp_path / "BENCH_pr6.json").write_text(json.dumps({
            "schema": 2,
            "results": [{"name": "engine_events", "wall_time_s": 1.1}],
        }))
        panel = load_bench_trajectory(tmp_path)
        [series] = panel.series
        assert series.x == [3.0, 4.0, 5.0, 6.0]  # full PR axis
        assert series.y[0] == 1.5 and series.y[3] == 1.1
        assert math.isnan(series.y[1]) and math.isnan(series.y[2])

    def test_unknown_schema_stamp_skipped(self, tmp_path):
        (tmp_path / "BENCH_pr3.json").write_text(json.dumps({
            "schema": 99,
            "results": [{"name": "engine_events", "wall_time_s": 1.5}],
        }))
        assert load_bench_trajectory(tmp_path) is None

    def test_engine_rate_trajectory_gap_axis(self, tmp_path):
        import math

        from repro.report.build import load_engine_rate_trajectory

        for pr, wall in ((3, 2.0), (5, 1.0)):
            (tmp_path / f"BENCH_pr{pr}.json").write_text(json.dumps({
                "results": [{"name": "engine_events", "wall_time_s": wall,
                             "params": {"events": 200_000}}],
            }))
        panel = load_engine_rate_trajectory(tmp_path)
        [series] = panel.series
        assert series.x == [3.0, 4.0, 5.0]
        assert series.y[0] == 100_000.0 and series.y[2] == 200_000.0
        assert math.isnan(series.y[1])


class TestFailedCells:
    """Quarantined sweep cells must badge the figure, not kill the build."""

    @pytest.mark.chaos
    def test_all_cells_failed_degrades_to_empty_figure(self, tmp_path):
        from repro.report.build import build_figure
        from repro.runner import SweepRunner

        def explode(spec, telemetry=False):
            raise RuntimeError("cell down")

        runner = SweepRunner(execute=explode)
        fig = build_figure("fig13", backend="fluid", scale="bench",
                           runner=runner)
        assert fig.n_failed == fig.n_specs > 0
        assert any("cells failed" in note for note in fig.notes)

    def test_failure_badge_in_html(self):
        from repro.report.build import FigureReport
        from repro.report.figures import FigureRender
        from repro.report.html import _figure_section

        fig = FigureReport(
            key="figX", title="T", backend="packet", scale="bench",
            render=FigureRender(figure="figX", title="T", panels=[]),
            score=None, ref=None, n_specs=3, n_cached=0,
            wall_time_s=0.1, n_failed=2,
        )
        section = _figure_section(fig)
        assert "2 CELLS FAILED" in section
        assert "2 failed" in section


class TestReportCliSmoke:
    @pytest.fixture(scope="class")
    def report_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("report")
        status = main([
            "report", "--fastest", "--out", str(out), "--quiet",
        ])
        assert status == 0
        return out

    def test_emits_index_html(self, report_dir):
        html = (report_dir / "index.html").read_text()
        assert "<svg" in html
        for key in FASTEST_FIGURES:
            assert key in html

    def test_emits_per_figure_svgs(self, report_dir):
        produced = {p.name for p in report_dir.glob("*.svg")}
        for key in FASTEST_FIGURES:
            assert any(name.startswith(f"{key}_") for name in produced), key

    def test_fig11_and_fig13_pass_on_fluid(self, report_dir):
        summary = json.loads((report_dir / "report.json").read_text())
        for key in ("fig11", "fig13"):
            entry = summary["figures"][key]
            assert entry["backend"] == "fluid"
            assert entry["verdict"] == "pass", (key, entry)

    def test_every_fastest_figure_is_scored(self, report_dir):
        summary = json.loads((report_dir / "report.json").read_text())
        for key in FASTEST_FIGURES:
            entry = summary["figures"][key]
            assert entry["verdict"] in ("pass", "warn", "fail")
            assert entry["checks_total"] > 0

    def test_report_json_is_strict(self, report_dir):
        # Stats legitimately hold inf/nan (un-drained queues, empty
        # percentiles); they must encode as strings, not bare Infinity
        # tokens that strict parsers reject.
        text = (report_dir / "report.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        json.loads(text)

    def test_fastest_carries_hybrid_fig11_cell(self, report_dir):
        # --fastest additionally runs one fig11 cell on the hybrid
        # backend (10% foreground) and ships it as hybrid_fig11.json.
        cell = json.loads((report_dir / "hybrid_fig11.json").read_text())
        assert cell["backend"] == "hybrid"
        assert cell["hybrid_mode"] == "mixed"
        assert cell["foreground_flows"] > 0
        assert cell["background_flows"] > cell["foreground_flows"]
        assert cell["hybrid_epochs"] > 0 and cell["n_fct"] > 0
        assert cell["cached"] is False
        summary = json.loads((report_dir / "report.json").read_text())
        assert "hybrid_fig11.json" in summary["metadata"]["hybrid cell"]

    def test_divergence_artifacts_match_goldens(self, report_dir):
        from test_divergence import GOLDEN_SHA256, sha256

        for name in ("divergence.json", "fig13_cc-divergence.svg"):
            assert sha256((report_dir / name).read_bytes()) \
                == GOLDEN_SHA256[name], name

    def test_rerun_hits_cache(self, report_dir, capsys):
        assert main([
            "report", "--fastest", "--out", str(report_dir), "--quiet",
        ]) == 0
        summary = json.loads((report_dir / "report.json").read_text())
        for key in FASTEST_FIGURES:
            entry = summary["figures"][key]
            assert entry["cached"] == entry["scenarios"], key
        cell = json.loads((report_dir / "hybrid_fig11.json").read_text())
        assert cell["cached"] is True

    def test_bench_trajectory_found_from_repo_root(self, report_dir):
        # The suite runs from the repo root, where BENCH_pr*.json live.
        summary = json.loads((report_dir / "report.json").read_text())
        note = summary["metadata"]["bench trajectory"]
        assert "BENCH_pr*.json" in note and "no BENCH" not in note
        assert (report_dir / "bench_trajectory.svg").exists()

    def test_missing_bench_snapshots_noted_not_silent(self, tmp_path):
        # Built against a directory with no BENCH_pr*.json: the chart
        # is legitimately absent but the report must say why.
        from repro.report.build import build_report

        report = build_report([], out=tmp_path / "out",
                              bench_root=tmp_path)
        assert "no BENCH_pr*.json" in report.metadata["bench trajectory"]
        html = (tmp_path / "out" / "index.html").read_text()
        assert "no BENCH_pr*.json" in html

    def test_png_flag_is_gated_on_matplotlib(self, report_dir):
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            with pytest.raises(SystemExit, match="matplotlib"):
                main(["report", "--fastest", "--out", str(report_dir),
                      "--quiet", "--png"])
        else:
            assert main(["report", "--fastest", "--out", str(report_dir),
                         "--quiet", "--png"]) == 0
            assert list(report_dir.glob("*.png"))


class TestHybridReportCells:
    """Mixed fluid+hybrid grids: coherent panels, honest badges, and a
    skipped (never crashing) divergence drilldown."""

    @staticmethod
    def _mixed_specs():
        from repro.runner import ScenarioSpec
        from repro.sim.units import US

        base = ScenarioSpec(
            program="flows",
            topology="star",
            topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
            workload={"flows": [[0, 2, 60_000, 0.0, "a"],
                                [1, 2, 60_000, 0.0, "b"]],
                      "deadline": 5e6},
            config={"base_rtt": 9 * US},
            label="cell",
        )
        return [
            base.replaced(backend="fluid", label="fluid-cell"),
            base.replaced(backend="hybrid", label="hybrid-cell",
                          **{"workload.foreground": {"kind": "count",
                                                     "n": 1}}),
        ]

    def test_mixed_grid_badge_and_drilldown_skip(self, tmp_path, monkeypatch):
        from repro.experiments import figure13
        from repro.report.build import build_report
        from repro.report.figures import FigureRender, Panel, Series

        specs = self._mixed_specs()
        monkeypatch.setattr(figure13, "scenarios",
                            lambda scale: list(specs))

        def render(ok_specs, ok_records):
            # One panel per grid: a series per cell, whatever its
            # backend — the render sees one coherent (spec, record) set.
            assert [s.label for s in ok_specs] == ["fluid-cell",
                                                   "hybrid-cell"]
            assert all(r.ok for r in ok_records)
            return FigureRender(figure="fig13", title="Fig 13 (mixed)",
                                panels=[Panel(
                                    key="fct", title="fct",
                                    series=[Series(name=s.backend,
                                                   x=[0.0, 1.0],
                                                   y=[1.0, 2.0])
                                            for s in ok_specs],
                                )])

        monkeypatch.setattr(figure13, "render", render)
        report = build_report(["fig13"], backend="fluid",
                              out=tmp_path / "out",
                              cache_dir=tmp_path / "cache",
                              bench_root=tmp_path)
        [fig] = report.figures
        # The badge reflects what actually ran, not what was requested.
        assert fig.backend == "fluid+hybrid"
        assert fig.n_failed == 0
        # The drilldown skipped with a note instead of crashing on the
        # hybrid cell (there is no second pure backend to diff).
        assert fig.divergence is None
        assert any("drilldown skipped" in note for note in fig.notes)
        assert not (tmp_path / "out" / "divergence.json").exists()
        # One coherent panel set rendered and landed on disk.
        assert (tmp_path / "out" / "fig13_fct.svg").exists()
        html = (tmp_path / "out" / "index.html").read_text()
        assert "fluid+hybrid" in html


class TestRebuildRunsNothing:
    """The drilldown's two runs and the hybrid cell are runner cells:
    cached like every figure cell, quarantined and retried on failure."""

    @staticmethod
    def _build(out, bench_root):
        from repro.report.build import build_report

        return build_report(["fig13"], backend="fluid", out=out,
                            bench_root=bench_root, hybrid_cell=True)

    @staticmethod
    def _artifacts(out) -> dict:
        names = ["divergence.json", "hybrid_fig11.json"] + sorted(
            p.name for p in out.glob("*.svg"))
        return {name: (out / name).read_bytes() for name in names}

    def test_warm_rebuild_simulates_nothing(self, tmp_path, monkeypatch):
        import repro.runner.execute as execute

        out = tmp_path / "out"
        self._build(out, tmp_path)
        first = self._artifacts(out)
        journal = out / "journal.jsonl"
        n_lines = len(journal.read_text().splitlines())

        def refuse(spec):
            raise AssertionError(f"rebuild simulated {spec.label}")

        # Every cell of this build is a load/flows cell: one that runs
        # is set up first.
        monkeypatch.setattr(execute, "_setup_network", refuse)
        report = self._build(out, tmp_path)
        [fig] = report.figures
        assert fig.n_cached == fig.n_specs and fig.divergence is not None
        assert "cached" in report.metadata["hybrid cell"]
        cells = [json.loads(line) for line in
                 journal.read_text().splitlines()[n_lines:]]
        cells = [c for c in cells if c["kind"] == "cell"]
        assert len(cells) == fig.n_specs + 3       # + drilldown pair + hybrid
        assert all(c["cached"] for c in cells)
        second = self._artifacts(out)
        # hybrid_fig11.json differs in its ``cached`` stamp only.
        hybrid = [json.loads(a.pop("hybrid_fig11.json"))
                  for a in (first, second)]
        assert (hybrid[0].pop("cached"), hybrid[1].pop("cached")) \
            == (False, True)
        assert hybrid[0] == hybrid[1]
        assert second == first

        # The seam bites: a cold build under it runs every cell into it.
        cold = tmp_path / "cold"
        report = self._build(cold, tmp_path)
        [fig] = report.figures
        assert fig.n_failed == fig.n_specs
        cells = [json.loads(line) for line in
                 (cold / "journal.jsonl").read_text().splitlines()]
        cells = [c for c in cells if c["kind"] == "cell"]
        assert len(cells) == fig.n_specs + 3
        assert all(c["status"] == "error"
                   and c["error"]["message"].startswith("rebuild simulated")
                   for c in cells)

    def test_failed_runs_are_noted_not_cached_and_retried(self, tmp_path,
                                                          monkeypatch):
        import repro.runner.execute as execute
        from repro.fluid import FluidBatch
        from repro.runner import RunCache

        setup = execute._setup_network

        def boom(spec):
            if spec.measure.get("decisions") or spec.backend == "hybrid":
                raise RuntimeError("boom")
            return setup(spec)

        monkeypatch.setattr(execute, "_setup_network", boom)
        sizes = []
        init = FluidBatch.__init__

        def spy(self, cells):
            sizes.append(len(cells))
            init(self, cells)

        monkeypatch.setattr(FluidBatch, "__init__", spy)
        out = tmp_path / "out"
        report = self._build(out, tmp_path)
        [fig] = report.figures
        # The patched seam leaves the figure's fluid cells one batch.
        assert sizes == [fig.n_specs]
        assert fig.n_failed == 0 and fig.divergence is None
        assert "divergence drilldown skipped: RuntimeError: boom" in fig.notes
        assert report.metadata["hybrid cell"] == "skipped: RuntimeError: boom"
        assert not (out / "divergence.json").exists()
        assert not (out / "hybrid_fig11.json").exists()
        cache = RunCache(out / "cache")
        assert len(cache) == fig.n_specs           # the figure cells only
        failed = [json.loads(line)
                  for line in (out / "journal.jsonl").read_text().splitlines()]
        assert sum(1 for c in failed if c.get("status") == "error") == 3

        monkeypatch.undo()
        report = self._build(out, tmp_path)
        [fig] = report.figures
        assert fig.divergence is not None
        assert (out / "divergence.json").exists()
        assert json.loads((out / "hybrid_fig11.json").read_text())[
            "cached"] is False
        assert len(cache) == fig.n_specs + 3
