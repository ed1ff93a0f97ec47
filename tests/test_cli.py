"""The hpcc-repro command-line interface."""

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS, figure01, figure13, resolve
from repro.report.figures import FigureRender
from repro.runner import RunCache, ScenarioSpec


class TestResolve:
    def test_canonical_names(self):
        for name in EXPERIMENTS:
            assert resolve(name) == name

    def test_aliases(self):
        assert resolve("figure13") == "fig13"
        assert resolve("fig06") == "fig6"
        assert resolve("FIGURE9") == "fig9"
        assert resolve("appendix_a") == "appendix"

    def test_unknown_exits_with_known_list(self):
        with pytest.raises(SystemExit, match="fig13"):
            resolve("fig99")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "fig13" in capsys.readouterr().out

    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "hpcc" in out and "dcqcn" in out

    def test_run_passes_scale_through(self, capsys, monkeypatch):
        """The documented ``hpcc-repro run fig11 --scale full`` spelling."""
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        assert main(["run", "tiny", "--scale", "full", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "(full scale)" in out             # what build_figure was told
        assert "tiny grid at full" in out        # what scenarios() was told

    def test_run_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            main(["run", "fig13", "--scale", "huge"])

    def test_every_experiment_has_description_and_grid(self):
        for name, (desc, module) in EXPERIMENTS.items():
            assert isinstance(desc, str) and desc
            assert callable(module.render)
            specs = module.scenarios(scale="bench")
            assert specs and all(isinstance(s, ScenarioSpec) for s in specs)


def _tiny_grid_module():
    """A stub experiment with two fast real scenarios."""
    from repro.sim.units import US

    def scenarios(scale="bench", seed=1):
        base = ScenarioSpec(
            program="flows",
            topology="star",
            topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
            workload={"flows": [[0, 2, 40_000], [1, 2, 40_000]],
                      "deadline": 5e6},
            config={"base_rtt": 9 * US},
            seed=seed,
            scale=scale,
            label="tiny",
        )
        return [base, base.replaced(**{"workload.flows": [[0, 2, 80_000]],
                                       "label": "tiny2"})]

    def render(specs, records):
        return FigureRender(
            figure="tiny", title=f"tiny grid at {specs[0].scale}", panels=[],
            stats={f"flows/{s.label}": float(len(r.fct))
                   for s, r in zip(specs, records)},
        )

    return SimpleNamespace(scenarios=scenarios, render=render)


class TestSweep:
    def test_sweep_persists_and_caches(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "results"
        assert main(["sweep", "tiny", "--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert "2 scenarios (0 cached)" in first
        records = sorted(out.glob("*.json"))
        assert len(records) == 2
        assert (out / "summary.csv").exists()
        payload = json.loads(records[0].read_text())
        assert payload["spec"]["program"] == "flows"
        assert payload["fct"]

        # Second invocation: every cell comes from the cache.
        assert main(["sweep", "tiny", "--out", str(out)]) == 0
        second = capsys.readouterr().out
        assert "2 scenarios (2 cached)" in second

    def test_sweep_no_cache_recomputes_but_persists(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "results"
        assert main(["sweep", "tiny", "--out", str(out), "--no-cache"]) == 0
        assert "(0 cached)" in capsys.readouterr().out
        assert len(list(out.glob("*.json"))) == 2
        assert main(["sweep", "tiny", "--out", str(out), "--no-cache"]) == 0
        assert "(0 cached)" in capsys.readouterr().out

    def test_sweep_seeds_expand_grid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "results"
        assert main(["sweep", "tiny", "--seeds", "1,2", "--out", str(out)]) == 0
        assert "4 scenarios" in capsys.readouterr().out

    def test_sweep_bad_seeds_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="seeds"):
            main(["sweep", "fig13", "--seeds", "one,two",
                  "--out", str(tmp_path)])

    def test_sweep_unknown_experiment_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["sweep", "fig99", "--out", str(tmp_path)])

    def test_sweep_progress_ticks_on_stderr(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        assert main(["sweep", "tiny", "--out", str(tmp_path / "r")]) == 0
        captured = capsys.readouterr()
        assert "[1/2]" in captured.err and "[2/2]" in captured.err
        assert "[1/2]" not in captured.out          # summary only on stdout

    def test_sweep_quiet_suppresses_ticker(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        assert main(["sweep", "tiny", "--quiet",
                     "--out", str(tmp_path / "r")]) == 0
        captured = capsys.readouterr()
        assert "[1/2]" not in captured.err
        assert "2 scenarios" in captured.out

    def test_sweep_writes_journal_and_status_column(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "r"
        assert main(["sweep", "tiny", "--quiet", "--out", str(out)]) == 0
        journal = out / "journal.jsonl"
        assert journal.exists()
        entries = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        cells = [e for e in entries if e["kind"] == "cell"]
        assert len(cells) == 2
        assert all(c["status"] == "ok" for c in cells)
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert "status" in header and "attempts" in header

    def test_sweep_rerun_serves_ok_cells_from_cache(self, tmp_path, capsys,
                                                    monkeypatch):
        """Re-running the same sweep is its resume: a cell missing from
        the cache (as a failed one is) re-runs, the other comes back
        cached, and the journal's new lines say which."""
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "r"
        assert main(["sweep", "tiny", "--quiet", "--out", str(out)]) == 0
        specs = _tiny_grid_module().scenarios()
        RunCache(out).path_for(specs[0]).unlink()
        capsys.readouterr()
        assert main(["sweep", "tiny", "--quiet", "--out", str(out)]) == 0
        assert "2 scenarios (1 cached)" in capsys.readouterr().out
        entries = [json.loads(line) for line in
                   (out / "journal.jsonl").read_text().splitlines()]
        rerun = [(e["spec_hash"], e["cached"])
                 for e in entries if e["kind"] == "cell"][2:]
        assert sorted(rerun) == sorted([(specs[0].spec_hash, False),
                                        (specs[1].spec_hash, True)])

    def test_sweep_has_no_resume_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "fig13", "--out", str(tmp_path),
                  "--resume", str(tmp_path / "journal.jsonl")])

    def test_sweep_bad_spec_timeout_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="spec-timeout"):
            main(["sweep", "fig13", "--out", str(tmp_path),
                  "--spec-timeout", "soon"])

    def test_sweep_backend_fluid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "results"
        assert main(["sweep", "tiny", "--backend", "fluid",
                     "--out", str(out)]) == 0
        assert "2 scenarios (0 cached)" in capsys.readouterr().out
        payloads = [json.loads(p.read_text()) for p in out.glob("*.json")]
        assert all(p["spec"]["backend"] == "fluid" for p in payloads)
        # Fluid and packet sweeps of the same grid coexist in one cache.
        assert main(["sweep", "tiny", "--out", str(out)]) == 0
        assert "2 scenarios (0 cached)" in capsys.readouterr().out
        assert len(list(out.glob("*.json"))) == 4


class TestRunBackend:
    def test_run_fluid_prints_summary(self, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        assert main(["run", "tiny", "--backend", "fluid", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fluid backend" in out
        assert "tiny" in out and "tiny2" in out

    def test_run_rejects_foreground_off_hybrid(self, capsys, monkeypatch):
        # --foreground must be rejected, not silently ignored, before
        # any cell runs (no progress tick reaches stderr).
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        with pytest.raises(SystemExit, match="--backend hybrid"):
            main(["run", "tiny", "--foreground", "frac:0.5"])
        assert "[1/" not in capsys.readouterr().err


#: fig13's strategy comparison shrunk so a packet run takes well under a
#: second (the fluid run uses the real bench grid).
FIG13_SMALL = {"fan_in": 8, "flow_size": 600_000, "duration": 300_000.0}


def _table_columns(out: str, title: str) -> list[str]:
    """Header cells of the stats table printed under ``title``."""
    lines = out.splitlines()
    header = lines[lines.index(title) + 1]
    return [cell.strip() for cell in header.split("|")]


class TestRunPrintsTheFigure:
    """``run FIG`` prints the figure's own stats on every backend — at
    the parent, fixed-horizon figures (fig6/9/13/14, failover, flapping)
    printed an empty FCT-slowdown table off the packet fast path."""

    TITLE = "Figure 13: fast reaction without overreaction"

    def test_fluid_prints_strategy_rows_and_verdict(self, capsys):
        from repro.report import load_refdata

        assert main(["run", "fig13", "--backend", "fluid", "--quiet"]) == 0
        out = capsys.readouterr().out
        columns = _table_columns(out, self.TITLE)
        assert "min_tput" in columns and "drain_us" in columns
        rows = [line.split("|")[0].strip() for line in out.splitlines()]
        for strategy in ("per-ACK", "per-RTT", "HPCC"):
            assert strategy in rows
        assert any(line.startswith("fig13: verdict=")
                   for line in out.splitlines())
        for check in load_refdata("fig13").checks:
            assert f"] {check.id}: " in out      # one line per refdata check

    def test_same_columns_on_every_path(self, tmp_path, capsys, monkeypatch):
        real = figure13.scenarios
        monkeypatch.setattr(
            figure13, "scenarios",
            lambda scale: real(scale=scale, params=FIG13_SMALL),
        )
        columns = {}
        for name, argv in {
            "packet": [],
            "telemetry": ["--telemetry", str(tmp_path / "tel.jsonl")],
            "fluid": ["--backend", "fluid"],
        }.items():
            assert main(["run", "fig13", "--quiet", *argv]) == 0
            columns[name] = _table_columns(capsys.readouterr().out,
                                           self.TITLE)
        assert columns["packet"] == columns["telemetry"] == columns["fluid"]
        assert (tmp_path / "tel.jsonl").is_file()

    def test_packet_only_figure_stays_on_packet(self, capsys, monkeypatch):
        real = figure01.scenarios
        monkeypatch.setattr(
            figure01, "scenarios",
            lambda scale: real(scale=scale, overrides={"n_flows": 120}),
        )
        assert main(["run", "fig1", "--backend", "fluid", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fig1 on the packet backend" in out
        assert "packet-only" in out and "overridden" in out


class TestOneFigureTable:
    """One entry in ``repro.experiments.EXPERIMENTS`` is all a figure
    needs: every command resolves through that dict."""

    def test_every_command_sees_a_registered_figure(self, tmp_path, capsys,
                                                    monkeypatch):
        from repro.report.build import resolve_figures

        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        assert resolve_figures(["tiny"], fastest=False) == ["tiny"]
        assert "tiny" in resolve_figures(None, fastest=False)
        assert main(["list"]) == 0
        assert "stub grid" in capsys.readouterr().out
        assert main(["run", "tiny", "--quiet"]) == 0
        assert "flows" in _table_columns(capsys.readouterr().out,
                                         "tiny grid at bench")
        assert main(["sweep", "tiny", "--quiet",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert main(["trace", "diff", "tiny"]) == 0
        capsys.readouterr()
        # At the parent a figure registered as the docs said (CLI table
        # + experiments package) died here: "has no report entry".
        assert main(["report", "--figures", "tiny", "--quiet",
                     "--out", str(tmp_path / "report")]) == 0
        assert "tiny" in capsys.readouterr().out
        summary = json.loads((tmp_path / "report" / "report.json").read_text())
        assert summary["figures"]["tiny"]["stats"] == {
            "flows/tiny": 2.0, "flows/tiny2": 1.0,
        }

    def test_report_package_does_not_import_the_cli(self):
        import ast
        from pathlib import Path

        import repro.report

        for path in Path(repro.report.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    imported = [node.module or ""] + [
                        a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    imported = [a.name for a in node.names]
                else:
                    continue
                assert not any(name.split(".")[-1] == "cli"
                               for name in imported), path.name


class TestTelemetryFlag:
    def test_sweep_telemetry_default_path(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.obs import validate_record
        from repro.obs.summarize import read_jsonl

        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "results"
        assert main(["sweep", "tiny", "--quiet", "--out", str(out),
                     "--telemetry"]) == 0
        assert f"telemetry -> {out / 'telemetry.jsonl'}" in capsys.readouterr().out
        records, errors = read_jsonl(out / "telemetry.jsonl")
        assert not errors and records
        assert all(validate_record(r) is None for r in records)
        assert records[0]["kind"] == "meta"
        assert records[0]["run_id"] == "sweep:tiny"
        kinds = {r["kind"] for r in records}
        assert {"span", "gauge", "counter"} <= kinds

    def test_sweep_telemetry_explicit_path(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        path = tmp_path / "deep" / "tel.jsonl"
        assert main(["sweep", "tiny", "--quiet",
                     "--out", str(tmp_path / "r"),
                     "--telemetry", str(path)]) == 0
        assert path.is_file()
        assert f"telemetry -> {path}" in capsys.readouterr().out

    def test_sweep_without_flag_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "results"
        assert main(["sweep", "tiny", "--quiet", "--out", str(out)]) == 0
        assert not (out / "telemetry.jsonl").exists()

    def test_run_telemetry_routes_packet_through_spec_path(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        path = tmp_path / "run-tel.jsonl"
        assert main(["run", "tiny", "--quiet",
                     "--telemetry", str(path)]) == 0
        out = capsys.readouterr().out
        assert "packet backend" in out
        assert path.is_file()

    def test_tele_summarize_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        path = tmp_path / "tel.jsonl"
        assert main(["sweep", "tiny", "--quiet",
                     "--out", str(tmp_path / "r"),
                     "--telemetry", str(path)]) == 0
        capsys.readouterr()
        assert main(["tele", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "total" in out                    # the per-run span

    def test_unwritable_telemetry_path_exits_cleanly(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        blocker = tmp_path / "blocker"
        blocker.write_text("")                   # a file where a dir must go
        with pytest.raises(SystemExit, match="cannot write telemetry file"):
            main(["sweep", "tiny", "--quiet", "--out", str(tmp_path / "r"),
                  "--telemetry", str(blocker / "tel.jsonl")])

    def test_tele_summarize_missing_file(self, tmp_path, capsys):
        assert main(["tele", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "no telemetry file" in capsys.readouterr().err

    def test_tele_summarize_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        path = tmp_path / "tel.jsonl"
        assert main(["sweep", "tiny", "--quiet",
                     "--out", str(tmp_path / "r"),
                     "--telemetry", str(path)]) == 0
        capsys.readouterr()
        assert main(["tele", "summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["path"] == str(path)
        assert "total" in doc["spans"]
        assert doc["spans"]["total"]["count"] >= 2   # one per scenario
        assert doc["invalid_lines"] == []

    def test_sweep_ticker_carries_eta(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        assert main(["sweep", "tiny", "--out", str(tmp_path / "r")]) == 0
        err = capsys.readouterr().err
        first, last = err.splitlines()[0], err.splitlines()[-1]
        assert "[1/2]" in first and "eta ~" in first
        assert "[2/2]" in last and "eta ~" not in last   # nothing remains

    def test_profile_out_writes_pstats(self, tmp_path, capsys, monkeypatch):
        import pstats

        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        path = tmp_path / "prof" / "run.pstats"
        assert main(["run", "tiny", "--quiet", "--backend", "fluid",
                     "--profile-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert path.is_file()
        assert f"profile stats -> {path}" in captured.err
        assert "cProfile" in captured.err        # --profile is implied
        stats = pstats.Stats(str(path))          # loadable, non-empty
        assert stats.total_calls > 0


class TestCache:
    def test_stats_and_clear(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        out = tmp_path / "results"
        assert main(["sweep", "tiny", "--quiet", "--out", str(out)]) == 0
        assert main(["sweep", "tiny", "--backend", "fluid", "--quiet",
                     "--out", str(out)]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--dir", str(out)]) == 0
        stats_out = capsys.readouterr().out
        assert "4 records" in stats_out
        assert "packet" in stats_out and "fluid" in stats_out

        assert main(["cache", "clear", "--dir", str(out)]) == 0
        assert "removed 4" in capsys.readouterr().out
        assert not list(out.glob("*.json"))

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path / "nope")]) == 1
        assert "no cache directory" in capsys.readouterr().out


class TestTrace:
    """``trace diff``: the control-loop flight recorder's analyzer."""

    def _spec_file(self, tmp_path):
        from repro.sim.units import US

        spec = ScenarioSpec(
            program="flows",
            topology="star",
            topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
            workload={"flows": [[0, 2, 40_000], [1, 2, 40_000]],
                      "deadline": 5e6},
            config={"base_rtt": 9 * US},
            seed=1,
            label="trace-tiny",
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        return path

    def test_diff_from_spec_file_writes_divergence_json(self, tmp_path,
                                                        capsys):
        out = tmp_path / "div" / "divergence.json"
        assert main(["trace", "diff", str(self._spec_file(tmp_path)),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "decision-trace diff (hpcc" in captured.out
        assert "flows compared: 2" in captured.out
        assert f"divergence -> {out}" in captured.out
        assert "packet backend" in captured.err
        assert "fluid backend" in captured.err
        div = json.loads(out.read_text())        # strict JSON, no NaN
        assert div["spec"]["label"] == "trace-tiny"
        assert div["spec"]["cc"] == "hpcc"
        assert div["summary"]["flows_compared"] == 2
        assert set(div["flows"]) == {"1", "2"}

    def test_diff_by_experiment_name_and_scenario(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        assert main(["trace", "diff", "tiny", "--scenario", "tiny2"]) == 0
        out = capsys.readouterr().out
        assert "decision-trace diff" in out
        assert "flows compared: 1" in out        # tiny2 has a single flow

    def test_unknown_scenario_label_lists_known(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "tiny", ("stub grid", _tiny_grid_module()))
        with pytest.raises(SystemExit, match="tiny2"):
            main(["trace", "diff", "tiny", "--scenario", "nope"])

    def test_corrupt_spec_file_exits_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["trace", "diff", str(path)])
