"""``hpcc-repro`` — run any of the paper's experiments from the shell.

Examples::

    hpcc-repro list
    hpcc-repro run fig13
    hpcc-repro run fig11 --scale full
    hpcc-repro run fig11 --backend fluid
    hpcc-repro sweep fig10 fig11 --jobs 4 --out results/
    hpcc-repro sweep fig11 --seeds 1,2,3 --jobs 8
    hpcc-repro sweep fig11 --backend fluid --scale full
    hpcc-repro sweep fig11 --backend fluid --telemetry
    hpcc-repro report --fastest
    hpcc-repro report --figures fig11 fig13 --backend fluid --out report/
    hpcc-repro tele summarize sweep-results/telemetry.jsonl
    hpcc-repro tele summarize sweep-results/telemetry.jsonl --json
    hpcc-repro trace diff fig13 --scenario HPCC --out divergence.json
    hpcc-repro cache stats --dir results/
    hpcc-repro cache clear --dir results/
    hpcc-repro schemes

``run FIG`` has one path on every backend: it expands the figure's grid,
hands it to :func:`repro.report.build.build_figure` — the function
``report`` builds each figure with — and prints that result: the
figure's ``stats`` as a table (one row per scenario label), every panel
(short series as rows of values, long ones as ASCII charts) and the
fidelity verdict with one line per reference check.

``sweep`` expands each experiment's declared scenario grid
(``scenarios()``), executes it on a process pool, and persists one
``RunRecord`` JSON per scenario (content-addressed by spec hash) plus a
``summary.csv`` under ``--out``.  Re-running the same sweep hits the
cache and recomputes nothing; ``--no-cache`` forces fresh runs.
Progress ticks per completed scenario on stderr (``--quiet`` silences
them).  ``--backend fluid`` runs every scenario on the flow-level fluid
engine instead of the packet simulator — hash-distinct, so packet and
fluid records coexist in one cache; ``cache stats``/``cache clear``
inspect and prune that directory.

``report`` builds the HTML/SVG reproduction report (``repro.report``):
it sweeps whatever the requested figures are missing (reusing any
cache directory via ``--cache``), renders every figure's panels
side-by-side with the digitized paper curves, and scores fidelity
per figure (pass/warn/fail).  ``--fastest`` builds the cheap fluid
subset CI uploads on every PR.

``--telemetry [PATH]`` (on ``run``, ``sweep`` and ``report``) records
the run-telemetry JSONL stream (``repro.obs``: phase spans, engine
probes, cache/utilization stats) alongside the primary output;
``tele summarize PATH`` renders any such file — including
``PacketTracer.to_jsonl`` exports — as a text digest (``--json`` for
machine-readable aggregates).

``trace diff SPEC`` is the control-loop flight recorder's analyzer:
it runs one scenario on *both* execution backends with the per-flow
:class:`~repro.obs.DecisionTap` attached, aligns the CC decision
timelines, and reports per-flow time-weighted rate error, time of
first divergence, and (for INT schemes) bottleneck-attribution
agreement.  ``--out`` writes the machine-readable ``divergence.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .core.registry import available_schemes
from .experiments import EXPERIMENTS, resolve


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_seeds(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"bad --seeds value {text!r}; expected e.g. 1,2,3")


def _fmt_eta(seconds: float) -> str:
    if seconds >= 90:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _progress_ticker(args):
    """The sweep's stderr ticker: one ``[done/total]`` line per finished
    scenario (stderr so ``--out``-style stdout redirects stay clean);
    ``--quiet`` disables it.

    Once at least one scenario has been *computed* (cache hits carry no
    timing signal), remaining lines carry an ETA: mean computed wall
    time times the scenarios left, divided by the worker count.
    """
    if getattr(args, "quiet", False):
        return None
    jobs = getattr(args, "jobs", 1)
    walls: list[float] = []

    def progress(record, done, total):
        if record.cached:
            status = "cache"
        else:
            walls.append(record.wall_time_s)
            status = f"{record.wall_time_s:.2f}s"
        eta = ""
        remaining = total - done
        if remaining and walls:
            estimate = sum(walls) / len(walls) * remaining / jobs
            eta = f"  eta ~{_fmt_eta(estimate)}"
        print(
            f"[{done}/{total}] {record.label}  ({status}){eta}",
            file=sys.stderr, flush=True,
        )

    return progress


def _make_telemetry(args, default_path: Path, run_id: str):
    """The file-backed ``Telemetry`` behind ``--telemetry [PATH]``.

    Returns ``(telemetry, path)`` — or ``(None, None)`` when the flag
    is absent, so callers stay on the zero-overhead path.
    """
    raw = getattr(args, "telemetry", None)
    if raw is None:
        return None, None
    from .obs import JsonlSink, Telemetry

    path = Path(raw) if raw else default_path
    try:
        # Telemetry writes the meta header on construction, so opening
        # AND the first write both fail CLI-style here, not mid-sweep.
        return Telemetry(run_id=run_id, sink=JsonlSink(path)), path
    except OSError as exc:
        raise SystemExit(f"cannot write telemetry file {path}: {exc}")


def _require_fluid_for_large(scale: str, backend: str) -> None:
    """The ``large`` tier (figure 11's k=16, 1024-host fabric) is only
    tractable on the fluid engine (or hybrid, whose packet half is a
    thin foreground); refuse to launch it on pure packet."""
    if scale == "large" and backend not in ("fluid", "hybrid"):
        raise SystemExit(
            "error: --scale large is only tractable on the fluid engine; "
            "add --backend fluid (or --backend hybrid)"
        )


def _apply_foreground(args, specs):
    """Apply ``--foreground`` to every spec (hybrid backend only)."""
    foreground = getattr(args, "foreground", None)
    if foreground is None:
        return specs
    if args.backend != "hybrid":
        raise SystemExit(
            "error: --foreground only applies to --backend hybrid"
        )
    from .hybrid.select import parse_foreground

    try:
        selector = parse_foreground(foreground)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    return [
        spec.replaced(**{"workload.foreground": selector}) for spec in specs
    ]


def _cmd_sweep(args) -> int:
    from .runner import RunCache, SweepRunner, write_records_csv

    _require_fluid_for_large(args.scale, args.backend)
    seeds = _parse_seeds(args.seeds)
    specs = []
    try:
        for name in args.experiments:
            module = EXPERIMENTS[resolve(name)][1]
            if seeds is None:
                specs.extend(module.scenarios(scale=args.scale))
            else:
                for seed in seeds:
                    specs.extend(module.scenarios(scale=args.scale, seed=seed))
    except ValueError as exc:
        # e.g. a scale tier the experiment does not define ("large" on a
        # bench/full-only figure) -> CLI-style error, not a traceback.
        raise SystemExit(f"error: {exc}")
    if not specs:
        print("nothing to run")
        return 1
    if args.backend != "packet":
        specs = [spec.replaced(backend=args.backend) for spec in specs]
    specs = _apply_foreground(args, specs)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"cannot create --out directory {out}: {exc}")
    cache = None if args.no_cache else RunCache(out)

    spec_timeout = args.spec_timeout
    if spec_timeout is not None and spec_timeout != "auto":
        try:
            spec_timeout = float(spec_timeout)
        except ValueError:
            raise SystemExit(
                f"error: --spec-timeout must be a number of seconds or "
                f"'auto', got {args.spec_timeout!r}"
            )

    if args.resume is not None:
        from .runner import plan_resume

        if not Path(args.resume).is_file():
            raise SystemExit(f"error: no sweep journal at {args.resume}")
        to_run, skipped, _ = plan_resume(specs, args.resume)
        print(
            f"resuming from {args.resume}: {len(skipped)} ok cells "
            f"skipped, {len(to_run)} to (re)run", file=sys.stderr,
        )
        if skipped and cache is None:
            print(
                "warning: --no-cache makes --resume re-run ok cells too "
                "(their results only live in the cache)", file=sys.stderr,
            )

    tel, tel_path = _make_telemetry(
        args, out / "telemetry.jsonl",
        run_id="sweep:" + "+".join(args.experiments),
    )
    started = time.perf_counter()
    journal_path = out / "journal.jsonl"
    runner = SweepRunner(
        jobs=args.jobs, cache=cache, progress=_progress_ticker(args),
        telemetry=tel, failures=args.on_error, retries=args.retries,
        spec_timeout=spec_timeout, journal=str(journal_path),
    )
    try:
        records = runner.run(specs)
    except ValueError as exc:
        # Scenario-level input errors (fluid-unsupported events/schemes,
        # unknown topologies) exit CLI-style, not as a traceback.
        raise SystemExit(f"error: {exc}")
    finally:
        if tel is not None:
            tel.close()
    elapsed = time.perf_counter() - started

    if cache is None:                       # still persist the (ok) records
        for record in records:
            if record.ok:
                record.write_json(out / f"{record.spec_hash}.json")
    write_records_csv(records, out / "summary.csv")
    hits = sum(1 for r in records if r.cached)
    failed = [r for r in records if not r.ok]
    print(
        f"{len(records)} scenarios ({hits} cached) in {elapsed:.2f}s "
        f"with --jobs {args.jobs} -> {out}"
    )
    if failed:
        by_status: dict[str, int] = {}
        for record in failed:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        detail = ", ".join(
            f"{count} {status}" for status, count in sorted(by_status.items())
        )
        print(
            f"warning: {len(failed)} cells failed ({detail}); "
            f"re-run with --resume {journal_path}", file=sys.stderr,
        )
        for record in failed:
            error = record.error or {}
            print(
                f"  {record.status:7s} {record.label}: "
                f"{error.get('type', '')}: {error.get('message', '')}",
                file=sys.stderr,
            )
    if tel_path is not None:
        print(f"telemetry -> {tel_path}")
    return 0


def _cmd_run(args) -> int:
    _require_fluid_for_large(args.scale, args.backend)
    if args.profile or args.profile_out:
        return _profiled(args)
    return _run_experiment(args)


def _run_experiment(args) -> int:
    """One path for every backend: expand the grid, hand it to the
    report's :func:`~repro.report.build.build_figure`, print the
    result — so ``run FIG`` and ``report`` answer the same question
    through the same code."""
    from .report.build import build_figure
    from .report.text import format_render, format_score
    from .runner import SweepRunner

    key = resolve(args.experiment)
    try:
        specs = _apply_foreground(
            args, EXPERIMENTS[key][1].scenarios(scale=args.scale)
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    tel, tel_path = _make_telemetry(
        args, Path("telemetry.jsonl"), run_id=f"run:{key}"
    )
    runner = SweepRunner(progress=_progress_ticker(args), telemetry=tel)
    try:
        fig = build_figure(key, args.backend, args.scale, runner,
                           telemetry=tel, specs=specs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        if tel is not None:
            tel.close()
    print(f"{key} on the {fig.backend} backend ({fig.scale} scale): "
          f"{fig.n_specs} scenarios in {fig.wall_time_s:.2f}s")
    print()
    print(format_render(fig.render))
    print()
    print(format_score(key, fig.score))
    if tel_path is not None:
        print(f"telemetry -> {tel_path}")
    return 0


def _profiled(args) -> int:
    """Run the experiment under cProfile; print the top cumulative table.

    This is the profiling recipe behind the engine's perf work (see
    README "Performance"): `hpcc-repro run fig11 --profile` answers
    "where do the cycles go" without any harness editing.
    ``--profile-out PATH`` additionally keeps the raw ``pstats`` dump
    for offline digging (``python -m pstats PATH``, snakeviz, ...).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run_experiment(args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print(f"\n--- cProfile: top {args.profile_limit} by cumulative time ---",
              file=sys.stderr)
        stats.print_stats(args.profile_limit)
        if args.profile_out:
            out = Path(args.profile_out)
            if out.parent != Path(""):
                out.parent.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(out)
            print(f"profile stats -> {out}", file=sys.stderr)
    return status


def _cmd_report(args) -> int:
    from .report.build import FASTEST_FIGURES, build_report, resolve_figures

    figures = resolve_figures(args.figures, args.fastest)
    backend = args.backend
    if backend is None:
        # --fastest is the CI/regression path: the fluid backend makes
        # the whole build a few seconds; full reports default to packet.
        backend = "fluid" if args.fastest else "packet"
    _require_fluid_for_large(args.scale, backend)
    tel, tel_path = _make_telemetry(
        args, Path(args.out) / "telemetry.jsonl",
        run_id="report:" + "+".join(figures),
    )
    try:
        report = build_report(
            figures,
            backend=backend,
            scale=args.scale,
            out=args.out,
            cache_dir=args.cache,
            jobs=args.jobs,
            progress=_progress_ticker(args),
            telemetry=tel,
            hybrid_cell=args.fastest,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        if tel is not None:
            tel.close()
    if args.png:
        from .report.build import rasterize_panels

        try:
            written = rasterize_panels(report, Path(args.out))
        except RuntimeError as exc:
            raise SystemExit(f"error: {exc}")
        print(f"{len(written)} PNG panels -> {args.out}")
    for key, verdict in report.verdicts().items():
        print(f"{key:10s} {verdict}")
    print(f"report -> {Path(args.out) / 'index.html'}")
    if tel_path is not None:
        print(f"telemetry -> {tel_path}")
    if args.fastest:
        print(f"(--fastest subset: {', '.join(FASTEST_FIGURES)}; "
              f"backend {backend})")
    return 0


def _cmd_tele(args) -> int:
    from .obs.summarize import summarize_file

    if not Path(args.path).is_file():
        print(f"no telemetry file at {args.path}", file=sys.stderr)
        return 1
    text, status = summarize_file(args.path, as_json=args.json)
    print(text)
    return status


def _load_trace_spec(args):
    """Resolve ``trace diff``'s SPEC: a spec-JSON path or experiment name."""
    import json

    from .runner.spec import ScenarioSpec

    path = Path(args.spec)
    if path.is_file():
        try:
            return ScenarioSpec.from_json(json.loads(path.read_text()))
        except (ValueError, TypeError, KeyError) as exc:
            raise SystemExit(f"error: cannot load spec from {path}: {exc}")
    module = EXPERIMENTS[resolve(args.spec)][1]
    try:
        specs = module.scenarios(scale=args.scale)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.scenario is not None:
        wanted = args.scenario.lower()
        matches = [s for s in specs if wanted in (s.label or "").lower()]
        if not matches:
            known = ", ".join(s.label or s.spec_hash for s in specs)
            raise SystemExit(
                f"error: no scenario matching {args.scenario!r}; known: {known}"
            )
        specs = matches
    return specs[0]


def _cmd_trace(args) -> int:
    """``trace diff``: one spec, both backends, decision-stream diff."""
    import json

    from .obs import format_divergence
    from .report.build import build_divergence_drilldown
    from .runner import SweepRunner

    spec = _load_trace_spec(args)
    label = spec.label or spec.spec_hash

    def landed(record, done, total):
        backend = record.spec.backend
        print(f"ran {label} on the {backend} backend", file=sys.stderr)
        if record.ok and not record.completed:
            print(f"warning: {backend} run hit its deadline before all "
                  f"flows finished; diffing the partial trace",
                  file=sys.stderr)

    print(f"running {label} on the packet and fluid backends ...",
          file=sys.stderr, flush=True)
    try:
        div, _ = build_divergence_drilldown(SweepRunner(progress=landed),
                                            spec, threshold=args.threshold)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(format_divergence(div))
    if args.out is not None:
        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(div, indent=2, sort_keys=True,
                                  allow_nan=False) + "\n")
        print(f"divergence -> {out}")
    return 0


def _cmd_cache(args) -> int:
    from .runner import RunCache

    root = Path(args.dir)
    if not root.is_dir():
        print(f"no cache directory at {root}")
        return 1
    cache = RunCache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached records from {root}")
        return 0
    stats = cache.stats()
    print(
        f"{root}: {stats['entries']} records, "
        f"{stats['total_bytes'] / 1_000_000:.2f}MB"
    )
    for (backend, program), count in sorted(stats["by_kind"].items()):
        print(f"  {backend:8s} {program:12s} {count}")
    if stats["corrupt"]:
        print(f"  ({stats['corrupt']} unreadable entries)")
    if stats["quarantined"]:
        print(f"  ({stats['quarantined']} quarantined *.corrupt files)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hpcc-repro",
        description="Reproduce the experiments of 'HPCC: High Precision "
                    "Congestion Control' (SIGCOMM 2019).",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("schemes", help="list registered CC schemes")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="e.g. fig13, fig11, appendix")
    run.add_argument(
        "--scale", choices=("bench", "full", "large"), default="bench",
        help="bench = shrunk for Python speed (default); full = paper sizes",
    )
    run.add_argument(
        "--backend", choices=("packet", "fluid", "hybrid"), default="packet",
        help="execution engine: packet-level simulation (default), the "
             "flow-level fluid fast path, or hybrid packet-in-fluid "
             "co-simulation",
    )
    run.add_argument(
        "--foreground", default=None, metavar="SEL",
        help="hybrid backend: which flows run packet-level — all, none, "
             "count:N, frac:X or tag:a,b (default frac:0.1)",
    )
    run.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-scenario stderr progress ticker",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the hottest functions to stderr",
    )
    run.add_argument(
        "--profile-limit", type=_positive_int, default=25, metavar="N",
        help="rows in the --profile table (default 25)",
    )
    run.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="write the raw cProfile pstats dump to PATH (implies "
             "--profile)",
    )
    run.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="PATH",
        help="record run telemetry JSONL (default PATH: telemetry.jsonl)",
    )

    sweep = sub.add_parser(
        "sweep", help="run experiment grids in parallel, with caching"
    )
    sweep.add_argument(
        "experiments", nargs="+", help="experiment names, e.g. fig10 fig11"
    )
    sweep.add_argument(
        "--scale", choices=("bench", "full", "large"), default="bench",
        help="scenario scale (default bench)",
    )
    sweep.add_argument(
        "--backend", choices=("packet", "fluid", "hybrid"), default="packet",
        help="execution engine for every scenario in the sweep",
    )
    sweep.add_argument(
        "--foreground", default=None, metavar="SEL",
        help="hybrid backend: which flows run packet-level — all, none, "
             "count:N, frac:X or tag:a,b (default frac:0.1)",
    )
    sweep.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes (default 1 = serial)",
    )
    sweep.add_argument(
        "--out", default="sweep-results", metavar="DIR",
        help="directory for RunRecord JSONs + summary.csv "
             "(default sweep-results/)",
    )
    sweep.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="comma-separated seeds; expands the grid once per seed",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="recompute every scenario even if a record exists in --out",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-scenario stderr progress ticker",
    )
    sweep.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="PATH",
        help="record sweep telemetry JSONL "
             "(default PATH: <out>/telemetry.jsonl)",
    )
    sweep.add_argument(
        "--on-error", choices=("quarantine", "raise"), default="quarantine",
        help="failing cells become error-status records (quarantine, "
             "default) or abort the sweep (raise)",
    )
    sweep.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts for cells lost to worker deaths "
             "(default 2; deterministic execution errors never retry)",
    )
    sweep.add_argument(
        "--spec-timeout", default=None, metavar="SECONDS",
        help="per-cell wall-clock budget; overdue cells are killed and "
             "recorded as timeouts.  'auto' derives 10x the slowest "
             "fresh cell (floor 5s).  Needs --jobs >= 2.",
    )
    sweep.add_argument(
        "--resume", default=None, metavar="JOURNAL",
        help="resume from a sweep journal: cells it records as ok are "
             "served from the cache, failed cells re-run",
    )

    report = sub.add_parser(
        "report",
        help="build the HTML/SVG reproduction report with fidelity scores",
    )
    report.add_argument(
        "--figures", nargs="+", default=None, metavar="FIG",
        help="figures to include (default: all); e.g. --figures fig11 fig13",
    )
    report.add_argument(
        "--fastest", action="store_true",
        help="build only the fast fluid-eligible subset (what CI uploads); "
             "implies --backend fluid unless overridden",
    )
    report.add_argument(
        "--backend", choices=("packet", "fluid", "hybrid"), default=None,
        help="execution engine (default: packet, or fluid with --fastest); "
             "packet-only figures always stay on the packet engine",
    )
    report.add_argument(
        "--scale", choices=("bench", "full", "large"), default="bench",
        help="scenario scale (default bench)",
    )
    report.add_argument(
        "--out", default="report", metavar="DIR",
        help="output directory for index.html + SVGs (default report/)",
    )
    report.add_argument(
        "--cache", default=None, metavar="DIR",
        help="RunCache directory to reuse (e.g. a sweep's --out); "
             "default <out>/cache",
    )
    report.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for missing scenarios (default 1)",
    )
    report.add_argument(
        "--png", action="store_true",
        help="additionally rasterize every panel to PNG (requires "
             "matplotlib; the SVG report never does)",
    )
    report.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-scenario stderr progress ticker",
    )
    report.add_argument(
        "--telemetry", nargs="?", const="", default=None, metavar="PATH",
        help="record build telemetry JSONL "
             "(default PATH: <out>/telemetry.jsonl)",
    )

    tele = sub.add_parser(
        "tele", help="inspect run-telemetry JSONL files"
    )
    tele.add_argument(
        "action", choices=("summarize",),
        help="summarize = aggregate spans/counters/gauges as text",
    )
    tele.add_argument("path", metavar="PATH", help="telemetry JSONL file")
    tele.add_argument(
        "--json", action="store_true",
        help="emit the aggregates as a JSON document instead of text",
    )

    trace = sub.add_parser(
        "trace",
        help="diff the CC decision traces of both execution backends",
    )
    trace.add_argument(
        "action", choices=("diff",),
        help="diff = run one scenario on the packet AND fluid engines "
             "with the decision tap attached, then align the traces",
    )
    trace.add_argument(
        "spec", metavar="SPEC",
        help="a ScenarioSpec JSON file, or an experiment name (e.g. "
             "fig13) whose first/--scenario grid cell is used",
    )
    trace.add_argument(
        "--scenario", default=None, metavar="LABEL",
        help="with an experiment name: pick the grid cell whose label "
             "contains LABEL (case-insensitive), e.g. --scenario HPCC",
    )
    trace.add_argument(
        "--scale", choices=("bench", "full", "large"), default="bench",
        help="scenario scale for experiment-name specs (default bench)",
    )
    trace.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="relative rate gap that counts as divergence (default 0.25)",
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="additionally write the machine-readable divergence.json",
    )

    cache = sub.add_parser(
        "cache", help="inspect or prune a sweep's RunCache directory"
    )
    cache.add_argument(
        "action", choices=("stats", "clear"),
        help="stats = entry counts and sizes; clear = delete every record",
    )
    cache.add_argument(
        "--dir", default="sweep-results", metavar="DIR",
        help="cache directory (a sweep's --out; default sweep-results/)",
    )

    args = parser.parse_args(argv)

    if args.command == "list" or args.command is None:
        for name, (desc, _) in EXPERIMENTS.items():
            print(f"{name:10s} {desc}")
        return 0
    if args.command == "schemes":
        for scheme in available_schemes():
            print(scheme)
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "tele":
        return _cmd_tele(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "cache":
        return _cmd_cache(args)
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
