"""The four workloads: inputs from the seed, one pass, checks, counts.

Every workload is a closed loop with one client: a pass starts when the
previous one returned, ``jobs=1`` everywhere.  The program receives only
generated inputs — a ``ScenarioSpec`` whose ``seed`` the benchmark
derives from ``--seed`` and from which the program draws its
Poisson/incast flow population.

FB_Hadoop flow sizes are heavy-tailed: at a fixed flow count one seed
offers 1.7x the bytes (and simulator events, and wall time) of another,
which would bury any code change under input variance.  Each workload
therefore states its input size as *work* — packet-hops (packets times
links crossed, which predicts lossless packet-engine events to 1%) or
offered bytes — and :func:`typical` walks the seed's own family of
populations to the first one within a few percent of it, so every
``--seed`` is a different population of the same size.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import Network, NetworkConfig, percentile
from repro.experiments import figure11
from repro.runner import (
    CcChoice,
    RunRecord,
    build_topology,
    execute_spec,
    generate_load_flows,
    workload_cdf,
)
from repro.topology import star

CASE = ("30%+incast",)
HPCC = CcChoice("hpcc", label="HPCC")
DCQCN = CcChoice("dcqcn", label="DCQCN")
#: Populations per ``--seed`` family.
FAMILY = 4096


@dataclass
class Pass:
    """One closed-loop pass over a workload's inputs."""

    parts: dict[str, float]             # part name -> wall seconds
    records: list = field(default_factory=list)
    spans: dict[str, float] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)     # report passes only

    @property
    def wall_s(self) -> float:
        return sum(self.parts.values())


@dataclass
class Outcome:
    """What the correctness checks found over a run's timed passes."""

    attempted: int = 0                  # flows offered / checks + cells
    failed: int = 0                     # hard failures: wrong or missing output
    unfinished: int = 0                 # no FCT at the deadline / failed checks
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)


# -- inputs from the seed ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def wire_overhead(cc_name: str) -> float:
    """``(mtu + header) / mtu`` as the program computes it for a scheme."""
    net = Network(star(n_hosts=2), NetworkConfig(cc_name=cc_name))
    return (net.config.mtu + net.header) / net.config.mtu


def offered_flows(spec) -> list:
    """The flow population the load program will generate for ``spec``."""
    workload = spec.workload
    flows, _ = generate_load_flows(
        build_topology(spec), workload_cdf(workload),
        load=workload["load"], n_flows=workload["n_flows"], seed=spec.seed,
        wire_overhead=wire_overhead(spec.cc.name),
        incast=workload.get("incast"),
    )
    return flows


def first_to_start(flows: list, frac: float) -> list:
    """The hybrid ``frac`` selector's foreground: the earliest flows."""
    ordered = sorted(flows, key=lambda f: (f.start_time, f.flow_id))
    return ordered[:round(frac * len(flows))]


def packet_hops_of(spec):
    """``flows -> sum of packets x links on the path`` for ``spec``'s fabric."""
    topology = build_topology(spec)
    adjacency = topology.adjacency()
    mtu = NetworkConfig().mtu
    links: dict[tuple[int, int], int] = {}
    for src in topology.hosts:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            reached = []
            for node in frontier:
                for peer, _ in adjacency[node]:
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        reached.append(peer)
            frontier = reached
        links.update(((src, dst), dist[dst]) for dst in topology.hosts)

    def packet_hops(flows: list) -> int:
        return sum(-(-f.size // mtu) * links[f.src, f.dst] for f in flows)
    return packet_hops


def typical(spec, gates: list[tuple]) -> int:
    """The first program seed of ``spec.seed``'s family whose offered
    population passes every ``(measure, target, tolerance)`` gate:
    ``measure(flows)`` within ``tolerance`` (a share) of ``target``.
    """
    for seed in range(spec.seed * FAMILY, (spec.seed + 1) * FAMILY):
        flows = offered_flows(spec.replaced(seed=seed))
        if all(abs(measure(flows) - target) <= tolerance * target
               for measure, target, tolerance in gates):
            return seed
    raise RuntimeError(f"no typical population in seed family {spec.seed}")


def fig11_cell(seed: int, cc: CcChoice, scale: str = "bench",
               overrides: dict | None = None):
    return figure11.scenarios(scale=scale, seed=seed, cases=CASE,
                              schemes=(cc,), overrides=overrides)[0]


# -- checks shared by the simulation workloads ------------------------------------

def fct_digest(record: RunRecord) -> str:
    payload = json.dumps([record.events_processed, record.fct],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def check_sim_passes(passes: list[Pass]) -> Outcome:
    """Determinism across reps and FCT invariants of every record."""
    out = Outcome()
    first = passes[0].records
    digests = [fct_digest(r) for r in first]
    out.digest = hashlib.sha256("".join(digests).encode()).hexdigest()[:16]
    for rep, p in enumerate(passes[1:], start=2):
        for rec, digest in zip(p.records, digests):
            if fct_digest(rec) != digest:
                out.errors.append(
                    f"rep {rep} of {rec.label} differs from rep 1"
                )
    mtu = NetworkConfig().mtu
    for rec in first:
        offered = offered_flows(rec.spec)
        out.attempted += len(offered)
        if rec.status != "ok":
            out.errors.append(f"{rec.label}: status {rec.status}")
            out.failed += len(offered)
            out.unfinished += len(offered)
            continue
        if wire_overhead(rec.spec.cc.name) \
                != (mtu + rec.extras["header_bytes"]) / mtu:
            out.errors.append(f"{rec.label}: wire overhead mismatch")
        ids = {f.flow_id for f in offered}
        finished = {r["flow_id"] for r in rec.fct}
        if not finished <= ids or len(finished) != len(rec.fct):
            out.errors.append(f"{rec.label}: FCT records not a subset of "
                              "the offered flows")
        if rec.completed and finished != ids:
            out.errors.append(f"{rec.label}: completed with flows missing")
        out.unfinished += len(ids - finished)
        # ``ideal`` charges a full MTU per store-and-forward hop, so short
        # flows legitimately beat it; the payload's serialization time at
        # the slower end host is the bound no flow can beat.
        topology = build_topology(rec.spec)
        bad = [r for r in rec.fct
               if not r["ideal"] > 0 or (r["finish"] - r["start"]) * min(
                   topology.host_rate(r["src"]), topology.host_rate(r["dst"])
               ) < r["size"]]
        if bad:
            out.errors.append(f"{rec.label}: {len(bad)} flows finish faster "
                              "than their bytes serialize at line rate")
            out.failed += len(bad)
    return out


#: Exact counts read off the timed passes' records (per pass).
COUNT_NAMES = (
    "sim.engine.events", "sim.datapath.drops", "sim.datapath.pfc_pauses",
    "fluid.kernels.steps", "fluid.kernels.flow_steps", "hybrid.epochs",
    "hybrid.fg_flows", "runner.cells", "runner.cache_hits",
    "report.svg_files", "report.out_bytes",
)


def record_counts(records: list[RunRecord]) -> dict[str, float]:
    counts = dict.fromkeys(COUNT_NAMES, 0)
    for rec in records:
        extras = rec.extras
        if rec.spec.backend != "fluid":
            counts["sim.engine.events"] += rec.events_processed
        counts["sim.datapath.drops"] += extras.get("drops", 0)
        counts["sim.datapath.pfc_pauses"] += extras.get("pause_count", 0)
        counts["fluid.kernels.steps"] += extras.get("fluid_steps", 0)
        counts["fluid.kernels.flow_steps"] += extras.get("fluid_flow_steps", 0)
        counts["hybrid.epochs"] += extras.get("hybrid_epochs", 0)
        counts["hybrid.fg_flows"] += extras.get("foreground_flows", 0) \
            if extras.get("hybrid_mode") == "mixed" else 0
    counts["runner.cells"] = len(records)
    return counts


def span_sums(telemetry_records: list[dict]) -> dict[str, float]:
    sums = {"setup": 0.0, "run": 0.0, "collect": 0.0}
    for rec in telemetry_records:
        if rec.get("kind") == "span" and rec.get("name") in sums:
            sums[rec["name"]] += float(rec["dur"])
    return sums


# -- the simulation workloads -----------------------------------------------------

class SimWorkload:
    """Cells run one after another through ``execute_spec``.

    A subclass names its schemes, its cell sizes at full and ``--quick``
    size, how one cell is built and the gates a population must pass;
    every cell of a run shares one typical program seed, so the schemes
    see the same traffic.
    """

    name = ""
    schemes: tuple[CcChoice, ...] = (HPCC,)
    n_flows = (0, 0)                    # timed cell: (full, quick)
    warm_flows = (0, 0)                 # warm-up cell: (full, quick)

    def __init__(self, seed: int, quick: bool, tmp: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.tmp = tmp
        self.specs: list = []

    def cell(self, seed: int, cc: CcChoice, n_flows: int):
        return fig11_cell(seed, cc, overrides={"n_flows": n_flows})

    def warm_cell(self, seed: int, cc: CcChoice, n_flows: int):
        return self.cell(seed, cc, n_flows)

    def gates(self, spec) -> list[tuple]:
        """``(measure, target, tolerance)`` per stated input size; the
        ``--quick`` smoke run takes its family's first population."""
        raise NotImplementedError

    def setup(self) -> None:
        n_flows, warm_flows = (pair[self.quick] for pair in
                               (self.n_flows, self.warm_flows))
        first = self.cell(self.seed, self.schemes[0], n_flows)
        seed = typical(first, [] if self.quick else self.gates(first))
        self.specs = [self.cell(seed, cc, n_flows) for cc in self.schemes]
        for cc in self.schemes:
            execute_spec(self.warm_cell(seed, cc, warm_flows))

    def run_pass(self, traced: bool = False) -> Pass:
        records = []
        parts = {}
        # A traced run that hits its simulated deadline dumps the flight
        # recorder to stderr; that is expected here (DCQCN and the k=16
        # tier never drain) and would drown the benchmark's own output.
        with contextlib.redirect_stderr(io.StringIO()) if traced \
                else contextlib.nullcontext():
            for spec in self.specs:
                started = time.perf_counter()
                records.append(execute_spec(spec, telemetry=traced))
                parts[spec.cc.name] = time.perf_counter() - started
        spans = span_sums([t for r in records for t in r.telemetry])
        return Pass(parts, records, spans)

    def check(self, passes: list[Pass], full: bool) -> Outcome:
        return check_sim_passes(passes)

    def counts(self, passes: list[Pass]) -> dict[str, float]:
        return record_counts(passes[0].records)

    def probe_inputs(self, passes: list[Pass]) -> dict:
        record = passes[0].records[0]
        return {"spec": record.spec, "record": record,
                "panels": [], "scored": []}


class PacketFig11(SimWorkload):
    name = "packet_fig11"
    schemes = (HPCC, DCQCN)
    n_flows = (220, 80)
    warm_flows = (40, 20)

    def cell(self, seed: int, cc: CcChoice, n_flows: int):
        # Four times the load program's default drain time: DCQCN then
        # finishes every flow, so its events follow the offered
        # packet-hops (to 1.5%) instead of where the deadline happened
        # to cut its slowest flows (events/packet-hop 3.1-4.2).
        return super().cell(seed, cc, n_flows).replaced(
            **{"workload.deadline_factor": 10.0})

    def gates(self, spec) -> list[tuple]:
        return [(packet_hops_of(spec), 62_000, 0.03)]

    def check(self, passes: list[Pass], full: bool) -> Outcome:
        out = super().check(passes, full)
        p95 = {}
        for rec in passes[0].records:
            short = 120_000 * rec.spec.meta["size_scale"]
            slow = [r.slowdown for r in rec.fct_records()
                    if r.spec.size < short and r.spec.tag == "bg"]
            p95[rec.spec.cc.name] = percentile(slow, 95) if slow \
                else float("nan")
        out.info["short_p95_slowdown"] = p95
        # The paper's Figure 11 claim, at the bench tier's 0.1 size scale.
        if not p95["hpcc"] < p95["dcqcn"]:
            out.errors.append(
                f"HPCC short-flow p95 slowdown {p95['hpcc']:.2f} is not "
                f"below DCQCN's {p95['dcqcn']:.2f}"
            )
        return out


class FluidLarge(SimWorkload):
    name = "fluid_large"
    n_flows = (4000, 300)
    warm_flows = (600, 100)

    def gates(self, spec) -> list[tuple]:
        expected = spec.workload["n_flows"] * workload_cdf(spec.workload).mean()
        return [(lambda flows: sum(f.size for f in flows if f.tag == "bg"),
                 expected, 0.03)]

    def cell(self, seed: int, cc: CcChoice, n_flows: int):
        overrides = {"n_flows": n_flows}
        if self.quick:
            from repro.topology.fattree import fattree_k_spec

            overrides["fattree"] = fattree_k_spec(8)
        return fig11_cell(seed, cc, scale="large",
                          overrides=overrides).replaced(backend="fluid")

    def warm_cell(self, seed: int, cc: CcChoice, n_flows: int):
        """The bench-tier fluid cell: warms the kernels, not the k=16 routes."""
        return fig11_cell(seed, cc, overrides={"n_flows": n_flows}) \
            .replaced(backend="fluid")


class HybridFig11(SimWorkload):
    name = "hybrid_fig11"
    n_flows = (1500, 150)
    warm_flows = (300, 60)
    fg_frac = 0.1

    def gates(self, spec) -> list[tuple]:
        packet_hops = packet_hops_of(spec)
        return [
            (packet_hops, 396_000, 0.05),
            (lambda flows: packet_hops(first_to_start(flows, self.fg_frac)),
             38_000, 0.05),
        ]

    def cell(self, seed: int, cc: CcChoice, n_flows: int):
        return super().cell(seed, cc, n_flows).replaced(
            backend="hybrid",
            **{"workload.foreground": {"kind": "frac", "x": self.fg_frac}},
        )

    def check(self, passes: list[Pass], full: bool) -> Outcome:
        out = super().check(passes, full)
        rec = passes[0].records[0]
        extras = rec.extras
        offered = offered_flows(rec.spec)
        fg = extras.get("foreground_flow_ids", [])
        if extras.get("hybrid_mode") != "mixed":
            out.errors.append("hybrid run degenerated to one backend")
        if extras["foreground_flows"] + extras["background_flows"] \
                != len(offered) or sorted(fg) != sorted(
                    f.flow_id for f in first_to_start(offered, self.fg_frac)):
            out.errors.append("foreground is not the first 10% of the "
                              "offered flows, or fg + bg != offered")
        if len(fg) > self.fg_frac * len(offered) + 1:
            out.errors.append("foreground exceeds 10% of the flows + 1")
        if full:
            self._score_against_packet(rec, fg, out)
        return out

    def _score_against_packet(self, rec, fg: list[int], out: Outcome) -> None:
        """Foreground FCT error against one untimed packet run of the spec."""
        workload = {k: v for k, v in rec.spec.workload.items()
                    if k != "foreground"}
        started = time.perf_counter()
        ref = execute_spec(rec.spec.replaced(backend="packet",
                                             workload=workload))
        out.info["packet_reference_s"] = time.perf_counter() - started
        ref_fct = {r["flow_id"]: r["finish"] - r["start"] for r in ref.fct}
        hyb_fct = {r["flow_id"]: r["finish"] - r["start"] for r in rec.fct}
        errs = sorted(abs(hyb_fct[i] - ref_fct[i]) / ref_fct[i]
                      for i in fg if i in hyb_fct and i in ref_fct)
        if ref.status != "ok" or len(errs) < 0.9 * len(fg):
            out.errors.append("packet reference run left too few foreground "
                              "flows to compare")
            return
        out.info["fg_fct_err"] = {
            "mean": statistics.fmean(errs), "p50": percentile(errs, 50),
            "p90": percentile(errs, 90), "max": errs[-1], "n": len(errs),
        }
        # A handful of flows that are 2-3x off carry the whole mean; one
        # flow counts for at most "100% wrong" so that which seed drew
        # how many of them does not swamp a change in the other 150.
        out.metrics["fg_fct_accuracy"] = 1.0 - statistics.fmean(
            min(err, 1.0) for err in errs)


# -- the report workload ----------------------------------------------------------

class ReportFastest:
    """``build_report(FASTEST_FIGURES, fluid)`` cold, then warm on the same out.

    The figure grids carry their own fixed seeds (``build_report`` takes
    none), so ``--seed`` names the run but does not change this
    workload's inputs.
    """

    name = "report_fastest"

    def __init__(self, seed: int, quick: bool, tmp: Path) -> None:
        from repro.report.build import FASTEST_FIGURES

        self.quick = quick
        self.tmp = tmp
        self.figures = ["fig13"] if quick else list(FASTEST_FIGURES)
        self.empty = tmp / "no_bench_snapshots"
        self._n = 0
        self.last_report = None
        self.last_out: Path | None = None

    def _build(self, out: Path, telemetry=None):
        from repro.report.build import build_report

        return build_report(
            self.figures, backend="fluid", hybrid_cell=not self.quick,
            out=out, bench_root=self.empty, telemetry=telemetry,
        )

    def setup(self) -> None:
        self.empty.mkdir(parents=True, exist_ok=True)
        out = self.tmp / "report_warmup"
        self._build(out)                # one throw-away cold build
        shutil.rmtree(out)

    @staticmethod
    def _summary(report, out: Path) -> dict:
        files = [p for p in out.rglob("*") if p.is_file()]
        return {
            "figures": {
                f.key: {
                    "verdict": f.score.verdict if f.score else "n/a",
                    "nrmse": f.score.nrmse if f.score else None,
                    "checks": len(f.score.checks) if f.score else 0,
                    "checks_failed": sum(
                        1 for c in f.score.checks if not c.passed
                    ) if f.score else 0,
                    "n_specs": f.n_specs, "n_cached": f.n_cached,
                    "n_failed": f.n_failed, "events": f.events_processed,
                }
                for f in report.figures
            },
            "svg_files": sum(1 for p in files if p.suffix == ".svg"),
            "out_bytes": sum(p.stat().st_size for p in files),
        }

    def run_pass(self, traced: bool = False) -> Pass:
        from repro.obs import MemorySink, Telemetry

        self._n += 1
        out = self.tmp / f"report_{self._n}"
        sink = MemorySink()
        tel = Telemetry(run_id="ledger", sink=sink) if traced else None
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        started = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()) if traced \
                else contextlib.nullcontext():
            cold = self._build(out, tel)
            mid = time.perf_counter()
            cold_summary = self._summary(cold, out)
            resumed = time.perf_counter()
            warm = self._build(out, tel)
        ended = time.perf_counter()
        parts = {"cold": mid - started, "warm": ended - resumed}
        summary = {"cold": cold_summary, "warm": self._summary(warm, out)}
        for name in ("index.html", "report.json"):
            summary[name] = (out / name).is_file()
        try:
            json.loads((out / "report.json").read_text(),
                       parse_constant=_reject_constant)
            summary["strict_json"] = True
        except (ValueError, OSError):
            summary["strict_json"] = False
        self.last_report, self.last_out = warm, out
        return Pass(parts, spans=span_sums(sink.records), summary=summary)

    def check(self, passes: list[Pass], full: bool) -> Outcome:
        out = Outcome()
        first = passes[0].summary
        out.digest = hashlib.sha256(json.dumps(
            {k: {m: v for m, v in fig.items() if m != "n_cached"}
             for k, fig in first["cold"]["figures"].items()},
            sort_keys=True).encode()).hexdigest()[:16]
        for rep, p in enumerate(passes, start=1):
            s = p.summary
            if not (s["index.html"] and s["report.json"] and s["strict_json"]):
                out.errors.append(f"rep {rep}: index.html or a strict-JSON "
                                  "report.json is missing")
            for key, cold in s["cold"]["figures"].items():
                warm = s["warm"]["figures"][key]
                if warm["n_cached"] != warm["n_specs"]:
                    out.errors.append(f"rep {rep}: {key} warm build hit "
                                      f"{warm['n_cached']}/{warm['n_specs']}")
                if (warm["verdict"], warm["nrmse"]) \
                        != (cold["verdict"], cold["nrmse"]):
                    out.errors.append(f"rep {rep}: {key} warm verdict or "
                                      "nRMSE differs from cold")
                if cold != first["cold"]["figures"][key]:
                    out.errors.append(f"rep {rep}: {key} differs from rep 1")
        figs = first["cold"]["figures"].values()
        out.attempted = sum(f["checks"] + f["n_specs"] for f in figs)
        out.failed = out.unfinished = sum(
            f["checks_failed"] + f["n_failed"] for f in figs)
        scores = [f["nrmse"] for f in figs if f["nrmse"] is not None]
        out.info["verdicts"] = {k: f["verdict"]
                                for k, f in first["cold"]["figures"].items()}
        out.info["nrmse"] = {k: f["nrmse"]
                             for k, f in first["cold"]["figures"].items()}
        if scores:
            out.metrics["fidelity_accuracy"] = 1.0 - statistics.fmean(scores)
        else:
            out.errors.append("no figure was scored against refdata")
        return out

    def counts(self, passes: list[Pass]) -> dict[str, float]:
        cold = passes[0].summary["cold"]
        warm = passes[0].summary["warm"]
        counts = record_counts([])
        counts["fluid.kernels.steps"] = sum(
            f["events"] for f in cold["figures"].values())
        counts["runner.cells"] = sum(
            f["n_specs"] for f in cold["figures"].values())
        counts["runner.cache_hits"] = sum(
            f["n_cached"] for f in warm["figures"].values())
        counts["report.svg_files"] = warm["svg_files"]
        counts["report.out_bytes"] = warm["out_bytes"]
        return counts

    def probe_inputs(self, passes: list[Pass]) -> dict:
        report = self.last_report
        record = RunRecord.read_json(
            sorted((self.last_out / "cache").glob("*.json"))[0])
        return {
            "spec": record.spec, "record": record,
            "panels": [p for f in report.figures for p in f.render.panels],
            "scored": [(f.render, f.ref) for f in report.figures
                       if f.ref is not None],
        }


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


WORKLOADS = {w.name: w for w in
             (PacketFig11, FluidLarge, HybridFig11, ReportFastest)}
