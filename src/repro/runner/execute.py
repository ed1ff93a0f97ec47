"""Scenario execution: programs and the spec interpreter.

The **programs** are the generic execution recipes every figure is built
from.  A program takes a :class:`ScenarioSpec` (pure data), builds its
own ``Network``, runs it, and returns a :class:`RunRecord` (pure data
again) — nothing live crosses the boundary, which is what lets
:class:`~repro.runner.sweep.SweepRunner` fan specs out over a
``ProcessPoolExecutor``.

Telemetry (``repro.obs``) is opt-in per sweep: :func:`execute_spec`
builds a run-scoped memory-sink :class:`~repro.obs.Telemetry` when
asked, and programs mark their setup/run/collect phases through the
ambient :func:`~repro.obs.maybe_span` context (a no-op otherwise).
"""

from __future__ import annotations

import time
from typing import Callable

from ..dynamics import PacketDynamicsDriver, Timeline, burst_flow_specs
from ..obs import Telemetry, maybe_span, using
from ..topology.base import Topology
from ..topology.fattree import FatTreeSpec, fattree
from ..topology.simple import dual_trunk, dumbbell, intree, parking_lot, star
from ..topology.testbed import testbed
from ..workloads.fbhadoop import fbhadoop
from ..workloads.websearch import websearch
from .harness import RunResult, load_experiment, run_workload, setup_network
from .results import RunRecord
from .spec import ScenarioSpec

# -- registries (resolved by name inside worker processes) -----------------------

TOPOLOGIES: dict[str, Callable[..., Topology]] = {
    "star": star,
    "dumbbell": dumbbell,
    "parking_lot": parking_lot,
    "intree": intree,
    "testbed": testbed,
    "dual_trunk": dual_trunk,
    "fattree": lambda **kwargs: fattree(FatTreeSpec(**kwargs)),
}

CDFS: dict[str, Callable] = {
    "websearch": websearch,
    "fbhadoop": fbhadoop,
}


def build_topology(spec: ScenarioSpec) -> Topology:
    """Instantiate the spec's topology (cheap: no simulator involved)."""
    try:
        factory = TOPOLOGIES[spec.topology]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGIES))
        raise ValueError(
            f"unknown topology {spec.topology!r}; known: {known}"
        ) from None
    return factory(**spec.topology_params)


def workload_cdf(workload: dict):
    cdf = CDFS[workload["cdf"]]()
    return cdf.scaled(workload.get("size_scale", 1.0))


# -- payload builders -------------------------------------------------------------

def _fct_payload(result: RunResult) -> list[dict]:
    return [
        {
            "flow_id": r.spec.flow_id, "src": r.spec.src, "dst": r.spec.dst,
            "size": r.spec.size, "start_time": r.spec.start_time,
            "tag": r.spec.tag, "start": r.start, "finish": r.finish,
            "ideal": r.ideal,
        }
        for r in result.records
    ]


def _queue_payload(result: RunResult) -> dict[str, dict]:
    if result.sampler is None:
        return {}
    return {
        label: {"times": list(result.sampler.times), "qlens": list(values)}
        for label, values in result.sampler.samples.items()
    }


def _base_extras(spec: ScenarioSpec, result: RunResult, net) -> dict:
    tracker = net.metrics.pause_tracker
    extras: dict = {
        "n_hosts": net.topology.n_hosts,
        "header_bytes": net.header,
        "drops": net.metrics.drop_count,
        "pause_count": tracker.pause_count(),
        "pause_total_ns": tracker.total_pause_time(None),
        "switch_queued_bytes": {
            str(sw): switch.total_queued_bytes()
            for sw, switch in net.switches.items()
        },
    }
    if spec.measure.get("pause_intervals"):
        extras["pause_intervals"] = [
            [iv.device, iv.port, iv.start, iv.end] for iv in tracker.intervals
        ]
        extras["origin_of"] = [
            [device, port, peer]
            for (device, port), peer in net.origin_of.items()
        ]
    if net.metrics.goodput is not None:
        extras["goodput"] = {
            "bin_ns": net.metrics.goodput.bin_ns,
            "bins": {
                str(flow_id): {str(idx): n for idx, n in bins.items()}
                for flow_id, bins in net.metrics.goodput._bins.items()
            },
        }
    return extras


def _finish_record(spec: ScenarioSpec, result: RunResult, net,
                   extras: dict) -> RunRecord:
    return RunRecord(
        spec=spec,
        fct=_fct_payload(result),
        queues=_queue_payload(result),
        extras=extras,
        events_processed=net.sim.events_processed,
        duration_ns=result.duration,
        completed=result.completed,
    )


# -- programs ---------------------------------------------------------------------

def spec_timeline(spec: ScenarioSpec) -> Timeline:
    """The spec's dynamics timeline, legacy ``workload["events"]`` included.

    The legacy list (``[["fail_link"|"restore_link", t, a, b], ...]``) is
    a deprecation shim over the timeline DSL: old JSON specs keep hashing
    identically (the ``dynamics`` field stays empty) and keep running
    identically (a shimmed fail/restore fires as one scheduled callback
    with immediate reconvergence — the pre-dynamics behaviour, pinned by
    the golden determinism fixtures).
    """
    return Timeline.for_spec(spec.dynamics, spec.workload.get("events"))


def _run_load(spec: ScenarioSpec) -> RunRecord:
    """Poisson background traffic from a size CDF, optional incast bursts.

    workload: ``{"cdf", "size_scale", "load", "n_flows", "incast"?,
    "deadline_factor"?}``; measure: ``{"sample_interval"?,
    "pause_intervals"?}``; config: ``NetworkConfig`` overrides
    (``base_rtt`` required for paper fidelity); dynamics: a timeline of
    mid-run events (see ``repro.dynamics``).
    """
    topo = build_topology(spec)
    workload = spec.workload
    config = dict(spec.config)
    base_rtt = config.pop("base_rtt", None)
    result = load_experiment(
        topo, spec.cc, workload_cdf(workload),
        load=workload["load"], n_flows=workload["n_flows"],
        base_rtt=base_rtt, seed=spec.seed,
        incast=workload.get("incast"),
        deadline_factor=workload.get("deadline_factor", 2.5),
        sample_interval=spec.measure.get("sample_interval"),
        timeline=spec_timeline(spec),
        **config,
    )
    net = result.net
    with maybe_span("collect"):
        extras = _base_extras(spec, result, net)
        if result.dynamics is not None:
            extras["link_events"] = result.dynamics.report()
            _merge_burst_flow_ids(extras)
        return _finish_record(spec, result, net, extras)


def _merge_burst_flow_ids(extras: dict) -> None:
    """Surface dynamics-injected burst flows under ``extras["flow_ids"]``.

    The load program has no per-tag flow map of its own (the Poisson
    population is thousands of anonymous ``bg`` flows), but injected
    bursts are few and analyses select them by tag.
    """
    flow_ids: dict[str, list[int]] = extras.get("flow_ids", {})
    for entry in extras.get("link_events", ()):
        if entry.get("type") == "inject_burst":
            flow_ids.setdefault(entry["tag"], []).extend(entry["flow_ids"])
    if flow_ids:
        extras["flow_ids"] = flow_ids


def _resolve_ports(net, declarations) -> dict | None:
    """Resolve a declarative port list to live egress ports.

    Each entry is ``[label, "between", a, b]`` (egress of device ``a``
    toward ``b``) or ``[label, "to_host", h]`` (the switch egress feeding
    host ``h`` — the usual bottleneck probe).
    """
    if declarations is None:
        return None
    ports = {}
    for entry in declarations:
        label, kind = entry[0], entry[1]
        if kind == "between":
            ports[label] = net.port_between(entry[2], entry[3])
        elif kind == "to_host":
            host = entry[2]
            feeder = next(
                peer for (node, peer) in net.port_map if node == host
            )
            ports[label] = net.port_between(feeder, host)
        else:
            raise ValueError(f"unknown sample-port kind {kind!r}")
    return ports


def _run_flows(spec: ScenarioSpec) -> RunRecord:
    """An explicit flow list, optionally with mid-run network dynamics.

    workload: ``{"flows": [[src, dst, size, start?, tag?], ...],
    "deadline", "events"?: the legacy fail/restore shim}``; dynamics: a
    timeline of mid-run events (see ``repro.dynamics``); measure:
    ``{"sample_interval"?, "sample_ports"?, "windows"?,
    "pause_intervals"?}``.
    """
    with maybe_span("setup"):
        topo = build_topology(spec)
        config = dict(spec.config)
        base_rtt = config.pop("base_rtt", None)
        goodput_bin = config.pop("goodput_bin", None)
        net = setup_network(
            topo, spec.cc, base_rtt=base_rtt, goodput_bin=goodput_bin,
            seed=spec.seed, **config,
        )
        workload = spec.workload
        flow_specs = [
            net.make_flow(
                src=entry[0], dst=entry[1], size=entry[2],
                start_time=entry[3] if len(entry) > 3 else 0.0,
                tag=entry[4] if len(entry) > 4 else "bg",
            )
            for entry in workload["flows"]
        ]

        driver = None
        timeline = spec_timeline(spec)
        if timeline:
            bursts, burst_entries = burst_flow_specs(
                timeline, topo.hosts, spec.seed,
                next_flow_id=len(flow_specs) + 1,
            )
            flow_specs = flow_specs + bursts
            driver = PacketDynamicsDriver(net, timeline, burst_entries)
            driver.install()

    result = run_workload(
        net, flow_specs, deadline=workload["deadline"],
        sample_interval=spec.measure.get("sample_interval"),
        sample_ports=_resolve_ports(net, spec.measure.get("sample_ports")),
    )

    with maybe_span("collect"):
        extras = _base_extras(spec, result, net)
        flow_ids: dict[str, list[int]] = {}
        for fs in flow_specs:
            flow_ids.setdefault(fs.tag, []).append(fs.flow_id)
        extras["flow_ids"] = flow_ids
        if driver is not None:
            extras["link_events"] = driver.report()
        if spec.measure.get("windows"):
            windows: dict[str, float | None] = {}
            for fs in flow_specs:
                flow = net.nics[fs.src].flows.get(fs.flow_id)
                window = getattr(flow, "window", None) \
                    if flow is not None else None
                windows[str(fs.flow_id)] = window
            extras["final_windows"] = windows
        return _finish_record(spec, result, net, extras)


def _run_appendix_a1(spec: ScenarioSpec) -> RunRecord:
    """A.1: sumDi/D/1 queueing approximations vs direct simulation.

    workload: ``{"n_sources", "rho", "threshold", "n_periods"?}``.
    """
    from ..analysis.queueing import (
        PeriodicSourcesQueue,
        mean_queue_full_load,
        overflow_probability,
    )

    w = spec.workload
    n_sources, rho = w["n_sources"], w["rho"]
    threshold = w["threshold"]
    n_periods = w.get("n_periods", 200)
    sim = PeriodicSourcesQueue(n_sources, rho, seed=spec.seed)
    extras = {
        "n_sources": n_sources,
        "rho": rho,
        "analytic_mean_full_load": mean_queue_full_load(n_sources),
        "simulated_mean": sim.mean_queue(n_periods=n_periods),
        "analytic_tail": overflow_probability(n_sources, rho, threshold),
        "simulated_tail": sim.tail_probability(threshold, n_periods=n_periods),
    }
    return RunRecord(spec=spec, extras=extras, completed=True)


def _run_appendix_a2(spec: ScenarioSpec) -> RunRecord:
    """A.2: the Pareto-convergence Lemma on random rate networks.

    workload: ``{"n_trials"}``; seed drives the random topologies.
    """
    import numpy as np

    from ..analysis.convergence import random_network

    n_trials = spec.workload["n_trials"]
    rng = np.random.default_rng(spec.seed)
    feasible = monotone = pareto_i = pareto_inf = 0
    for _ in range(n_trials):
        net = random_network(
            n_resources=int(rng.integers(2, 8)),
            n_paths=int(rng.integers(2, 10)),
            rng=rng,
        )
        r0 = rng.uniform(0.1, 5.0, size=net.n_paths)
        trajectory = net.iterate(r0, 5 * net.n_resources)
        if net.is_feasible(trajectory[1]):
            feasible += 1
        if all(
            (trajectory[k + 1] >= trajectory[k] - 1e-9).all()
            for k in range(1, len(trajectory) - 1)
        ):
            monotone += 1
        if net.is_pareto_optimal(trajectory[net.n_resources], tol=0.01):
            pareto_i += 1
        if net.is_pareto_optimal(trajectory[-1]):
            pareto_inf += 1
    extras = {
        "n_trials": n_trials,
        "feasible_after_one": feasible,
        "monotone": monotone,
        "pareto_within_i": pareto_i,
        "pareto_asymptotic": pareto_inf,
    }
    return RunRecord(spec=spec, extras=extras, completed=True)


PROGRAMS: dict[str, Callable[[ScenarioSpec], RunRecord]] = {
    "load": _run_load,
    "flows": _run_flows,
    "appendix_a1": _run_appendix_a1,
    "appendix_a2": _run_appendix_a2,
}


def _packet_overrides() -> dict[str, Callable[[ScenarioSpec], RunRecord]]:
    """The packet backend runs the base table as-is (no overrides)."""
    return {}


def _fluid_overrides() -> dict[str, Callable[[ScenarioSpec], RunRecord]]:
    """Fluid twins of the network programs (lazy: keeps ``repro.runner``
    importable without ``repro.fluid``)."""
    from ..fluid.programs import FLUID_PROGRAMS

    return FLUID_PROGRAMS


def _hybrid_overrides() -> dict[str, Callable[[ScenarioSpec], RunRecord]]:
    """Hybrid (packet-in-fluid) twins of the network programs."""
    from ..hybrid.programs import HYBRID_PROGRAMS

    return HYBRID_PROGRAMS


#: Backend name -> loader returning that backend's program *overrides*
#: (programs absent from the override table — the analytic appendix
#: programs — fall back to the shared packet implementations).  Dispatch
#: is table-driven on purpose: a backend name missing from this table
#: raises instead of silently falling through to the packet engine, so
#: adding a backend to ``BACKENDS`` without wiring its programs is loud.
BACKEND_PROGRAMS: dict[
    str, Callable[[], dict[str, Callable[[ScenarioSpec], RunRecord]]]
] = {
    "packet": _packet_overrides,
    "fluid": _fluid_overrides,
    "hybrid": _hybrid_overrides,
}


def backend_programs(
    backend: str,
) -> dict[str, Callable[[ScenarioSpec], RunRecord]]:
    """The full program table for ``backend``; raises on unknown names."""
    if backend not in BACKEND_PROGRAMS:
        known = ", ".join(sorted(BACKEND_PROGRAMS))
        raise ValueError(
            f"unknown backend {backend!r}; known: {known}"
        )
    table = dict(PROGRAMS)
    table.update(BACKEND_PROGRAMS[backend]())
    return table


def _resolve_program(spec: ScenarioSpec) -> Callable[[ScenarioSpec], RunRecord]:
    """The implementation of ``spec.program`` on ``spec.backend``.

    The fluid and hybrid backends override the network programs
    (``load``/``flows``) with their own twins; the analytic appendix
    programs never touch the packet engine, so all backends share them.
    Imported lazily to keep ``repro.runner`` importable without
    ``repro.fluid``/``repro.hybrid`` (and vice versa).
    """
    if spec.program not in PROGRAMS:
        known = ", ".join(sorted(PROGRAMS))
        raise ValueError(
            f"unknown program {spec.program!r}; known: {known}"
        )
    return backend_programs(spec.backend)[spec.program]


def execute_spec(spec: ScenarioSpec, telemetry: bool = False,
                 decisions: bool = False) -> RunRecord:
    """Run one scenario to completion (the process-pool work unit).

    With ``telemetry=True`` the run executes under a run-scoped,
    memory-backed :class:`~repro.obs.Telemetry` (programs and engine
    probes find it via the ambient context); its drained records ride
    back on ``record.telemetry`` for the sweep's sink.  On an exception
    or a deadline overrun the flight recorder dumps the last samples to
    stderr before the record (or the exception) leaves the worker.

    ``decisions=True`` (implies telemetry) additionally attaches a
    :class:`~repro.obs.DecisionTap` — the execution layer hands it to
    whichever engine the spec selects — and exports one ``decision``
    record per CC control decision into the telemetry stream.
    """
    program = _resolve_program(spec)
    started = time.perf_counter()
    if not (telemetry or decisions):
        record = program(spec)
        record.wall_time_s = time.perf_counter() - started
        return record

    tel = Telemetry(
        run_id=spec.spec_hash,
        labels={
            "label": spec.label or spec.spec_hash,
            "program": spec.program,
            "backend": spec.backend,
            "cc": spec.cc.name,
        },
    )
    if decisions:
        from ..obs import DecisionTap

        tel.decisions = DecisionTap()
    try:
        with using(tel), tel.span("total"):
            record = program(spec)
    except BaseException:
        tel.event("run.exception")
        tel.flight.dump("exception", spec.label or spec.spec_hash)
        raise
    record.wall_time_s = time.perf_counter() - started
    if not record.completed:
        tel.event("run.deadline_overrun", sim_ns=record.duration_ns)
        tel.flight.dump("deadline overrun", spec.label or spec.spec_hash)
    if tel.decisions is not None:
        tel.export_decisions(tel.decisions)
    record.telemetry = tel.drain()
    return record


def validate_specs(specs: list[ScenarioSpec]) -> None:
    """Reject malformed specs before any worker starts.

    Input errors — unknown program or topology names — are bugs in the
    calling experiment, not runtime faults, so they raise immediately
    under *every* failure policy: quarantine must never silently eat a
    typo.  The checks are registry-membership only (no simulator work).
    """
    for spec in specs:
        if spec.program not in PROGRAMS:
            known = ", ".join(sorted(PROGRAMS))
            raise ValueError(
                f"unknown program {spec.program!r}; known: {known}"
            )
        if spec.backend not in BACKEND_PROGRAMS:
            known = ", ".join(sorted(BACKEND_PROGRAMS))
            raise ValueError(
                f"unknown backend {spec.backend!r}; known: {known}"
            )
        if spec.program in ("load", "flows") \
                and spec.topology not in TOPOLOGIES:
            known = ", ".join(sorted(TOPOLOGIES))
            raise ValueError(
                f"unknown topology {spec.topology!r}; known: {known}"
            )
