"""Scenario execution: registries, the backend contract, the programs.

A **program** takes a :class:`ScenarioSpec` (pure data), runs it, and
returns a :class:`RunRecord` (pure data again) — nothing live crosses
the boundary, which is what lets :class:`~repro.runner.sweep.SweepRunner`
fan specs out over a ``ProcessPoolExecutor``.

``load`` and ``flows`` are one program, :func:`_run_network`, over a
:class:`Backend`: build the topology, construct the backend, generate
the flow population (the only step the two differ in), materialise the
timeline's bursts, ``admit``, ``run``, ``record``, stamp
``flow_ids``/``final_windows``.  Every backend is therefore offered the
identical traffic.  The contract's fine print:

1. The packet half installs the timeline driver, *then* creates the
   queue sampler, *then* admits flows: calendar-queue sequence numbers
   break same-time ties, so the order is part of the record.
2. The hybrid's packet half follows that same order in mixed mode.
3. Flow ids are ``1..n`` by position; burst ids start at ``max(id) + 1``.
4. A degenerate hybrid partition builds one half only: all-foreground
   the packet half from ``spec.config`` minus the ``hybrid_*`` and
   ``fluid_*`` keys, all-background the fluid half from ``spec.config``
   minus ``hybrid_*`` (mixed mode gives the fluid half no queue
   sampling).
5. Only the first half that exists carries the burst accounting
   entries, so ``link_events`` reports each burst once.
6. The hybrid can only choose its halves once it has the population,
   which is why ``admit`` takes the timeline along with the flows.

Telemetry (``repro.obs``) is opt-in: :func:`execute_spec` builds a
run-scoped memory-sink :class:`~repro.obs.Telemetry` when asked, and the
program marks its setup/run/collect phases through the ambient
:func:`~repro.obs.maybe_span` context (a no-op otherwise).
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from importlib import import_module
from typing import Callable, Iterator, NamedTuple, Protocol

from ..dynamics import Timeline, burst_flow_specs
from ..obs import Telemetry, maybe_span, using
from ..sim.flow import FlowSpec
from ..topology.base import Topology
from ..topology.fattree import FatTreeSpec, fattree
from ..topology.simple import dual_trunk, dumbbell, intree, parking_lot, star
from ..topology.testbed import testbed
from ..workloads.fbhadoop import fbhadoop
from ..workloads.websearch import websearch
from .harness import generate_load_flows
from .results import RunRecord
from .spec import ScenarioSpec, require_known

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

#: Backend name -> ``module:class`` implementing :class:`Backend`
#: (imported on first use: those modules import ``repro.runner``).  A
#: name missing here raises instead of falling through to the packet
#: engine, so a new ``BACKENDS`` entry without a class is loud.
_BACKENDS: dict[str, str] = {
    "packet": "repro.runner.harness:PacketBackend",
    "fluid": "repro.fluid.programs:FluidBackend",
    "hybrid": "repro.hybrid.programs:HybridBackend",
}


def build_topology(spec: ScenarioSpec) -> Topology:
    """Instantiate the spec's topology (cheap: no simulator involved)."""
    factory = TOPOLOGIES[require_known("topology", spec.topology, TOPOLOGIES)]
    return factory(**spec.topology_params)


def workload_cdf(workload: dict):
    """The workload's size CDF, scaled by ``size_scale``."""
    cdf = CDFS[require_known("workload.cdf", workload.get("cdf"), CDFS)]()
    return cdf.scaled(workload.get("size_scale", 1.0))


# -- the backend contract -----------------------------------------------------------

class Backend(Protocol):
    """What :func:`_run_network` needs from an execution engine.

    Constructed from ``(spec, topology)``; the calls come once each, in
    the order below.
    """

    #: Wire bytes per payload byte; sizes the ``load`` population.
    wire_factor: float

    def admit(self, flows: list[FlowSpec], timeline: Timeline,
              burst_entries: list[dict]) -> None:
        """Install the timeline and offer the whole flow population."""

    def run(self, deadline: float) -> bool:
        """Advance to completion or ``deadline``; True when all finished."""

    def record(self, completed: bool) -> RunRecord:
        """Collect FCT rows, queue series, extras and run accounting."""

    def windows(self) -> dict[str, float | None]:
        """Each admitted flow's final congestion window, by flow id."""


def backend_class(name: str) -> type[Backend]:
    """The :class:`Backend` implementation registered under ``name``."""
    module, _, cls = _BACKENDS[require_known("backend", name, _BACKENDS)] \
        .partition(":")
    return getattr(import_module(module), cls)


# -- programs ---------------------------------------------------------------------

class _NetworkJob(NamedTuple):
    """A ``load``/``flows`` scenario between setup and collect."""

    backend: Backend
    flows: list[FlowSpec]
    bursts: list[FlowSpec]
    deadline: float
    explicit: bool


def _setup_network(spec: ScenarioSpec) -> _NetworkJob:
    """Build the topology and backend, offer the population (setup)."""
    workload = spec.workload
    explicit = spec.program == "flows"
    with maybe_span("setup"):
        topology = build_topology(spec)
        backend = backend_class(spec.backend)(spec, topology)
        if explicit:
            if "deadline" not in workload:
                raise ValueError(
                    "workload.deadline is required by the 'flows' program; "
                    f"got workload keys: {', '.join(sorted(workload))}"
                )
            deadline = workload["deadline"]
            flows = [
                FlowSpec(
                    flow_id=i, src=entry[0], dst=entry[1], size=entry[2],
                    start_time=entry[3] if len(entry) > 3 else 0.0,
                    tag=entry[4] if len(entry) > 4 else "bg",
                )
                for i, entry in enumerate(workload["flows"], start=1)
            ]
        else:
            flows, duration = generate_load_flows(
                topology, workload_cdf(workload),
                load=workload["load"], n_flows=workload["n_flows"],
                seed=spec.seed, wire_overhead=backend.wire_factor,
                incast=workload.get("incast"),
            )
            deadline = duration * workload.get("deadline_factor", 2.5)
        timeline = (Timeline.from_json(spec.dynamics) if spec.dynamics
                    else Timeline())
        bursts: list[FlowSpec] = []
        burst_entries: list[dict] = []
        if timeline:
            bursts, burst_entries = burst_flow_specs(
                timeline, topology.hosts, spec.seed,
                next_flow_id=max((fs.flow_id for fs in flows), default=0) + 1,
            )
            flows = flows + bursts
        backend.admit(flows, timeline, burst_entries)
    return _NetworkJob(backend, flows, bursts, deadline, explicit)


def _collect_network(spec: ScenarioSpec, job: _NetworkJob,
                     completed: bool) -> RunRecord:
    """The run's record, stamped with flow ids and windows (collect)."""
    with maybe_span("collect"):
        record = job.backend.record(completed)
        # The load population is thousands of anonymous ``bg`` flows, so
        # only an explicit list is stamped whole; injected bursts are few
        # and analyses select them by tag, so they always are.
        flow_ids: dict[str, list[int]] = {}
        for fs in job.flows if job.explicit else job.bursts:
            flow_ids.setdefault(fs.tag, []).append(fs.flow_id)
        if flow_ids or job.explicit:
            record.extras["flow_ids"] = flow_ids
        if spec.measure.get("windows"):
            record.extras["final_windows"] = job.backend.windows()
    return record


def _run_network(spec: ScenarioSpec) -> RunRecord:
    """The ``load`` and ``flows`` programs, on any backend.

    ``load`` — Poisson background traffic from a size CDF, optional
    incast bursts.  workload: ``{"cdf", "size_scale", "load", "n_flows",
    "incast"?, "deadline_factor"?}``.

    ``flows`` — an explicit flow list.  workload: ``{"flows": [[src,
    dst, size, start?, tag?], ...], "deadline"}``.

    Both — measure: ``{"sample_interval"?, "sample_ports"?, "windows"?,
    "pause_intervals"?, "decisions"?}`` (the last read by
    :func:`execute_spec`); config: ``NetworkConfig`` overrides
    (``base_rtt`` required for paper fidelity) plus the backend's own
    keys; dynamics: a timeline of mid-run events (``repro.dynamics``).
    Hybrid specs add ``workload["foreground"]``.

    Three phases — setup, run, collect — which :func:`execute_batch`
    takes apart to run many fluid scenarios' middle phase together.
    """
    job = _setup_network(spec)
    completed = job.backend.run(job.deadline)
    return _collect_network(spec, job, completed)


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
    "load": _run_network,
    "flows": _run_network,
    "appendix_a1": _run_appendix_a1,
    "appendix_a2": _run_appendix_a2,
}


def validate_specs(specs: list[ScenarioSpec]) -> None:
    """Reject malformed specs before any worker starts.

    Input errors — unknown program, backend, topology or CDF names, or
    a link schedule under the retired ``workload["events"]`` key — are
    bugs in the calling experiment, not runtime faults, so they raise
    immediately under *every* failure policy: quarantine must never
    silently eat a typo, and a run must never silently drop a link
    failure.  The checks do no simulator work, and this is the one place
    they are spelled.
    """
    for spec in specs:
        require_known("program", spec.program, PROGRAMS)
        require_known("backend", spec.backend, _BACKENDS)
        if PROGRAMS[spec.program] is _run_network:
            require_known("topology", spec.topology, TOPOLOGIES)
            if "events" in spec.workload:
                rows = [dict(zip(("type", "at", "a", "b"), row))
                        for row in spec.workload["events"]]
                raise ValueError(
                    'workload["events"] is not read; declare the schedule '
                    f'as dynamics={json.dumps({"events": rows})}'
                )
            if spec.program == "load":
                require_known("workload.cdf", spec.workload.get("cdf"), CDFS)


def batchable(spec: ScenarioSpec) -> bool:
    """Whether :func:`execute_batch` can run ``spec``: the ``load`` and
    ``flows`` programs on the fluid backend."""
    return spec.backend == "fluid" and PROGRAMS.get(spec.program) is _run_network


class _RunScope:
    """One spec's run-scoped telemetry and decision tap, both opt-in
    (see :func:`execute_spec`)."""

    def __init__(self, spec: ScenarioSpec, telemetry: bool) -> None:
        self.spec = spec
        self.telemetry = telemetry
        self.tel: Telemetry | None = None
        decisions = spec.measure.get("decisions", False)
        if telemetry or decisions:
            self.tel = Telemetry(
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

                self.tel.decisions = DecisionTap()

    def active(self):
        """The scope's telemetry as the ambient one (if it has any)."""
        return using(self.tel) if self.tel is not None else nullcontext()

    def failed(self) -> None:
        """The run raised: note it and dump the flight recorder."""
        if self.tel is not None:
            self.tel.event("run.exception")
            self.tel.flight.dump("exception",
                                 self.spec.label or self.spec.spec_hash)

    def finish(self, record: RunRecord, wall_s: float) -> RunRecord:
        """Stamp the wall time; attach decisions and drained telemetry."""
        record.wall_time_s = wall_s
        tel = self.tel
        if tel is None:
            return record
        if not record.completed:
            tel.event("run.deadline_overrun", sim_ns=record.duration_ns)
            tel.flight.dump("deadline overrun",
                            self.spec.label or self.spec.spec_hash)
        if tel.decisions is not None:
            record.extras["decisions"] = tel.decisions.columns()
            if self.telemetry:
                tel.export_decisions(tel.decisions)
        if self.telemetry:
            record.telemetry = tel.drain()
        return record


def execute_spec(spec: ScenarioSpec, telemetry: bool = False) -> RunRecord:
    """Run one scenario to completion (the process-pool work unit).

    With ``telemetry=True`` the run executes under a run-scoped,
    memory-backed :class:`~repro.obs.Telemetry` (programs and engine
    probes find it via the ambient context); its drained records ride
    back on ``record.telemetry`` for the sweep's sink.  On an exception
    or a deadline overrun the flight recorder dumps the last samples to
    stderr before the record (or the exception) leaves the worker.

    ``spec.measure["decisions"]`` attaches a
    :class:`~repro.obs.DecisionTap` — the execution layer hands it to
    whichever engine the spec selects — and stores its per-flow columns
    (:meth:`~repro.obs.DecisionTap.columns`) as
    ``record.extras["decisions"]``, so they are cached with the record.
    With ``telemetry=True`` as well, one ``decision`` record per CC
    control decision also goes into the telemetry stream.
    """
    validate_specs([spec])
    program = PROGRAMS[spec.program]
    scope = _RunScope(spec, telemetry)
    started = time.perf_counter()
    tel = scope.tel
    if tel is None:
        record = program(spec)
    else:
        try:
            with using(tel), tel.span("total"):
                record = program(spec)
        except BaseException:
            scope.failed()
            raise
    return scope.finish(record, time.perf_counter() - started)


def execute_batch(specs: list[ScenarioSpec], telemetry: bool = False
                  ) -> Iterator[tuple[int, RunRecord | Exception]]:
    """Run fluid ``load``/``flows`` scenarios (:func:`batchable`) with
    their run phases stepped in lockstep fluid batches.

    Yields ``(i, outcome)`` as ``specs[i]`` finishes: its record, or the
    exception it raised — in setup, in the run or in collect — after
    which the others run on.  Each spec is set up and collected on its
    own, under its own scope (telemetry, decision tap) exactly as
    :func:`execute_spec` runs it, and its record equals that record but
    for ``wall_time_s``: its own setup and collect plus its share of the
    batch's ticks (its telemetry's ``run`` span says the same).

    Specs are set up in order.  One whose footprint reaches
    :attr:`~repro.fluid.FluidBatch.CAP` runs alone at once; the others
    join the open batch, which runs once its footprint reaches the cap
    (or the specs run out).  Each spec is collected — and its cell
    released — as it leaves its batch.
    """
    from ..fluid import FluidBatch

    validate_specs(specs)
    for spec in specs:
        if not batchable(spec):
            raise ValueError(
                f"{spec.label or spec.spec_hash}: only fluid load/flows "
                f"specs run in a batch, got {spec.backend}/{spec.program}"
            )
    pending: dict[int, tuple[_RunScope, _NetworkJob, float]] = {}
    size = 0
    for i, spec in enumerate(specs):
        scope = _RunScope(spec, telemetry)
        started = time.perf_counter()
        try:
            with scope.active():
                job = _setup_network(spec)
        except Exception as exc:
            scope.failed()
            yield i, exc
            continue
        spent = time.perf_counter() - started
        footprint = job.backend.engine.footprint
        # The job is held by the dict ``_run_together`` empties as it
        # collects, and by nothing else: a collected cell is freed.
        if footprint >= FluidBatch.CAP:
            alone = {i: (scope, job, spent)}
            del job
            yield from _run_together(alone)
            continue
        pending[i] = (scope, job, spent)
        del job
        size += footprint
        if size >= FluidBatch.CAP:
            yield from _run_together(pending)
            size = 0
    yield from _run_together(pending)


def _run_together(pending: dict[int, tuple[_RunScope, _NetworkJob, float]]
                  ) -> Iterator[tuple[int, RunRecord | Exception]]:
    """Run the set-up specs of :func:`execute_batch` as one batch,
    collecting each (and popping it from ``pending``) as it leaves."""
    order = list(pending)
    if not order:
        return
    runs = backend_class("fluid").run_batch(
        [pending[i][1].backend for i in order],
        [pending[i][1].deadline for i in order],
    )
    for k, completed in runs:
        i = order[k]
        scope, job, spent = pending.pop(i)
        if isinstance(completed, Exception):
            scope.failed()
            yield i, completed
            continue
        started = time.perf_counter()
        try:
            with scope.active():
                record = _collect_network(scope.spec, job, completed)
        except Exception as exc:
            scope.failed()
            yield i, exc
            continue
        wall = spent + job.backend.run_s + time.perf_counter() - started
        # The cell goes before the next one leaves.
        del job
        if scope.tel is not None:
            scope.tel.record_span("total", wall)
        yield i, scope.finish(record, wall)
