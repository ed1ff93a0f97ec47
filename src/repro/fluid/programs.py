"""The fluid engine behind the backend contract.

:class:`FluidBackend` runs the same ``load``/``flows`` program as the
packet engine (``repro.runner.execute``) on :class:`FluidEngine`.
Everything upstream (topology factory, workload CDF, Poisson/incast
flow generation, the dynamics timeline, burst materialisation) and
downstream (the :class:`RunRecord` payload shape) is shared, so figure
post-processing — slowdown buckets, queue series, goodput trajectories,
link-event accounting, summary CSVs — works unchanged on fluid records.

Network-dynamics timelines run natively: the
:class:`~repro.dynamics.driver.TimelineDriver` applies link events
at step boundaries and recomputes paths at detection time, so failover
scenarios execute at fluid speed instead of raising.

What fluid cannot express is zeroed or approximated openly, never faked:

* PFC pause telemetry reports zero (the model is lossless and
  pause-free by construction);
* a cut link's in-flight casualties are estimated from the flushed
  queue share (there are no packets to count);
* ``NetworkConfig`` knobs with no fluid meaning (``transport``,
  ``pfc_enabled``, ...) are recorded under ``extras["fluid_ignored_config"]``
  so a record always says what it did not model.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator

from ..dynamics import Timeline, TimelineDriver
from ..obs import current as current_telemetry
from ..obs import instrument_fluid, maybe_span
from ..runner.harness import sample_probes
from ..runner.results import FctTable, RunRecord
from ..runner.spec import ScenarioSpec
from ..sim.flow import FlowSpec
from ..sim.units import MB
from ..topology.base import Topology
from .engine import FluidBatch, FluidEngine


class FluidBackend:
    """One scenario on the flow-level fluid engine.

    ``config`` (default ``spec.config``) is what the engine is built
    from; keys it has no use for land in ``fluid_ignored_config``.
    The hybrid backend passes its fluid half's share of the config and,
    in mixed mode, ``sampled=False``: queue series then come from the
    packet half alone.
    """

    def __init__(self, spec: ScenarioSpec, topology: Topology,
                 config: dict | None = None, sampled: bool = True) -> None:
        self.spec = spec
        config = dict(spec.config if config is None else config)
        interval = spec.measure.get("sample_interval") if sampled else None
        self.engine = engine = FluidEngine(
            topology,
            cc_name=spec.cc.name,
            cc_params=spec.cc.params,
            base_rtt=config.pop("base_rtt", None),
            mtu=config.pop("mtu", 1000),
            buffer_bytes=config.pop("buffer_bytes", 32 * MB),
            sample_interval=interval,
            probes=None if interval is None else sample_probes(
                topology, spec.measure.get("sample_ports")),
            goodput_bin=config.pop("goodput_bin", None),
        )
        #: The ambient telemetry at construction: the run's own, as the
        #: one executor sets each spec up under its own scope; a batch
        #: then runs many backends under none.
        self.tel = current_telemetry()
        engine.decision_tap = getattr(self.tel, "decisions", None)
        self.ignored = sorted(config)   # leftovers have no fluid meaning
        self.wire_factor = engine.wire_factor
        self.driver: TimelineDriver | None = None
        #: Wall seconds of a :meth:`run_batch` charged to this scenario.
        self.run_s = 0.0

    def admit(self, flows: list[FlowSpec], timeline: Timeline,
              burst_entries: list[dict]) -> None:
        engine = self.engine
        if timeline:
            self.driver = TimelineDriver(
                engine, timeline, burst_entries,
                engine.schedule_event, lambda: engine.now,
                lambda _member: {"reroutes": engine.reconverge()})
            self.driver.install()
        engine.add_flows(flows)

    @contextmanager
    def running(self):
        """The run phase's instrumentation: a
        :class:`~repro.obs.probes.FluidProbe` while the scenario has
        telemetry."""
        engine = self.engine
        tel = self.tel
        probe = instrument_fluid(engine, tel) if tel is not None else None
        try:
            yield
        finally:
            if probe is not None:
                probe.finish(engine)
                engine.telemetry = None

    def run(self, deadline: float) -> bool:
        with self.running(), maybe_span("run"):
            return self.engine.run(deadline)

    @staticmethod
    def run_batch(backends: list["FluidBackend"], deadlines: list[float]
                  ) -> Iterator[tuple[int, bool | Exception]]:
        """Run several scenarios' engines as one lockstep
        :class:`~repro.fluid.engine.FluidBatch`.

        Yields ``(k, outcome)`` as backend ``k``'s engine leaves the
        batch: what :meth:`run` would return (all flows completed) or
        the exception its engine raised; the others run on.  By then its
        ``run_s`` — and its telemetry's ``run`` span — holds its share
        of the batch's ticks, its instrumentation is finished, and the
        batch holds it no longer.
        """
        backends = list(backends)
        batch = FluidBatch([b.engine for b in backends])
        stacks = [ExitStack() for _ in backends]
        try:
            for backend, stack in zip(backends, stacks):
                stack.enter_context(backend.running())
            for k, outcome in batch.run(deadlines):
                backend, stack = backends[k], stacks[k]
                backends[k] = stacks[k] = None
                backend.run_s = batch.run_s[k]
                if backend.tel is not None:
                    labels = ({"error": type(outcome).__name__}
                              if isinstance(outcome, Exception) else {})
                    backend.tel.record_span("run", backend.run_s, **labels)
                stack.close()
                del backend, stack
                yield k, outcome
        finally:
            for stack in stacks:
                if stack is not None:
                    stack.close()

    def record(self, completed: bool) -> RunRecord:
        engine = self.engine
        extras: dict = {
            "n_hosts": engine.topology.n_hosts,
            "header_bytes": engine.header,
            "drops": int(engine.dropped_bytes() / (engine.mtu + engine.header)),
            "pause_count": 0,
            "pause_total_ns": 0.0,
            "switch_queued_bytes": {
                str(sw): int(q)
                for sw, q in engine.switch_queued_bytes().items()
            },
            "fluid_steps": engine.steps,
            "fluid_flow_steps": engine.flow_steps,
        }
        goodput = engine.goodput_payload()
        if goodput is not None:
            extras["goodput"] = goodput
        if self.driver is not None:
            extras["link_events"] = self.driver.report()
        if self.ignored:
            extras["fluid_ignored_config"] = self.ignored
        return RunRecord(
            spec=self.spec,
            fct_table=FctTable.of(engine.fct_records),
            queues={
                label: {"times": list(s["times"]), "qlens": list(s["qlens"])}
                for label, s in engine.queue_samples.items()
            },
            extras=extras,
            events_processed=engine.steps,
            duration_ns=engine.now,
            completed=completed,
        )

    def windows(self) -> dict[str, float | None]:
        return self.engine.final_windows()
