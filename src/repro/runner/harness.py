"""The packet engine behind the backend contract, the load workload and
the queue probes.

:class:`PacketBackend` is the packet :class:`~repro.network.Network`
driven through the call sequence of
:class:`~repro.runner.execute.Backend`; :func:`generate_load_flows` is
the flow population every backend's ``load`` run is offered, and
:func:`sample_probes` the egress queues every backend samples.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..dynamics import Timeline, TimelineDriver
from ..metrics.queuestats import QueueSampler
from ..network import Network, NetworkConfig
from ..obs import current as current_telemetry
from ..obs import instrument_simulator, maybe_span
from ..sim.flow import FlowSpec
from ..topology.base import Topology
from .results import FctTable, RunRecord
from .spec import ScenarioSpec


class PacketBackend:
    """One scenario on the discrete-event packet simulator.

    ``config`` (default ``spec.config``) holds the ``NetworkConfig``
    overrides; the hybrid backend passes its packet half's share.
    """

    def __init__(self, spec: ScenarioSpec, topology: Topology,
                 config: dict | None = None) -> None:
        self.spec = spec
        self.net = net = Network(topology, NetworkConfig(
            cc_name=spec.cc.name, cc_params=dict(spec.cc.params),
            seed=spec.seed, **(spec.config if config is None else config),
        ))
        net.decision_tap = getattr(current_telemetry(), "decisions", None)
        self.wire_factor = (net.config.mtu + net.header) / net.config.mtu
        self.driver: TimelineDriver | None = None
        self.sampler: QueueSampler | None = None
        self.flows: list[FlowSpec] = []

    def admit(self, flows: list[FlowSpec], timeline: Timeline,
              burst_entries: list[dict]) -> None:
        """Driver, then sampler, then flows: same-time events fire in
        scheduling order, so this order is part of the record."""
        net = self.net
        if timeline:
            sim = net.sim
            self.driver = TimelineDriver(
                net, timeline, burst_entries,
                sim.at, lambda: sim.now, net.reconverge)
            self.driver.install()
        interval = self.spec.measure.get("sample_interval")
        if interval is not None:
            probes = sample_probes(net.topology,
                                   self.spec.measure.get("sample_ports"))
            self.sampler = QueueSampler(net.sim, {
                label: net.ports_between(a, b)
                for label, (a, b) in probes.items()
            }, interval)
        net.add_flows(flows)
        self.flows = flows

    @contextmanager
    def running(self):
        """The run phase's instrumentation: a
        :class:`~repro.obs.probes.SimProbe` while an ambient telemetry
        context is active, and the queue sampler stopped afterwards."""
        sim = self.net.sim
        tel = current_telemetry()
        probe = instrument_simulator(sim, tel) if tel is not None else None
        try:
            yield
        finally:
            if probe is not None:
                probe.finish(sim)
                sim.telemetry = None
        if self.sampler is not None:
            self.sampler.stop()

    def run(self, deadline: float) -> bool:
        with self.running(), maybe_span("run"):
            return self.net.run_until_done(deadline=deadline)

    def record(self, completed: bool) -> RunRecord:
        net = self.net
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
        if self.spec.measure.get("pause_intervals"):
            extras["pause_intervals"] = [
                [iv.device, iv.port, iv.start, iv.end]
                for iv in tracker.intervals
            ]
            extras["origin_of"] = [
                [device, port, peer]
                for (device, port), peer in net.origin_of.items()
            ]
        if net.metrics.goodput is not None:
            extras["goodput"] = net.metrics.goodput.payload()
        if self.driver is not None:
            extras["link_events"] = self.driver.report()
        sampler = self.sampler
        return RunRecord(
            spec=self.spec,
            fct_table=FctTable.of(net.metrics.fct_records),
            queues={} if sampler is None else {
                label: {"times": list(sampler.times), "qlens": list(values)}
                for label, values in sampler.samples.items()
            },
            extras=extras,
            events_processed=net.sim.events_processed,
            duration_ns=net.sim.now,
            completed=completed,
        )

    def windows(self) -> dict[str, float | None]:
        nics = self.net.nics
        return {
            str(fs.flow_id):
                getattr(nics[fs.src].flows.get(fs.flow_id), "window", None)
            for fs in self.flows
        }


def generate_load_flows(
    topology: Topology,
    cdf,
    load: float,
    n_flows: int,
    seed: int,
    wire_overhead: float,
    incast: dict | None = None,
) -> tuple[list[FlowSpec], float]:
    """The load-program workload: Poisson background + optional incasts.

    Returns ``(flow specs, workload duration)``.  Both execution backends
    call this with the same arguments, so a packet and a fluid run of one
    scenario offer the *identical* flow population — which is what makes
    cross-backend validation of goodput shares meaningful.
    """
    from ..workloads.generator import poisson_flows
    from ..workloads.incast import incast_events, incast_period_for_load

    rates = {h: topology.host_rate(h) for h in topology.hosts}
    total_capacity = sum(rates.values())
    flow_rate = load * total_capacity / (cdf.mean() * wire_overhead)  # flows/ns
    duration = n_flows / flow_rate
    specs = poisson_flows(
        list(topology.hosts), rates, cdf, load, duration,
        seed=seed, wire_overhead=wire_overhead,
    )
    if incast is not None:
        period = incast_period_for_load(
            incast["fan_in"], incast["flow_size"], incast["load"], total_capacity
        )
        n_events = max(1, int(duration / period))
        specs += incast_events(
            list(topology.hosts), incast["fan_in"], incast["flow_size"],
            n_events, period, seed=seed + 13,
            start_offset=period / 2,
        )
    return specs, duration


def sample_probes(topology: Topology, declarations: list | None
                  ) -> dict[str, tuple[int, int]]:
    """``measure["sample_ports"]`` as ``label -> (a, b)``: the egress of
    node ``a`` toward node ``b``, which every backend samples under
    ``label`` (a packet port, a fluid link row).

    Each declaration is ``[label, "between", a, b]`` or
    ``[label, "to_host", h]`` (the switch egress feeding host ``h`` —
    the usual bottleneck probe).  Without declarations: every switch
    egress, labelled ``sw{a}->{b}``, switches in id order and each
    switch's peers in link order.  A parallel pair is one probe, its
    first member's port on the packet engine.
    """
    adjacency = topology.adjacency()
    if declarations is None:
        return {f"sw{a}->{b}": (a, b)
                for a in topology.switches for b, _ in adjacency[a]}
    probes = {}
    for entry in declarations:
        try:
            label, kind = entry[0], entry[1]
            if kind == "between":
                a, b = entry[2], entry[3]
                if all(peer != b for peer, _ in adjacency.get(a, ())):
                    raise LookupError(f"no link {a} -> {b}")
            elif kind == "to_host":
                b = entry[2]
                link = topology.host_link(b)
                a = link.a if link.b == b else link.b
            else:
                raise LookupError(f"unknown kind {kind!r}")
        except (LookupError, ValueError) as exc:
            raise ValueError(
                f"measure.sample_ports: {exc} in {entry!r}; known kinds: "
                f"between, to_host; known nodes: hosts "
                f"0..{topology.n_hosts - 1}, switches {topology.n_hosts}.."
                f"{topology.n_hosts + topology.n_switches - 1}"
            ) from None
        probes[label] = (a, b)
    return probes
