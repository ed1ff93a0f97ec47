"""Network assembly: topology + CC scheme + substrate -> runnable simulation.

:class:`Network` is the main entry point of the library:

>>> from repro import Network, NetworkConfig
>>> from repro.topology import star
>>> net = Network(star(n_hosts=4), NetworkConfig(cc_name="hpcc"))
>>> net.add_flow(net.make_flow(src=0, dst=3, size=100_000))
>>> net.run_until_done(deadline=5e6)
>>> net.metrics.fct_records[0].slowdown  # doctest: +SKIP
1.05
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.base import CcEnv
from .core.registry import get_scheme
from .metrics.hub import Metrics
from .topology.base import Topology
from .sim.buffer import BufferConfig
from .sim.ecn import EcnPolicy
from .sim.engine import Simulator
from .sim.flow import FlowSpec
from .sim.link import Link
from .sim.nic import HostNic, NicConfig
from .sim.packet import ACK_SIZE, BASE_HEADER, INT_OVERHEAD
from .sim.pfc import PfcConfig
from .sim.routing import NoRoute, RoutingState, round_trip
from .sim.switch import Switch
from .sim.units import MB, MS, US


#: Simulated time between :meth:`Network.run_until_done`'s checks for
#: completion (ns).
DONE_CHECK_INTERVAL = 100 * US


@dataclass
class NetworkConfig:
    """Run-wide configuration.

    ``int_enabled``, ``ecn`` and ``cnp_interval`` default to what the
    chosen CC scheme requires; ``base_rtt`` defaults to a topology
    estimate (the paper sets it explicitly: 9us testbed, 13us simulation).
    """

    cc_name: str = "hpcc"
    cc_params: dict = field(default_factory=dict)
    transport: str = "gbn"              # 'gbn' or 'irn'
    pfc_enabled: bool = True
    int_enabled: bool | None = None
    mtu: int = 1000
    buffer_bytes: int = 32 * MB         # per switch (paper's device: 32MB)
    ecn: EcnPolicy | None = None
    base_rtt: float | None = None
    rto: float | None = None
    goodput_bin: float | None = None    # enable goodput time series
    seed: int = 1


def header_bytes(cc_name: str, int_enabled: bool | None = None) -> int:
    """Per-packet header on the wire: the INT stack rides along when
    enabled (default: whenever the scheme needs it)."""
    if int_enabled is None:
        int_enabled = get_scheme(cc_name).needs_int
    return BASE_HEADER + (INT_OVERHEAD if int_enabled else 0)


class Network:
    """A live, runnable network simulation."""

    def __init__(self, topology: Topology, config: NetworkConfig) -> None:
        self.topology = topology
        self.config = config
        self.sim = Simulator()
        self.scheme = get_scheme(config.cc_name)
        #: Optional control-loop flight recorder (a
        #: :class:`~repro.core.base.DecisionTap`).  Attach before flows
        #: start; each flow's CC instance then records its decisions.
        self.decision_tap = None

        int_enabled = (
            config.int_enabled
            if config.int_enabled is not None
            else self.scheme.needs_int
        )
        self.int_enabled = int_enabled
        header = header_bytes(config.cc_name, int_enabled)
        self.header = header
        self.base_rtt = (
            config.base_rtt
            if config.base_rtt is not None
            else 1.05 * topology.base_rtt_estimate(config.mtu + header)
        )

        self.metrics = Metrics(
            self.sim, ideal_fct=self.ideal_fct, goodput_bin=config.goodput_bin
        )

        ecn_policy = config.ecn
        if ecn_policy is None:
            ecn_policy = self.scheme.default_ecn(config.cc_params)
        cnp_interval = self.scheme.cnp_interval(config.cc_params)
        pfc_config = PfcConfig(enabled=config.pfc_enabled)
        buffer_config = BufferConfig(
            total_bytes=config.buffer_bytes,
            lossy=not config.pfc_enabled,
        )
        rto = config.rto if config.rto is not None else max(100 * self.base_rtt, MS)

        # -- devices ---------------------------------------------------------
        self.devices: dict[int, object] = {}
        self.nics: dict[int, HostNic] = {}
        self.switches: dict[int, Switch] = {}
        for host in topology.hosts:
            rate = topology.host_rate(host)
            nic_config = NicConfig(
                mtu=config.mtu,
                int_enabled=int_enabled,
                transport=config.transport,
                cnp_interval=cnp_interval,
                rto=rto,
                min_rewind_gap=self.base_rtt,
                irn_window=(
                    rate * self.base_rtt if config.transport == "irn" else None
                ),
            )
            env = CcEnv(
                sim=self.sim, line_rate=rate, base_rtt=self.base_rtt,
                mtu=config.mtu, header=header,
            )
            factory = self._make_cc_factory(env)
            nic = HostNic(
                self.sim, host, rate, nic_config, factory,
                self.metrics, pause_tracker=self.metrics.pause_tracker,
            )
            self.devices[host] = nic
            self.nics[host] = nic
        for sw in topology.switches:
            switch = Switch(
                self.sim, sw, buffer_config, pfc_config,
                ecn_policy=ecn_policy, int_enabled=int_enabled,
                pause_tracker=self.metrics.pause_tracker,
                metrics=self.metrics, seed=config.seed * 1009 + sw,
            )
            self.devices[sw] = switch
            self.switches[sw] = switch

        # -- links + routing ---------------------------------------------------
        self.port_map: dict[tuple[int, int], list[int]] = {}
        self.origin_of: dict[tuple[int, int], int] = {}
        next_port: dict[int, int] = {sw: 0 for sw in topology.switches}
        self.links: list[Link] = []
        for spec in topology.links:
            port_a = self._attach_port(spec.a, spec.b, spec.rate, next_port)
            port_b = self._attach_port(spec.b, spec.a, spec.rate, next_port)
            self.links.append(
                Link(
                    self.sim,
                    self.devices[spec.a], port_a,
                    self.devices[spec.b], port_b,
                    spec.delay,
                )
            )
        self._link_specs = list(topology.links)   # parallel to self.links
        self.routing = RoutingState(topology, self.port_map)
        for idx, (spec, link) in enumerate(zip(self._link_specs, self.links)):
            self.routing.register_link(
                idx,
                (spec.a, link.port_a.port_id),
                (spec.b, link.port_b.port_id),
            )
        for sw, table in self.routing.build().items():
            # The switch installs the live dict: reconvergence updates the
            # column in place and forwarding sees it immediately.
            self.switches[sw].install_routes(table)
        self._link_index = {id(link): i for i, link in enumerate(self.links)}

        self._next_flow_id = 0
        #: flow id -> the base RTT :meth:`add_flow` priced it at.
        self._base_rtts: dict[int, float] = {}

    # -- failure injection ---------------------------------------------------

    def _find_link(self, a: int, b: int, up: bool) -> Link:
        for spec, link in zip(self._link_specs, self.links):
            if {spec.a, spec.b} == {a, b} and link.up == up:
                return link
        state = "up" if up else "down"
        raise LookupError(f"no {state} link between {a} and {b}")

    def fail_link(self, a: int, b: int) -> Link:
        """Cut one up link between ``a`` and ``b``; returns it.

        In-flight and subsequently transmitted packets on the cut link are
        lost, counted in ``link.packets_lost_down`` (zeroed here, so it
        holds this outage's casualties); transports recover them, and CC
        algorithms see the new path (HPCC resets its per-hop INT state
        when the hop count changes).  Routing is untouched until
        :meth:`reconverge`, which the dynamics driver calls after the
        timeline's detection delay.
        """
        link = self._find_link(a, b, up=True)
        link.up = False
        link.packets_lost_down = 0
        return link

    def restore_link(self, a: int, b: int) -> Link:
        """Bring a failed link back; returns it (the handle
        :meth:`fail_link` returned).  Routing waits for
        :meth:`reconverge`."""
        link = self._find_link(a, b, up=False)
        link.up = True
        return link

    def reconverge(self, link: Link) -> dict:
        """Align the routing view with ``link``'s current up/down state.

        Scoped: only the destination columns the change can affect are
        recomputed (see :class:`~repro.sim.routing.RoutingState`), and
        flows whose ECMP group changed rehash from their next packet.
        Idempotent when the routing view already matches.  Returns the
        accounting fields: ``reroutes`` (ECMP groups changed) and
        ``dests_recomputed``.
        """
        report = self.routing.set_link_state(
            self._link_index[id(link)], link.up)
        return {"reroutes": report.groups_changed,
                "dests_recomputed": report.dests_recomputed}

    def degrade_link(
        self,
        a: int,
        b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> dict:
        """Scale an up link's rate and/or propagation delay in place.

        Routing is untouched (hop counts do not change), so there are no
        accounting fields to return; subsequent serializations use the
        new rate — INT's per-hop ``bandwidth`` field follows it, so
        HPCC's Eqn (2) sees the degraded capacity on the very next ACK.
        """
        link = self._find_link(a, b, up=True)
        if rate_factor is not None:
            link.port_a.rate *= rate_factor
            link.port_b.rate *= rate_factor
        if delay_factor is not None:
            link.prop_delay *= delay_factor
        return {}

    # -- construction helpers ----------------------------------------------------

    def _attach_port(self, node: int, peer: int, rate: float, next_port: dict):
        if self.topology.is_host(node):
            port = self.nics[node].port
            if port.link is not None:
                raise ValueError(f"host {node} wired twice")
            port.rate = rate
            port_id = 0
        else:
            port_id = next_port[node]
            next_port[node] += 1
            port = self.switches[node].add_port(port_id, rate, peer)
        self.port_map.setdefault((node, peer), []).append(port_id)
        self.origin_of[(node, port_id)] = peer
        return port

    def _make_cc_factory(self, env: CcEnv):
        scheme = self.scheme
        params = self.config.cc_params

        def factory(spec: FlowSpec):
            algo = scheme.make(env, params)
            tap = self.decision_tap
            if tap is not None:
                algo.tap = tap.trace(spec.flow_id, scheme.name)
            return algo

        return factory

    # -- flows -------------------------------------------------------------------

    def make_flow(
        self, src: int, dst: int, size: int,
        start_time: float = 0.0, tag: str = "bg",
    ) -> FlowSpec:
        """Allocate a flow id and build a spec."""
        self._next_flow_id += 1
        return FlowSpec(
            flow_id=self._next_flow_id, src=src, dst=dst,
            size=size, start_time=start_time, tag=tag,
        )

    def add_flow(self, spec: FlowSpec) -> None:
        """Price, register and schedule a flow's start."""
        self._base_rtts[spec.flow_id] = self.flow_base_rtt(spec)
        self.metrics.register_flow(spec)
        self._next_flow_id = max(self._next_flow_id, spec.flow_id)
        self.sim.at(spec.start_time, self.nics[spec.src].start_flow, spec)

    def add_flows(self, specs) -> None:
        for spec in specs:
            self.add_flow(spec)

    def flow_base_rtt(self, spec: FlowSpec) -> float:
        """The flow's uncontended round trip: its own ECMP path over the
        routing view, priced by :func:`~repro.sim.routing.round_trip`
        as the fluid engine prices it (footnote 1 normalizes FCT by the
        flow's own uncontended completion time).  One base RTT while
        the destination is unreachable."""
        routing = self.routing
        try:
            nodes = routing.rows.walk(spec.flow_id, spec.src, spec.dst)
        except NoRoute:
            return self.base_rtt
        hops = []
        for pair in zip(nodes, nodes[1:]):
            link = self.links[routing.first_up(*pair)]
            hops.append((link.prop_delay, link.port_a.rate))
        return round_trip(hops, self.config.mtu + self.header, ACK_SIZE)

    def ideal_fct(self, spec: FlowSpec) -> float:
        """Uncontended FCT of an added flow: transmit at the host line
        rate plus its base RTT, priced when it was added."""
        rate = min(
            self.topology.host_rate(spec.src), self.topology.host_rate(spec.dst)
        )
        wire_factor = (self.config.mtu + self.header) / self.config.mtu
        return (spec.size * wire_factor / rate
                + self._base_rtts[spec.flow_id])

    # -- running -------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def run_until_done(self, deadline: float) -> bool:
        """Run until every registered flow finished or the deadline hits,
        looking every :data:`DONE_CHECK_INTERVAL` of simulated time.

        Returns True when all flows completed.
        """
        while self.sim.now < deadline:
            if self.metrics.flows.n_outstanding == 0:
                break
            step = min(self.sim.now + DONE_CHECK_INTERVAL, deadline)
            self.sim.run(until=step)
        self.metrics.finalize()
        return self.metrics.flows.n_outstanding == 0

    def finalize(self) -> None:
        self.metrics.finalize()

    # -- introspection ----------------------------------------------------------------

    def ports_between(self, a: int, b: int) -> list:
        """Every egress port on device ``a`` facing device ``b``, in port
        order: more than one on a parallel pair."""
        ports = self.port_map.get((a, b))
        if not ports:
            raise LookupError(f"no link {a} -> {b}")
        if self.topology.is_host(a):
            return [self.nics[a].port]
        switch = self.switches[a]
        return [switch.ports[port] for port in ports]

    def port_between(self, a: int, b: int):
        """The first egress port on device ``a`` facing device ``b``."""
        return self.ports_between(a, b)[0]
