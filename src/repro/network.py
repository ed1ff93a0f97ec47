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
from .metrics.queuestats import QueueSampler
from .topology.base import Topology
from .sim.buffer import BufferConfig
from .sim.ecn import EcnPolicy
from .sim.engine import Simulator
from .sim.flow import FlowSpec
from .sim.link import Link
from .sim.nic import HostNic, NicConfig
from .sim.packet import BASE_HEADER, INT_OVERHEAD
from .sim.pfc import PfcConfig
from .sim.routing import RerouteReport, RoutingState
from .sim.switch import Switch
from .sim.units import MB, MS


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
    buffer_lossy_alpha: float = 1.0     # footnote 6: alpha=1 in lossy modes
    pfc: PfcConfig | None = None
    ecn: EcnPolicy | None = None
    base_rtt: float | None = None
    rto: float | None = None
    #: GBN post-rewind retransmission-burst cap in bytes (None disables;
    #: inert on lossless fabrics, which never rewind).  Bounds the
    #: full-window retransmission storms that collapse goodput under
    #: buffers too shallow for ECN marking to bite.
    gbn_recovery_cap: int | None = 16_000
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
        pfc_config = config.pfc or PfcConfig(enabled=config.pfc_enabled)
        if pfc_config.enabled != config.pfc_enabled:
            pfc_config = PfcConfig(
                enabled=config.pfc_enabled,
                dynamic_alpha=pfc_config.dynamic_alpha,
                xon_fraction=pfc_config.xon_fraction,
            )
        buffer_config = BufferConfig(
            total_bytes=config.buffer_bytes,
            lossy=not config.pfc_enabled,
            dynamic_alpha=config.buffer_lossy_alpha,
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
                gbn_recovery_cap=config.gbn_recovery_cap,
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
        self._pair_rtt: dict[tuple[int, int], float] = {}

    # -- failure injection ---------------------------------------------------

    def _find_link(self, a: int, b: int, up: bool) -> Link:
        for spec, link in zip(self._link_specs, self.links):
            if {spec.a, spec.b} == {a, b} and link.up == up:
                return link
        state = "up" if up else "down"
        raise LookupError(f"no {state} link between {a} and {b}")

    def fail_link(self, a: int, b: int, reroute: bool = True) -> Link:
        """Cut one link between ``a`` and ``b``.

        In-flight and subsequently transmitted packets on the cut link are
        lost (counted in ``link.packets_lost_down``); transports recover
        them, and CC algorithms see the new path (HPCC resets its per-hop
        INT state when the hop count changes).  With ``reroute=True`` (the
        default) routing reconverges at the same instant; the dynamics
        driver passes ``False`` and calls :meth:`reconverge` after its
        configured detection delay, modelling a routing protocol that
        notices the failure late.
        """
        link = self._find_link(a, b, up=True)
        link.up = False
        if reroute:
            self.reconverge(link)
        return link

    def restore_link(self, a: int, b: int, reroute: bool = True) -> Link:
        """Bring a failed link back (and, by default, reconverge routing)."""
        link = self._find_link(a, b, up=False)
        link.up = True
        if reroute:
            self.reconverge(link)
        return link

    def reconverge(self, link: Link) -> RerouteReport:
        """Align the routing view with ``link``'s current up/down state.

        Scoped: only the destination columns the change can affect are
        recomputed (see :class:`~repro.sim.routing.RoutingState`), and
        flows whose ECMP group changed rehash from their next packet.
        Idempotent when the routing view already matches.
        """
        return self.routing.set_link_state(self._link_index[id(link)], link.up)

    def degrade_link(
        self,
        a: int,
        b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> Link:
        """Scale an up link's rate and/or propagation delay in place.

        Routing is untouched (hop counts do not change); subsequent
        serializations use the new rate — INT's per-hop ``bandwidth``
        field follows it, so HPCC's Eqn (2) sees the degraded capacity on
        the very next ACK.
        """
        link = self._find_link(a, b, up=True)
        if rate_factor is not None:
            link.port_a.rate *= rate_factor
            link.port_b.rate *= rate_factor
        if delay_factor is not None:
            link.prop_delay *= delay_factor
        return link

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
        """Register a flow and schedule its start."""
        self.metrics.register_flow(spec)
        self._next_flow_id = max(self._next_flow_id, spec.flow_id)
        self.sim.at(spec.start_time, self.nics[spec.src].start_flow, spec)

    def add_flows(self, specs) -> None:
        for spec in specs:
            self.add_flow(spec)

    def pair_base_rtt(self, src: int, dst: int) -> float:
        """Base RTT of one host pair: full-MTU store-and-forward out, an
        ACK-sized frame back (footnote 1 normalizes FCT by the flow's own
        uncontended completion time, which depends on the pair)."""
        key = (src, dst)
        cached = self._pair_rtt.get(key)
        if cached is not None:
            return cached
        from .sim.packet import ACK_SIZE
        from .sim.routing import shortest_path_delays
        forward = shortest_path_delays(
            self.topology, src, self.config.mtu + self.header
        )
        backward = shortest_path_delays(self.topology, dst, ACK_SIZE)
        rtt = forward[dst] + backward[src]
        self._pair_rtt[key] = rtt
        return rtt

    def ideal_fct(self, spec: FlowSpec) -> float:
        """Uncontended FCT: transmit at the host line rate + one base RTT."""
        rate = min(
            self.topology.host_rate(spec.src), self.topology.host_rate(spec.dst)
        )
        wire_factor = (self.config.mtu + self.header) / self.config.mtu
        return (spec.size * wire_factor / rate
                + self.pair_base_rtt(spec.src, spec.dst))

    # -- running -------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def run_until_done(
        self, deadline: float, check_interval: float = 100_000.0
    ) -> bool:
        """Run until every registered flow finished or the deadline hits.

        Returns True when all flows completed.
        """
        while self.sim.now < deadline:
            if self.metrics.flows.n_outstanding == 0:
                break
            step = min(self.sim.now + check_interval, deadline)
            self.sim.run(until=step)
        self.metrics.finalize()
        return self.metrics.flows.n_outstanding == 0

    def finalize(self) -> None:
        self.metrics.finalize()

    # -- introspection ----------------------------------------------------------------

    def port_between(self, a: int, b: int):
        """The egress port on device ``a`` facing device ``b``."""
        ports = self.port_map.get((a, b))
        if not ports:
            raise LookupError(f"no link {a} -> {b}")
        if self.topology.is_host(a):
            return self.nics[a].port
        return self.switches[a].ports[ports[0]]

    def switch_port_labels(self) -> dict[str, object]:
        """Label -> egress port for every switch port (for samplers)."""
        labels = {}
        for sw_id, switch in self.switches.items():
            for port_id, port in switch.ports.items():
                peer = switch.port_peer[port_id]
                labels[f"sw{sw_id}->{peer}"] = port
        return labels

    def sample_queues(
        self, interval: float, labels: dict[str, object] | None = None
    ) -> QueueSampler:
        """Attach a queue sampler to (by default) every switch egress port."""
        ports = labels if labels is not None else self.switch_port_labels()
        return QueueSampler(self.sim, ports, interval)
