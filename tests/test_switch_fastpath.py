"""The one-frame switch hop against the step-by-step hop it replaces.

Every scenario is built twice: once on the production :class:`Switch`,
once with ``repro.network.Switch`` patched to
``tests/switch_reference.py``'s :class:`ReferenceSwitch`, whose
``receive`` sends every packet through ``occupy -> enqueue -> _kick ->
_on_emit -> Link.transmit``.  The two must agree on the whole record
(digest and ``events_processed``) and on every counter the one-frame hop
updates by hand: per-port ``tx_bytes``/``rx_bytes``/``packets_emitted``,
per-link ``packets_lost_down``, per-switch ``buffer.peak_used`` and drop
counters, and the PAUSE/RESUME frame totals.

A scenario only counts if it ran *both* branches of ``Switch.receive``;
the test counts switch-side ``EgressPort.enqueue`` calls against
forwarded ``receive`` calls with wrappers it patches in itself.
"""

from __future__ import annotations

import pytest
from switch_reference import ReferenceSwitch
from test_backend_contract import record_digest

from repro.dynamics import FailLink, RestoreLink, Timeline
from repro.runner import CcChoice, ScenarioSpec, execute_spec
from repro.sim.buffer import BufferConfig
from repro.sim.ecn import EcnMarker
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import PFC_FRAME_SIZE, Packet, PacketType
from repro.sim.pfc import PauseTracker, PfcConfig
from repro.sim.queues import EgressPort
from repro.sim.switch import Switch
from repro.sim.units import KB, US, gbps


class HopProbe:
    """What the patched-in wrappers saw during one run."""

    def __init__(self) -> None:
        self.switches: dict[int, Switch] = {}
        self.forwarded = 0      # receive() calls carrying a routable packet
        self.enqueued = 0       # EgressPort.enqueue calls on switch ports
        self.wred_draws = 0     # should_mark calls between kmin and kmax
        self.bg_marks = 0       # ... asked with a background queue folded in
        self.bg_live = 0        # receive() calls while a BgLinkView was loaded


def observe(patch, switch_cls) -> HopProbe:
    """Build ``Network`` switches from ``switch_cls`` and count its hops."""
    probe = HopProbe()
    inner_receive = switch_cls.receive
    inner_enqueue = EgressPort.enqueue
    inner_mark = EcnMarker.should_mark

    def receive(self, pkt, in_port):
        probe.switches[self.node_id] = self
        if pkt.ptype < PacketType.PAUSE:
            probe.forwarded += 1
        if any(port.bg_view is not None and port.bg_view.residual < 1.0
               for port in self.ports.values()):
            probe.bg_live += 1
        inner_receive(self, pkt, in_port)

    def enqueue(self, pkt):
        if isinstance(self.owner, Switch):
            probe.enqueued += 1
        inner_enqueue(self, pkt)

    def should_mark(self, qlen_bytes):
        if self.config.kmin < qlen_bytes < self.config.kmax:
            probe.wred_draws += 1
        if isinstance(qlen_bytes, float):
            probe.bg_marks += 1
        return inner_mark(self, qlen_bytes)

    patch.setattr(switch_cls, "receive", receive)
    patch.setattr(EgressPort, "enqueue", enqueue)
    patch.setattr(EcnMarker, "should_mark", should_mark)
    patch.setattr("repro.network.Switch", switch_cls)
    return probe


def fingerprint(record, probe: HopProbe) -> dict:
    switches = [probe.switches[node] for node in sorted(probe.switches)]
    tracker = switches[0].pause_tracker
    return {
        "events": record.events_processed,
        "digest": record_digest(record),
        "ports": {
            (sw.node_id, port_id): (port.tx_bytes, port.rx_bytes,
                                    port.packets_emitted,
                                    port.link.packets_lost_down)
            for sw in switches for port_id, port in sorted(sw.ports.items())
        },
        "buffers": {
            sw.node_id: (sw.buffer.peak_used, sw.buffer.drops, sw.drops,
                         sw.no_route_drops, sw.buffer.used)
            for sw in switches
        },
        "pfc_frames": (tracker.pause_frames_sent, tracker.resume_frames_sent),
    }


def run_both(monkeypatch, spec: ScenarioSpec):
    """``(record, production probe)`` after checking both runs agree."""
    prints = {}
    for switch_cls in (Switch, ReferenceSwitch):
        with monkeypatch.context() as patch:
            probe = observe(patch, switch_cls)
            record = execute_spec(spec)
        prints[switch_cls] = (fingerprint(record, probe), probe, record)
    fast, probe, record = prints[Switch]
    slow, slow_probe, _ = prints[ReferenceSwitch]
    assert fast == slow
    drops = sum(sw.drops + sw.no_route_drops
                for sw in slow_probe.switches.values())
    assert slow_probe.enqueued == slow_probe.forwarded - drops, (
        "the oracle must send every admitted packet through enqueue")
    assert probe.forwarded == slow_probe.forwarded
    assert 0 < probe.enqueued < probe.forwarded - drops, (
        f"scenario must run both branches of Switch.receive: "
        f"{probe.enqueued} queued hops of {probe.forwarded}")
    return record, probe


def incast_flows(n: int, dst: int, size: int) -> list:
    return [[src, dst, size, 1_000.0 + 3.0 * src, "incast"]
            for src in range(n)]


STAR_HPCC = ScenarioSpec(
    program="flows", topology="star",
    topology_params={"n_hosts": 6, "host_rate": "100Gbps"},
    workload={"flows": incast_flows(5, 5, 200_000) + [[5, 0, 50_000, 2_000.0, "rev"]],
              "deadline": 5e6},
    measure={"sample_interval": 10 * US},
    config={"base_rtt": 9 * US},
    cc=CcChoice("hpcc"), seed=3,
)

#: k=4 fat-tree (16 hosts), DCQCN marking from 2KB up and 150KB switches:
#: queues sit between kmin and kmax (WRED draws) and PFC fires.
FATTREE_DCQCN = ScenarioSpec(
    program="load", topology="fattree",
    topology_params={"n_pods": 4, "tors_per_pod": 2, "aggs_per_pod": 2,
                     "n_core": 4, "hosts_per_tor": 2,
                     "host_rate": "25Gbps", "fabric_rate": "25Gbps"},
    workload={"cdf": "fbhadoop", "size_scale": 0.2, "load": 0.5,
              "n_flows": 120,
              "incast": {"fan_in": 8, "flow_size": 60_000, "load": 0.05}},
    measure={"sample_interval": 20 * US},
    config={"base_rtt": 13 * US, "buffer_bytes": 150_000},
    cc=CcChoice("dcqcn", params={"kmin": 2 * KB, "kmax": 200 * KB}), seed=5,
)

LOSSY_DCQCN = ScenarioSpec(
    program="flows", topology="star",
    topology_params={"n_hosts": 7, "host_rate": "100Gbps"},
    workload={"flows": incast_flows(6, 6, 120_000), "deadline": 200e6},
    config={"base_rtt": 9 * US, "pfc_enabled": False,
            "buffer_bytes": 60_000, "rto": 300 * US},
    cc=CcChoice("dcqcn"), seed=3,
)

HYBRID_MIXED = ScenarioSpec(
    program="load", topology="star", backend="hybrid",
    topology_params={"n_hosts": 6, "host_rate": "10Gbps"},
    workload={"cdf": "fbhadoop", "size_scale": 0.1, "load": 0.5,
              "n_flows": 60, "foreground": {"kind": "frac", "x": 0.5},
              "incast": {"fan_in": 3, "flow_size": 20_000, "load": 0.05}},
    measure={"sample_interval": 10 * US},
    config={"base_rtt": 9 * US},
    seed=2,
)

FAIL_RESTORE = ScenarioSpec(
    program="flows", topology="dual_trunk",
    topology_params={"n_pairs": 2},
    workload={"flows": [[0, 2, 400_000, 0.0, "a"], [1, 3, 400_000, 5_000.0, "b"],
                        [2, 0, 100_000, 9_000.0, "c"]],
              "deadline": 2e6},
    dynamics=Timeline(
        [FailLink(at=60 * US, a=4, b=5), RestoreLink(at=160 * US, a=4, b=5)],
        detection_delay=10 * US,
    ),
    measure={"sample_interval": 10 * US},
    config={"base_rtt": 9 * US, "rto": 500 * US},
    cc=CcChoice("hpcc"),
)


class TestSameRecordsAsTheStepByStepHop:
    def test_star_incast_hpcc_lossless(self, monkeypatch):
        record, _ = run_both(monkeypatch, STAR_HPCC)
        assert record.completed and record.extras["drops"] == 0

    def test_fattree_dcqcn_wred_and_pfc(self, monkeypatch):
        record, probe = run_both(monkeypatch, FATTREE_DCQCN)
        assert len(probe.switches) > 4, "multi-switch, or it pins no ECMP"
        assert probe.wred_draws > 0, "no queue between kmin and kmax"
        assert record.extras["pause_count"] > 0, "PFC never fired"

    def test_lossy_dcqcn_incast_drops(self, monkeypatch):
        record, _ = run_both(monkeypatch, LOSSY_DCQCN)
        assert record.extras["drops"] > 0

    @pytest.mark.parametrize("cc_name", ["hpcc", "dcqcn"])
    def test_hybrid_mixed_cell(self, monkeypatch, cc_name):
        spec = HYBRID_MIXED.replaced(cc=CcChoice(cc_name))
        record, probe = run_both(monkeypatch, spec)
        assert record.extras["hybrid_mode"] == "mixed"
        switch = next(iter(probe.switches.values()))
        assert all(port.bg_view is not None
                   for port in switch.ports.values())
        assert probe.bg_live > 0, "no hop saw a background share"
        if cc_name == "dcqcn":
            assert probe.bg_marks > 0, "no mark asked over a background queue"

    def test_fail_restore_timeline(self, monkeypatch):
        record, probe = run_both(monkeypatch, FAIL_RESTORE)
        lost = sum(port.link.packets_lost_down
                   for sw in probe.switches.values()
                   for port in sw.ports.values())
        assert lost > 0, "nothing met the downed link"
        assert len(record.extras["link_events"]) > 0


# -- unit cases on a hand-wired switch ----------------------------------------------

RATE = gbps(100)
PROP = 1_000.0


class Sink:
    """A stub peer device that records what arrives and when."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.arrivals: list[tuple[float, PacketType]] = []

    def receive(self, pkt: Packet, in_port: int) -> None:
        self.arrivals.append((self.sim.now, pkt.ptype))


def wired_switch(switch_cls, n_ports: int, buffer_config: BufferConfig,
                 pfc_config: PfcConfig):
    """A switch whose port ``p`` leads to host ``p``, a :class:`Sink`."""
    sim = Simulator()
    switch = switch_cls(sim, 9, buffer_config, pfc_config, int_enabled=False,
                        pause_tracker=PauseTracker())
    sinks = []
    for port_id in range(n_ports):
        sink = Sink(sim)
        port = switch.add_port(port_id, RATE, peer=port_id)
        Link(sim, switch, port, sink, EgressPort(sim, sink, 0, RATE), PROP)
        sinks.append(sink)
    switch.install_routes({p: ((p, (p,)),) for p in range(n_ports)})
    return sim, switch, sinks


def data_packet(dst: int) -> Packet:
    return Packet(PacketType.DATA, 1, 7, dst, payload=952)     # 1000B on the wire


def receive_counting_enqueues(patch, switch, pkt, in_port) -> int:
    """Deliver ``pkt``; how many ``EgressPort.enqueue`` calls that made."""
    calls = []
    inner_enqueue = EgressPort.enqueue
    patch.setattr(
        EgressPort, "enqueue",
        lambda self, pkt: (calls.append(self), inner_enqueue(self, pkt)))
    switch.receive(pkt, in_port)
    return len(calls)


def hairpin(switch_cls, patch):
    """A PAUSE that leaves by the port the packet is about to occupy.

    Port 1 is paused from downstream.  One packet from ingress 0 parks
    behind it, then ingress 1 fills the pool: the dynamic XOFF threshold
    falls below ingress 0's 1000 bytes, but nobody re-checks ingress 0
    until its next packet — which hairpins out of idle port 0.
    """
    sim, switch, sinks = wired_switch(
        switch_cls, 2, BufferConfig(total_bytes=20_000), PfcConfig())
    switch.ports[1].set_paused(True)
    switch.receive(data_packet(dst=1), in_port=0)
    for _ in range(12):
        switch.receive(data_packet(dst=1), in_port=1)
    sim.run(until=5_000.0)
    assert not switch.pfc.is_pausing(0) and switch.pfc.is_pausing(1)
    assert switch.ports[0].idle
    enqueued = receive_counting_enqueues(
        patch, switch, data_packet(dst=0), in_port=0)
    unfused = switch.ports[0]._done_event is not None
    sim.run()
    return sim, switch, sinks[0], enqueued, unfused


#: A refusal of a packet bound for an idle port: buffer config and the
#: paused ports one 1000-byte packet each is parked on first.
REFUSALS = {
    # alpha = 0.5 and a 3000-byte pool: two parked packets leave 1000
    # bytes free, so the egress dynamic threshold (500) refuses what the
    # pool itself (3000 <= 3000) would still take.
    "lossy_egress_threshold": (
        BufferConfig(total_bytes=3_000, lossy=True, dynamic_alpha=0.5),
        (1, 2)),
    "pool_overflow": (BufferConfig(total_bytes=3_000), (1, 1, 1)),
}


def squeezed_out(switch_cls, patch, buffer_config, parked):
    sim, switch, sinks = wired_switch(
        switch_cls, 3, buffer_config, PfcConfig(enabled=False))
    for port_id in parked:
        switch.ports[port_id].set_paused(True)
        switch.receive(data_packet(dst=port_id), in_port=port_id)
    assert switch.drops == 0 and switch.buffer.used == 1_000 * len(parked)
    enqueued = receive_counting_enqueues(
        patch, switch, data_packet(dst=0), in_port=0)
    sim.run()
    return sim, switch, sinks[0], enqueued


def port_state(switch, port_id: int = 0) -> tuple:
    port = switch.ports[port_id]
    tracker = switch.pause_tracker
    return (port.tx_bytes, port.rx_bytes, port.packets_emitted,
            switch.buffer.used, switch.buffer.peak_used, switch.buffer.drops,
            switch.drops, tracker.pause_frames_sent,
            tracker.resume_frames_sent)


class TestHairpinPause:
    def test_pause_leaves_after_the_packet_and_unfuses_its_completion(
            self, monkeypatch):
        sim, switch, sink, enqueued, unfused = hairpin(Switch, monkeypatch)
        assert enqueued == 0, "the hairpin packet must take the one-frame hop"
        assert switch.pfc.is_pausing(0)
        assert switch.pause_tracker.pause_frames_sent == 2
        assert unfused, ("the PAUSE found the port busy, so the fused "
                         "completion must have become a real event")
        ser = 1000 / RATE
        assert sink.arrivals == [
            ((5_000.0 + ser) + PROP, PacketType.DATA),
            ((5_000.0 + ser) + PFC_FRAME_SIZE / RATE + PROP, PacketType.PAUSE),
        ]
        port = switch.ports[0]
        assert (port.tx_bytes, port.rx_bytes, port.packets_emitted) == (
            1000 + PFC_FRAME_SIZE, 1000, 2)

    def test_same_as_the_step_by_step_hop(self, monkeypatch):
        outcomes = []
        for switch_cls in (Switch, ReferenceSwitch):
            with monkeypatch.context() as patch:
                sim, switch, sink, enqueued, unfused = hairpin(
                    switch_cls, patch)
            assert enqueued == (switch_cls is ReferenceSwitch)
            outcomes.append((sink.arrivals, sim.events_processed, sim.now,
                             unfused, port_state(switch)))
        assert outcomes[0] == outcomes[1]


class TestRefusalAtAnIdlePort:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_same_drop_accounting(self, monkeypatch, case):
        outcomes = []
        for switch_cls in (Switch, ReferenceSwitch):
            with monkeypatch.context() as patch:
                sim, switch, sink, enqueued = squeezed_out(
                    switch_cls, patch, *REFUSALS[case])
            assert enqueued == 0, "a refused packet is never enqueued"
            assert sink.arrivals == []
            assert (switch.drops, switch.buffer.drops) == (1, 1)
            outcomes.append((sim.events_processed, port_state(switch)))
        assert outcomes[0] == outcomes[1]
