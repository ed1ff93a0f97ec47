"""The host NIC: flows, pacing, windows, ACK generation.

Models the paper's FPGA NIC (Section 4.2): a flow scheduler that serves
active flows round-robin, paces each flow at its CC-assigned rate, enforces
the CC-assigned sending window, and runs the RoCEv2 receiver (per-packet
ACK/NACK, DCQCN CNP generation, go-back-N or IRN recovery).

Scheduling works on transmit opportunities: whenever the egress port goes
idle the NIC picks the next flow that (a) has data or retransmissions
pending, (b) has window room, and (c) has accumulated pacing credit.  If
every flow is pacing-blocked, a wakeup is scheduled for the earliest
eligible instant; window-blocked flows are retried when an ACK arrives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.base import CcAlgorithm
from .engine import Simulator, Timer
from .flow import FlowSpec
from .packet import (
    Packet,
    PacketType,
    make_ack,
    make_cnp,
    make_data_packet,
    recycle_hops,
    recycle_packet,
)
from .queues import EgressPort
from .transport import make_receiver, make_sender


#: GBN post-rewind retransmission-burst cap, bytes (see ``GbnSender``;
#: inert on lossless fabrics, which never rewind).
GBN_RECOVERY_CAP = 16_000


@dataclass
class NicConfig:
    """Host NIC behaviour knobs (shared across all hosts of a network)."""

    mtu: int = 1000                     # payload bytes per data packet
    int_enabled: bool = False
    transport: str = "gbn"              # 'gbn' or 'irn'
    cnp_interval: float | None = None   # DCQCN NP min CNP gap, ns
    rto: float = 1_000_000.0            # retransmission timeout, ns
    min_rewind_gap: float = 10_000.0    # GBN rewind suppression window, ns
    irn_window: float | None = None     # IRN's fixed BDP window cap, bytes
    rate_floor: float = 1e-5            # pacing floor, bytes/ns


class SenderFlow:
    """Sender-side runtime state of one flow."""

    __slots__ = (
        "spec", "cc", "window", "rate", "next_pace", "sender",
        "done", "fct_recorded", "rto_timer", "cc_state", "first_sent",
    )

    def __init__(self, spec: FlowSpec, cc: CcAlgorithm, sender) -> None:
        self.spec = spec
        self.cc = cc
        self.window: float | None = None
        self.rate: float = 0.0
        self.next_pace: float = 0.0
        self.sender = sender
        self.done = False
        self.fct_recorded = False
        self.rto_timer: Timer | None = None
        self.cc_state = None      # algorithm-private per-flow state
        self.first_sent: float | None = None

    @property
    def inflight(self) -> int:
        return self.sender.inflight

    @property
    def snd_nxt(self) -> int:
        return self.sender.snd_nxt

    @property
    def snd_una(self) -> int:
        return self.sender.snd_una

    def window_allows(self, payload: int) -> bool:
        if self.window is None:
            return True
        if self.inflight == 0:
            return True      # never deadlock: one packet may always probe
        return self.inflight + payload <= self.window + 1e-9


class ReceiverFlow:
    """Receiver-side runtime state of one flow."""

    __slots__ = ("state", "last_cnp", "bytes_received")

    def __init__(self, state) -> None:
        self.state = state
        self.last_cnp = -float("inf")
        self.bytes_received = 0


class HostNic:
    """A host with one NIC port."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        rate: float,
        config: NicConfig,
        cc_factory,
        metrics,
        pause_tracker=None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.cc_factory = cc_factory
        self.metrics = metrics
        self.pause_tracker = pause_tracker
        self.port = EgressPort(sim, self, 0, rate, on_idle=self._on_port_idle)
        self.flows: dict[int, SenderFlow] = {}
        self.recv_flows: dict[int, ReceiverFlow] = {}
        self._active: deque[SenderFlow] = deque()
        self._wake: list | None = None      # scheduled pacing wakeup entry

    # -- flow lifecycle -----------------------------------------------------------

    def start_flow(self, spec: FlowSpec) -> SenderFlow:
        """Begin sending a flow now (callers schedule this at spec.start_time)."""
        if spec.flow_id in self.flows:
            raise ValueError(f"flow {spec.flow_id} already started")
        cc = self.cc_factory(spec)
        sender = make_sender(
            self.config.transport, spec.size,
            min_rewind_gap=self.config.min_rewind_gap,
            recovery_cap=GBN_RECOVERY_CAP,
        )
        flow = SenderFlow(spec, cc, sender)
        cc.install(flow)
        if cc.tap is not None:
            # Anchor the decision trace at the line-rate start state.
            cc.tap.record(self.sim.now, "install", None, flow.rate,
                          flow.window, flow.rate, flow.window, {})
        if self.config.irn_window is not None:
            cap = self.config.irn_window
            flow.window = cap if flow.window is None else min(flow.window, cap)
        flow.next_pace = self.sim.now
        flow.rto_timer = Timer(self.sim, self._on_rto, flow)
        self.flows[spec.flow_id] = flow
        self._active.append(flow)
        flow.rto_timer.arm(self.config.rto)
        self._maybe_pump()
        return flow

    def _complete_flow(self, flow: SenderFlow) -> None:
        flow.done = True
        if flow.rto_timer is not None:
            flow.rto_timer.cancel()
        flow.cc.on_flow_done(flow, self.sim.now)
        if not flow.fct_recorded:
            flow.fct_recorded = True
            self.metrics.record_fct(flow.spec, flow.spec.start_time, self.sim.now)
        try:
            self._active.remove(flow)
        except ValueError:
            pass

    # -- transmit path -----------------------------------------------------------

    def _on_port_idle(self, port: EgressPort) -> None:
        self._pump()

    def _maybe_pump(self) -> None:
        if self.port.idle and not self.port.paused:
            self._pump()

    def _pump(self) -> None:
        sim = self.sim
        wake = self._wake
        if wake is not None:
            sim.cancel(wake)
            self._wake = None
        port = self.port
        if not port.idle or port.paused:
            return
        now = sim.now
        active = self._active
        mtu = self.config.mtu
        earliest: float | None = None
        for _ in range(len(active)):
            flow = active[0]
            active.rotate(-1)
            if flow.done:
                continue
            nxt = flow.sender.peek_next(mtu)
            if nxt is None:
                continue
            seq, payload = nxt
            if not flow.window_allows(payload):
                continue
            if flow.next_pace > now:
                if earliest is None or flow.next_pace < earliest:
                    earliest = flow.next_pace
                continue
            self._send_data(flow, seq, payload, now)
            return
        if earliest is not None:
            self._wake = sim.at(earliest, self._pump)

    def _send_data(self, flow: SenderFlow, seq: int, payload: int, now: float) -> None:
        pkt = make_data_packet(
            flow.spec.flow_id, self.node_id, flow.spec.dst,
            seq, payload, self.config.int_enabled, now,
        )
        flow.sender.mark_sent(seq, payload)
        if flow.first_sent is None:
            flow.first_sent = now
        flow.cc.on_packet_sent(flow, pkt, now)
        rate = max(flow.rate, self.config.rate_floor)
        flow.next_pace = max(now, flow.next_pace) + pkt.wire_size / rate
        self.port.enqueue(pkt)
        self._arm_rto(flow)

    # -- receive path -------------------------------------------------------------

    def receive(self, pkt: Packet, in_port: int) -> None:
        ptype = pkt.ptype
        if ptype is PacketType.DATA:
            self._on_data(pkt)
        elif ptype is PacketType.ACK or ptype is PacketType.NACK:
            self._on_ack(pkt)
        elif ptype is PacketType.CNP:
            flow = self.flows.get(pkt.flow_id)
            recycle_packet(pkt)
            if flow is not None and not flow.done:
                flow.cc.on_cnp(flow, self.sim.now)
                self._maybe_pump()
        elif ptype is PacketType.PAUSE or ptype is PacketType.RESUME:
            self._on_pfc(pkt)
            recycle_packet(pkt)

    def _on_data(self, pkt: Packet) -> None:
        rf = self.recv_flows.get(pkt.flow_id)
        if rf is None:
            rf = ReceiverFlow(make_receiver(self.config.transport))
            self.recv_flows[pkt.flow_id] = rf
        is_nack, ack_seq = rf.state.on_data(pkt.seq, pkt.payload)
        rf.bytes_received += pkt.payload
        self.metrics.record_delivered(pkt.payload)
        ack = make_ack(pkt, ack_seq, self.sim.now, nack=is_nack)
        if is_nack and hasattr(rf.state, "first_hole_end"):
            # IRN: the NACK names the missing range's end so the sender
            # retransmits exactly the hole, not everything it sent since.
            hole_end = rf.state.first_hole_end()
            if hole_end is not None:
                ack.seq = hole_end
        self.port.enqueue(ack)
        interval = self.config.cnp_interval
        if interval is not None and pkt.ecn:
            now = self.sim.now
            if now - rf.last_cnp >= interval:
                rf.last_cnp = now
                self.port.enqueue(make_cnp(pkt.flow_id, self.node_id, pkt.src))
        # The data packet is fully consumed (its INT stack moved onto the
        # ACK in make_ack): return it to the freelist.
        recycle_packet(pkt)

    def _on_ack(self, pkt: Packet) -> None:
        flow = self.flows.get(pkt.flow_id)
        if flow is None or flow.done:
            recycle_hops(pkt)
            recycle_packet(pkt)
            return
        now = self.sim.now
        newly = flow.sender.on_ack(pkt.ack_seq)
        if newly:
            self.metrics.record_ack_bytes(pkt.flow_id, now, newly)
        if pkt.ptype is PacketType.NACK:
            flow.sender.on_nack(pkt.ack_seq, pkt.seq, now)
            flow.cc.on_nack(flow, pkt, now)
        else:
            flow.cc.on_ack(flow, pkt, now)
        if flow.sender.complete:
            self._complete_flow(flow)
        else:
            if newly:
                self._arm_rto(flow)
        # CC algorithms copy any INT state they keep (see core/hpcc.py), so
        # the ACK and its hop records are dead here: recycle both.
        recycle_hops(pkt)
        recycle_packet(pkt)
        self._maybe_pump()

    def _on_pfc(self, pkt: Packet) -> None:
        pause = pkt.ptype is PacketType.PAUSE
        was = self.port.paused
        self.port.set_paused(pause)
        if self.pause_tracker is not None and pause != was:
            if pause:
                self.pause_tracker.on_paused(self.node_id, 0, self.sim.now)
            else:
                self.pause_tracker.on_resumed(self.node_id, 0, self.sim.now)

    # -- timers --------------------------------------------------------------------

    def _arm_rto(self, flow: SenderFlow) -> None:
        # Re-arming a Timer that is already pending is O(1) (lazy deferral):
        # the per-ACK cancel-and-reschedule pattern no longer floods the
        # calendar queue with tombstones.
        flow.rto_timer.arm(self.config.rto)

    def _on_rto(self, flow: SenderFlow) -> None:
        if flow.done:
            return
        if not flow.sender.complete:
            flow.sender.on_timeout(self.sim.now)
            flow.cc.on_timeout(flow, self.sim.now)
        flow.rto_timer.arm(self.config.rto)
        self._maybe_pump()
