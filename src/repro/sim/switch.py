"""The switch model.

Brings together the substrate pieces: shared-buffer admission
(``repro.sim.buffer``), WRED ECN marking (``repro.sim.ecn``), PFC
(``repro.sim.pfc``), ECMP forwarding (``repro.sim.routing``) and INT
stamping at packet emission (Figure 7 semantics: the telemetry a packet
carries is the egress-port state at the moment it is dequeued, so the qlen
it reports is the queue it left *behind* — exactly the Figure 5 scenario).

One-frame hop
-------------
A forwarded packet is admitted (``SharedBuffer.occupy``), marked,
enqueued (``EgressPort.enqueue``), dequeued (``_kick``), INT-stamped and
released (``_on_emit``, which re-checks PFC) and sent
(``Link.transmit``).  When the egress port can start serializing *now*,
all of that happens inside the one ``receive`` call and most of it
cancels: ``occupy``/``release`` net to zero, the queue is appended to and
popped at once.  ``Switch.receive`` therefore does such a hop in its own
frame.

*Selection predicate* — read per packet from state the port and link
already hold, nothing configures it: no completion event pending, ``now
>= _busy_until``, not paused, data and control queues empty, link wired
and ``up``.  Any other packet (busy, paused, backlogged or downed port)
takes the step-by-step path above, untouched; it is the same queueing
model, and ``Link.transmit`` stays the only place a downed link discards
a packet.

*What the frame keeps* — the ``SharedBuffer.admits`` test with both drop
counters and ``peak_used``; ``rx_bytes``/``tx_bytes``/``packets_emitted``;
``_busy_until`` and the fused-completion credit (``sim/queues.py``); the
WRED decision and the INT stamp, with the hybrid background view
(``EgressPort.bg_view``) read once for them and the serialization; the
PFC check; the arrival event.

*Ordering rules* — statement order in the frame is ABI, pinned by the
determinism goldens and by ``tests/switch_reference.py`` (the
step-by-step hop kept as the oracle):

1. busy-until and credit **before** the PFC check: a PAUSE sent hairpin
   out of this very port must find it busy and un-fuse the completion,
   exactly as ``EgressPort._kick`` arranges for its ``on_emit`` hook;
2. the PFC check **before** the arrival ``sim.at``: a PAUSE/RESUME
   frame's events keep the earlier ``seq`` they have on the step-by-step
   path;
3. one PFC check where that path makes two, because the second is
   provably a no-op there (see the comment in ``receive``).
"""

from __future__ import annotations

from .buffer import BufferConfig, SharedBuffer
from .ecn import EcnMarker, EcnPolicy
from .engine import Simulator
from .packet import (
    Packet,
    PacketType,
    make_pause,
    new_hop,
    recycle_hops,
    recycle_packet,
)
from .pfc import PauseTracker, PfcConfig, PfcController
from .queues import EgressPort
from .routing import EcmpGroup, cached_ecmp_hash, ecmp_next_hop


class Switch:
    """A shared-buffer output-queued switch."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        buffer_config: BufferConfig,
        pfc_config: PfcConfig,
        ecn_policy: EcnPolicy | None = None,
        int_enabled: bool = True,
        pause_tracker: PauseTracker | None = None,
        metrics=None,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.buffer = SharedBuffer(buffer_config)
        self.pfc = PfcController(self, pfc_config, pause_tracker)
        self.int_enabled = int_enabled
        self.pause_tracker = pause_tracker
        self.metrics = metrics
        self.ports: dict[int, EgressPort] = {}
        self.port_peer: dict[int, int] = {}
        self._peer_port: dict[int, int] = {}  # peer -> first port, built at wiring
        # dst host -> ECMP group, (peer, ports) pairs (sim/routing.py)
        self.routing_table: dict[int, EcmpGroup] = {}
        self._ecn_policy = ecn_policy
        self._markers: dict[int, EcnMarker] = {}
        self._seed = seed
        self.drops = 0
        self.no_route_drops = 0

    # -- wiring (called by Network) -------------------------------------------

    def add_port(self, port_id: int, rate: float, peer: int) -> EgressPort:
        port = EgressPort(
            self.sim, self, port_id, rate, on_emit=self._on_emit
        )
        self.ports[port_id] = port
        self.port_peer[port_id] = peer
        self._peer_port.setdefault(peer, port_id)
        if self._ecn_policy is not None:
            self._markers[port_id] = EcnMarker(
                self._ecn_policy.for_rate(rate),
                seed=self._seed * 131 + port_id,
            )
        return port

    def install_routes(self, table: dict[int, EcmpGroup]) -> None:
        self.routing_table = table

    # -- data path -------------------------------------------------------------

    def receive(self, pkt: Packet, in_port: int) -> None:
        """Consume a PFC frame, or forward ``pkt`` — in this one frame when
        its egress port is free (module docstring, "One-frame hop")."""
        ptype = pkt.ptype
        if ptype is PacketType.PAUSE or ptype is PacketType.RESUME:
            self._handle_pfc_frame(pkt, in_port)
            recycle_packet(pkt)
            return
        group = self.routing_table.get(pkt.dst)
        if not group:
            # No route: either a mis-wired topology or a destination cut
            # off by failure injection.  Real switches blackhole this.
            self.no_route_drops += 1
            self._drop(pkt)
            return
        # The next-hop peer by the ECMP rule, then a parallel link to it
        # by the flow direction alone.
        ports = ecmp_next_hop(group, pkt.flow_id, pkt.src, pkt.dst,
                              self.node_id)[1]
        out_id = ports[0] if len(ports) == 1 else ports[
            cached_ecmp_hash(pkt.flow_id, pkt.src, pkt.dst) % len(ports)]
        size = pkt.wire_size
        prio = pkt.priority
        out = self.ports[out_id]
        sim = self.sim
        now = sim.now
        link = out.link
        if (
            out._done_event is None
            and now >= out._busy_until
            and not out.paused
            and not out._queue
            and not out._control
            and link is not None
            and link.up
        ):
            # One-frame hop (module docstring): the port can serialize
            # this packet now, so admit, emit and release it right here.
            # What follows is occupy -> enqueue -> _kick -> _on_emit ->
            # Link.transmit minus the steps that cancel; the ORDER of
            # what remains is ABI (the determinism goldens pin it).
            buffer = self.buffer
            used = buffer.used + size
            if used > buffer._total or (
                buffer._lossy
                and buffer._egress[out_id] + size
                > buffer._alpha * buffer.free_bytes
            ):
                # SharedBuffer.admits said no: occupy() counts the drop
                # on the buffer, receive() on the switch.
                buffer.drops += 1
                self.drops += 1
                self._drop(pkt)
                return
            # occupy() + release() leave used/_ingress/_egress as they
            # were; only the high-water mark remembers the packet.
            if used > buffer.peak_used:
                buffer.peak_used = used
            out.rx_bytes += size
            out.tx_bytes += size
            out.packets_emitted += 1
            ser = size / out.rate
            if (view := out.bg_view) is not None:
                ser /= view.residual
            # Rule 1: busy-until and the fused-completion credit before
            # the PFC check.  A PAUSE that leaves by this very port (the
            # hairpin case) must find it busy and un-fuse the completion,
            # refunding the credit, exactly as in EgressPort._kick.
            out._busy_until = done = now + ser
            sim.events_processed += 1
            if ptype is PacketType.DATA:
                qlen = out.qlen_bytes       # 0: the queue is empty
                if view is not None:
                    qlen += view.qlen
                # WRED never marks an empty queue (kmin >= 0) and draws
                # no random number deciding so: skipping the call at
                # qlen 0 leaves the port's RNG stream as it was.
                if (
                    qlen
                    and not pkt.ecn
                    and (marker := self._markers.get(out_id)) is not None
                    and marker.should_mark(qlen)
                ):
                    pkt.ecn = True
                hops = pkt.int_hops
                if hops is not None and self.int_enabled:
                    tx = out.tx_bytes
                    rx = out.rx_bytes
                    if view is not None:
                        # Same fold as _on_emit.
                        bg_bytes = view.tx0 + view.rate * (now - view.t0)
                        tx += bg_bytes
                        rx += bg_bytes
                    hops.append(new_hop(out.rate, now, tx, qlen, rx))
                    pkt.hop_count += 1
            # Rule 2: the PFC check before the arrival event, so a PAUSE
            # or RESUME frame's events keep their earlier ``seq``.
            # Rule 3: at most one check, not two.  The step-by-step path
            # checks after release (in _on_emit) and again when enqueue
            # returns; nothing in between changes ``used``,
            # ``_ingress[key]`` or ``_pausing`` except the first check
            # itself, and each of its transitions falsifies the other's
            # guard (usage > xoff rules out usage < xoff * xon_fraction
            # and vice versa), so the second is a no-op.  So is the
            # first on a switch that pauses nobody when this ingress
            # holds no bytes (0 > xoff is false): ask only otherwise.
            pfc = self.pfc
            if pfc._pausing or buffer._ingress[(in_port, prio)]:
                pfc.on_ingress_change(in_port, prio)
            if out is link.port_a:
                dest_dev, dest_port = link.dev_b, link.port_b.port_id
            else:
                dest_dev, dest_port = link.dev_a, link.port_a.port_id
            # As Link.transmit: dest_dev.receive looked up per packet
            # (tracers monkeypatch it) and (now + ser) + prop rounding.
            sim.at(done + link.prop_delay, dest_dev.receive, pkt, dest_port)
            return
        if not self.buffer.occupy(in_port, out_id, prio, size):
            self.drops += 1
            self._drop(pkt)
            return
        pkt._ingress_ref = (in_port, out_id, prio, size)
        if (
            ptype is PacketType.DATA
            and not pkt.ecn
            and (marker := self._markers.get(out_id)) is not None
        ):
            qlen = out.qlen_bytes
            if (view := out.bg_view) is not None:
                qlen += view.qlen
            if marker.should_mark(qlen):
                pkt.ecn = True
        out.enqueue(pkt)
        self.pfc.on_ingress_change(in_port, prio)

    def _drop(self, pkt: Packet) -> None:
        """Report and recycle a refused packet; callers count the cause."""
        if self.metrics is not None:
            self.metrics.record_drop(pkt, self.node_id)
        recycle_hops(pkt)
        recycle_packet(pkt)

    def _on_emit(self, pkt: Packet, port: EgressPort) -> None:
        """Emission hook: stamp INT, release buffer, re-check PFC."""
        hops = pkt.int_hops
        if hops is not None and self.int_enabled and pkt.ptype is PacketType.DATA:
            now = self.sim.now
            tx = port.tx_bytes
            qlen = port.qlen_bytes
            rx = port.rx_bytes
            if (view := port.bg_view) is not None:
                # Fold the fluid background share into the register
                # snapshot: cumulative bytes extrapolate linearly at the
                # background rate inside the epoch so inter-ACK txRate
                # estimates see the background as smooth cross-traffic.
                bg_bytes = view.tx0 + view.rate * (now - view.t0)
                tx += bg_bytes
                rx += bg_bytes
                qlen += view.qlen
            hops.append(new_hop(port.rate, now, tx, qlen, rx))
            pkt.hop_count += 1
        ref = pkt._ingress_ref
        if ref is not None:
            in_port, out_port, prio, size = ref
            pkt._ingress_ref = None
            self.buffer.release(in_port, out_port, prio, size)
            self.pfc.on_ingress_change(in_port, prio)

    # -- PFC -------------------------------------------------------------------

    def send_pause(self, in_port: int, priority: int, pause: bool) -> None:
        """Emit a PAUSE/RESUME frame upstream on ``in_port``."""
        self.ports[in_port].enqueue_control(make_pause(priority, pause))

    def _handle_pfc_frame(self, pkt: Packet, in_port: int) -> None:
        port = self.ports[in_port]
        pause = pkt.ptype is PacketType.PAUSE
        was_paused = port.paused
        port.set_paused(pause)
        if self.pause_tracker is not None and pause != was_paused:
            if pause:
                self.pause_tracker.on_paused(self.node_id, in_port, self.sim.now)
            else:
                self.pause_tracker.on_resumed(self.node_id, in_port, self.sim.now)

    # -- introspection ----------------------------------------------------------

    def port_to(self, peer: int) -> EgressPort:
        """The first egress port attached to ``peer`` (convenience).

        O(1): served from a peer->port index built at wiring time —
        samplers call this for every labelled port on every run setup.
        """
        port_id = self._peer_port.get(peer)
        if port_id is None:
            raise LookupError(f"switch {self.node_id} has no port to {peer}")
        return self.ports[port_id]

    def total_queued_bytes(self) -> int:
        return sum(port.qlen_bytes for port in self.ports.values())
