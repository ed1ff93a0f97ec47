"""The step-by-step switch hop, kept as the oracle for the one-frame hop.

``ReferenceSwitch.receive`` is ``Switch.receive`` as it stood at 296a431,
the parent of the one-frame hop, verbatim but for its ECMP pick, which
follows the one rule of ``sim/routing.py``, and its hybrid background
view, which it reads off the egress port (``EgressPort.bg_view``) as
``Switch`` does: ``ecmp_next_hop`` ->
``SharedBuffer.occupy`` -> ``_ingress_ref`` -> ECN mark ->
``EgressPort.enqueue`` (which kicks the port, which calls ``_on_emit``,
which releases the buffer and checks PFC) -> second PFC check.  Every
packet takes that path, whatever the egress port's state.

``tests/test_switch_fastpath.py`` builds each scenario twice — once with
``repro.network.Switch`` patched to this class — and requires identical
records and counters.  Everything the method calls (``_on_emit``, the
buffer, the ports, the links) is the production code, so this pins the
*branch* in ``Switch.receive``, not the port/link model; the
parent-captured goldens in ``test_determinism_golden.py`` pin that.
"""

from __future__ import annotations

from repro.sim.packet import Packet, PacketType, recycle_hops, recycle_packet
from repro.sim.routing import cached_ecmp_hash, ecmp_next_hop
from repro.sim.switch import Switch


class ReferenceSwitch(Switch):
    """A :class:`Switch` that never takes the one-frame hop."""

    def receive(self, pkt: Packet, in_port: int) -> None:
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
            if self.metrics is not None:
                self.metrics.record_drop(pkt, self.node_id)
            recycle_hops(pkt)
            recycle_packet(pkt)
            return
        ports = ecmp_next_hop(group, pkt.flow_id, pkt.src, pkt.dst,
                              self.node_id)[1]
        out_id = ports[0] if len(ports) == 1 else ports[
            cached_ecmp_hash(pkt.flow_id, pkt.src, pkt.dst) % len(ports)]
        size = pkt.wire_size
        prio = pkt.priority
        if not self.buffer.occupy(in_port, out_id, prio, size):
            self.drops += 1
            if self.metrics is not None:
                self.metrics.record_drop(pkt, self.node_id)
            recycle_hops(pkt)
            recycle_packet(pkt)
            return
        pkt._ingress_ref = (in_port, out_id, prio, size)
        out = self.ports[out_id]
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
