"""Egress ports: serialization, FIFO, pause, counters, idle hooks."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Packet, PacketType, make_pause
from repro.sim.queues import EgressPort


class Sink:
    """Stands in for a zero-propagation Link: records (packet, time)
    deliveries at serialization end (``transmit`` is called at
    serialization start with the serialization delay)."""

    def __init__(self, sim):
        self.sim = sim
        self.delivered = []

    def transmit(self, pkt, from_port, ser_delay):
        self.sim.schedule(ser_delay, self._arrive, pkt)

    def _arrive(self, pkt):
        self.delivered.append((pkt, self.sim.now))


def data(size=1000, flow=1):
    return Packet(PacketType.DATA, flow, 0, 1, payload=size, header=0)


def make_port(sim, rate=12.5, **kwargs):
    port = EgressPort(sim, owner=None, port_id=0, rate=rate, **kwargs)
    port.link = Sink(sim)
    return port


class TestSerialization:
    def test_single_packet_timing(self):
        sim = Simulator()
        port = make_port(sim, rate=12.5)      # 100Gbps
        port.enqueue(data(1000))
        sim.run()
        pkt, t = port.link.delivered[0]
        assert t == pytest.approx(80.0)       # 1000B / 12.5B/ns

    def test_back_to_back_spacing(self):
        sim = Simulator()
        port = make_port(sim, rate=12.5)
        port.enqueue(data(1000))
        port.enqueue(data(1000))
        sim.run()
        times = [t for _, t in port.link.delivered]
        assert times == pytest.approx([80.0, 160.0])

    def test_fifo_order(self):
        sim = Simulator()
        port = make_port(sim)
        first, second = data(flow=1), data(flow=2)
        port.enqueue(first)
        port.enqueue(second)
        sim.run()
        assert [p.flow_id for p, _ in port.link.delivered] == [1, 2]

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            EgressPort(Simulator(), None, 0, rate=0)


class TestCounters:
    def test_tx_and_rx_bytes(self):
        sim = Simulator()
        port = make_port(sim)
        port.enqueue(data(1000))
        port.enqueue(data(500))
        assert port.rx_bytes == 1500
        sim.run()
        assert port.tx_bytes == 1500
        assert port.packets_emitted == 2

    def test_qlen_tracks_queue(self):
        sim = Simulator()
        port = make_port(sim)
        port.enqueue(data(1000))   # starts transmitting immediately
        port.enqueue(data(700))
        port.enqueue(data(300))
        assert port.qlen_bytes == 1000
        sim.run()
        assert port.qlen_bytes == 0


class TestPause:
    def test_pause_halts_data(self):
        sim = Simulator()
        port = make_port(sim)
        port.set_paused(True)
        port.enqueue(data())
        sim.run(until=1000.0)
        assert port.link.delivered == []

    def test_resume_restarts(self):
        sim = Simulator()
        port = make_port(sim)
        port.set_paused(True)
        port.enqueue(data())
        sim.schedule(100.0, port.set_paused, False)
        sim.run()
        assert len(port.link.delivered) == 1
        assert port.link.delivered[0][1] == pytest.approx(180.0)

    def test_pause_does_not_preempt_inflight(self):
        sim = Simulator()
        port = make_port(sim)
        port.enqueue(data(1000))
        sim.run(max_events=0)
        port.set_paused(True)       # packet already being serialized
        sim.run(until=1000.0)
        assert len(port.link.delivered) == 1

    def test_control_bypasses_pause(self):
        sim = Simulator()
        port = make_port(sim)
        port.set_paused(True)
        port.enqueue(data())
        port.enqueue_control(make_pause(0, True))
        sim.run(until=1000.0)
        assert [p.ptype for p, _ in port.link.delivered] == [PacketType.PAUSE]

    def test_control_served_before_data(self):
        sim = Simulator()
        port = make_port(sim)
        port.enqueue(data(10_000))      # long packet first? no: enqueue order
        port.enqueue_control(make_pause(0, True))
        sim.run()
        # The data packet was already in service; the control frame goes next,
        # ahead of nothing else — verify it didn't wait behind more data.
        kinds = [p.ptype for p, _ in port.link.delivered]
        assert kinds[1] == PacketType.PAUSE

    def test_double_pause_is_idempotent(self):
        sim = Simulator()
        port = make_port(sim)
        kicks = []
        kick = port._kick
        port._kick = lambda: (kicks.append(sim.now), kick())
        port.set_paused(True)
        port.set_paused(True)
        assert port.paused
        sim.schedule(100.0, port.set_paused, False)
        sim.run()
        assert not port.paused
        assert kicks == [100.0]             # one resume, one kick


class TestHooks:
    def test_on_emit_called_with_remaining_qlen(self):
        # Figure 5 semantics: the emitted packet reports the queue it left
        # behind, not including itself.  The first packet starts serializing
        # the moment it is enqueued (queue still empty); the second is
        # emitted while the third waits; the third leaves nothing behind.
        sim = Simulator()
        seen = []
        port = make_port(sim)
        port.on_emit = lambda pkt, p: seen.append(p.qlen_bytes)
        port.enqueue(data(1000))
        port.enqueue(data(1000))
        port.enqueue(data(1000))
        sim.run()
        assert seen == [0, 1000, 0]

    def test_on_idle_fires_when_drained(self):
        sim = Simulator()
        idles = []
        port = make_port(sim, on_idle=lambda p: idles.append(sim.now))
        port.enqueue(data(1000))
        sim.run()
        assert idles == [pytest.approx(80.0)]

    def test_on_idle_fires_on_resume_when_empty(self):
        sim = Simulator()
        idles = []
        port = make_port(sim, on_idle=lambda p: idles.append(sim.now))
        port.set_paused(True)
        sim.schedule(50.0, port.set_paused, False)
        sim.run()
        assert idles == [50.0]
