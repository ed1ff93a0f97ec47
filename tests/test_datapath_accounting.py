"""What the packet datapath delivers, drops and acknowledges.

Each check watches the frames a host NIC receives (a spy around its
``receive``) or reads the run's :class:`~repro.metrics.Metrics`, so it
holds for any code path that carries packets end to end.
"""

import pytest

from repro.network import Network, NetworkConfig
from repro.sim.packet import PacketType
from repro.sim.units import MS, US
from repro.topology import star


def spy_frames(net, host):
    """Record ``(time, ptype, flow_id, seq, payload)`` for every frame
    ``host``'s NIC receives, read before the NIC recycles the packet."""
    seen = []
    nic = net.nics[host]

    def spy(pkt, in_port, original=nic.receive):
        seen.append((net.sim.now, pkt.ptype, pkt.flow_id, pkt.seq,
                     pkt.payload))
        original(pkt, in_port)

    nic.receive = spy
    return seen


@pytest.fixture
def single_flow():
    """One 10 KB HPCC flow across a 3-host star, watched at both ends."""
    net = Network(star(3, host_rate="100Gbps"),
                  NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
    at_sender = spy_frames(net, 0)
    at_receiver = spy_frames(net, 2)
    spec = net.make_flow(0, 2, 10_000)
    net.add_flow(spec)
    assert net.run_until_done(deadline=5 * MS)
    return net, spec, at_sender, at_receiver


def shallow_incast(cc_name, buffer_bytes=20_000, **config):
    """Three senders into one host through a shallow switch buffer."""
    net = Network(star(4, host_rate="100Gbps"),
                  NetworkConfig(cc_name=cc_name, base_rtt=9 * US,
                                buffer_bytes=buffer_bytes, **config))
    for s in range(3):
        net.add_flow(net.make_flow(s, 3, 100_000))
    net.run_until_done(deadline=100 * MS)
    return net


class TestLosslessDelivery:
    def test_data_packets_match_flow_size(self, single_flow):
        _, spec, _, at_receiver = single_flow
        data = [(seq, payload) for _, ptype, fid, seq, payload in at_receiver
                if ptype is PacketType.DATA and fid == spec.flow_id]
        assert len(data) == 10                       # 10 x 1000B
        assert data[0] == (0, 1000)
        assert data[-1][0] == 9_000
        assert sum(payload for _, payload in data) == spec.size

    def test_every_byte_arrives_once(self, single_flow):
        net, spec, _, at_receiver = single_flow
        seqs = [seq for _, ptype, _, seq, _ in at_receiver
                if ptype is PacketType.DATA]
        assert len(seqs) == len(set(seqs))           # nothing resent
        assert net.metrics.drop_count == 0
        assert net.metrics.data_bytes_delivered == spec.size

    def test_every_data_packet_is_acked(self, single_flow):
        _, spec, at_sender, at_receiver = single_flow
        data = sum(1 for _, ptype, fid, *_ in at_receiver
                   if ptype is PacketType.DATA and fid == spec.flow_id)
        acks = sum(1 for _, ptype, fid, *_ in at_sender
                   if ptype is PacketType.ACK and fid == spec.flow_id)
        assert acks == data

    def test_frames_arrive_in_time_order(self, single_flow):
        _, _, at_sender, at_receiver = single_flow
        for frames in (at_sender, at_receiver):
            times = [t for t, *_ in frames]
            assert times == sorted(times)

    def test_fct_spans_first_send_to_last_ack(self, single_flow):
        net, spec, at_sender, _ = single_flow
        [record] = net.metrics.fct_records
        assert record.spec.size == spec.size
        assert record.start == spec.start_time
        last_ack = max(t for t, ptype, *_ in at_sender
                       if ptype is PacketType.ACK)
        assert record.finish == pytest.approx(last_ack)


class TestDrops:
    def test_lossy_shallow_buffer_drops_at_the_switch(self):
        net = shallow_incast("dctcp", pfc_enabled=False, rto=200 * US)
        metrics = net.metrics
        assert metrics.drop_count > 0
        assert sum(metrics.drops_by_device.values()) == metrics.drop_count
        assert set(metrics.drops_by_device) <= set(net.topology.switches)

    def test_pfc_shallow_buffer_drops_nothing(self):
        """PFC reserves no headroom: the buffer must still hold what is
        in flight after a PAUSE (a 20 KB one does not; 100 KB does)."""
        net = shallow_incast("hpcc", buffer_bytes=100_000)
        assert net.metrics.pause_tracker.pause_count() > 0
        assert net.metrics.drop_count == 0
        assert net.metrics.data_bytes_delivered == 3 * 100_000

    def test_lossy_flows_recover_every_byte(self):
        """Dropped packets are resent: every flow still finishes, and
        the receivers take in more bytes than the flows hold."""
        net = shallow_incast("dctcp", pfc_enabled=False, rto=200 * US)
        records = net.metrics.fct_records
        assert sorted(r.spec.size for r in records) == [100_000] * 3
        assert net.metrics.data_bytes_delivered > 3 * 100_000
