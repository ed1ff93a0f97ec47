"""NIC edge cases: CNP pacing, pause accounting at hosts, goodput slices."""

import pytest

from repro.metrics import pause_fraction
from repro.metrics.timeseries import GoodputTracker
from repro.network import Network, NetworkConfig
from repro.sim.packet import PacketType
from repro.sim.units import MS, US
from repro.topology import star


class TestCnpPacing:
    def test_cnp_interval_rate_limits(self):
        """The NP may emit at most one CNP per Td per flow, no matter how
        many marked packets arrive."""
        net = Network(star(4, host_rate="100Gbps"),
                      NetworkConfig(cc_name="dcqcn", base_rtt=9 * US,
                                    cc_params={"td": 50 * US}))
        cnp_times = []
        nic = net.nics[0]
        original = nic.receive

        def spy(pkt, in_port):
            if pkt.ptype is PacketType.CNP:
                cnp_times.append(net.sim.now)
            original(pkt, in_port)

        nic.receive = spy
        for s in range(3):
            net.add_flow(net.make_flow(src=s, dst=3, size=400_000))
        net.run_until_done(deadline=30 * MS)
        flow0_cnps = sorted(cnp_times)
        gaps = [b - a for a, b in zip(flow0_cnps, flow0_cnps[1:])]
        assert all(gap >= 50 * US - 1e-6 for gap in gaps)

    def test_congested_senders_receive_cnps_apart_from_acks(self):
        """DCQCN's congestion signal reaches the senders as CNP frames of
        their own type, fewer than the plain ACKs beside them."""
        net = Network(star(4, host_rate="100Gbps"),
                      NetworkConfig(cc_name="dcqcn", base_rtt=9 * US,
                                    seed=3))
        frames = {PacketType.CNP: 0, PacketType.ACK: 0}
        for host in range(3):
            nic = net.nics[host]

            def spy(pkt, in_port, original=nic.receive):
                if pkt.ptype in frames:
                    frames[pkt.ptype] += 1
                original(pkt, in_port)

            nic.receive = spy
        net.add_flow(net.make_flow(0, 3, 1_000_000, start_time=1_000.0))
        net.add_flow(net.make_flow(1, 3, 700_000, start_time=1_003.0))
        net.add_flow(net.make_flow(2, 3, 500_000, start_time=1_007.0))
        assert net.run_until_done(deadline=5 * MS)
        assert 0 < frames[PacketType.CNP] < frames[PacketType.ACK]

    def test_unmarked_traffic_generates_no_cnps(self):
        net = Network(star(3, host_rate="100Gbps"),
                      NetworkConfig(cc_name="dcqcn", base_rtt=9 * US))
        seen = []
        original = net.nics[0].receive

        def spy(pkt, in_port):
            if pkt.ptype is PacketType.CNP:
                seen.append(1)
            original(pkt, in_port)

        net.nics[0].receive = spy
        # A single flow cannot congest its own bottleneck-free path.
        net.add_flow(net.make_flow(0, 2, 200_000))
        net.run_until_done(deadline=5 * MS)
        assert not seen


class TestHostPauses:
    def test_host_pause_fraction_counts_incast_pauses(self):
        net = Network(star(9, host_rate="100Gbps"),
                      NetworkConfig(cc_name="dcqcn", base_rtt=9 * US,
                                    buffer_bytes=500_000))
        for s in range(8):
            net.add_flow(net.make_flow(s, 8, 400_000))
        net.run_until_done(deadline=50 * MS)
        duration = net.sim.now
        tracker = net.metrics.pause_tracker
        hosts = net.topology.hosts
        if tracker.pause_count() > 0:
            assert pause_fraction(tracker, duration, devices=set(hosts),
                                  n_ports=len(hosts)) > 0

    def test_every_pause_is_resumed(self):
        """A shallow-buffer incast with PFC on pauses, and every PAUSE
        frame is matched by a RESUME once the queue drains."""
        net = Network(star(4, host_rate="100Gbps"),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US,
                                    buffer_bytes=20_000))
        for s in range(3):
            net.add_flow(net.make_flow(s, 3, 100_000))
        assert net.run_until_done(deadline=100 * MS)
        tracker = net.metrics.pause_tracker
        assert tracker.pause_count() > 0
        assert tracker.resume_frames_sent == tracker.pause_frames_sent > 0

    def test_pause_tracker_sees_host_devices(self):
        net = Network(star(9, host_rate="100Gbps"),
                      NetworkConfig(cc_name="dcqcn", base_rtt=9 * US,
                                    buffer_bytes=500_000))
        for s in range(8):
            net.add_flow(net.make_flow(s, 8, 400_000))
        net.run_until_done(deadline=50 * MS)
        devices = {iv.device for iv in net.metrics.pause_tracker.intervals}
        # Pauses land on host uplinks (devices 0..8), not just switches.
        assert devices & set(range(9))


class TestGoodputSlices:
    def test_total_series_selected_flows(self):
        tracker = GoodputTracker(1000.0)
        tracker.record(1, 100.0, 1000)
        tracker.record(2, 100.0, 3000)
        _, only_one = tracker.total_series([1])
        _, both = tracker.total_series()
        assert only_one[0] == pytest.approx(8.0)
        assert both[0] == pytest.approx(32.0)

    def test_total_series_unknown_flow(self):
        tracker = GoodputTracker(1000.0)
        assert tracker.total_series([42]) == ([], [])
