"""End-to-end behavioural tests: the paper's claims at miniature scale."""

import pytest

from repro.metrics.fct import percentile
from repro.metrics.queuestats import QueueSampler
from repro.network import Network, NetworkConfig
from repro.sim.units import MS, US, gbps
from repro.topology import dumbbell, star


def incast_net(cc, fan_in=8, rate="100Gbps", **cfg):
    net = Network(star(fan_in + 1, host_rate=rate),
                  NetworkConfig(cc_name=cc, base_rtt=9 * US, **cfg))
    return net


class TestHpccHeadlines:
    def test_near_zero_steady_queue(self):
        """Two elephants under HPCC: q95 stays a few KB (Figure 9f)."""
        net = incast_net("hpcc", fan_in=3)
        sampler = QueueSampler(net.sim, {"b": net.ports_between(4, 3)}, 1 * US)
        for s in range(2):
            net.add_flow(net.make_flow(s, 3, 4_000_000))
        net.run_until_done(deadline=10 * MS)
        t = sampler.times
        steady = [q for tt, q in zip(t, sampler.samples["b"])
                  if tt > 0.2 * MS]
        assert percentile(steady, 95) < 10_000

    def test_utilization_near_eta(self):
        """HPCC deliberately leaves ~5% headroom (Section 5.3)."""
        net = incast_net("hpcc", fan_in=3, goodput_bin=50 * US)
        specs = [net.make_flow(s, 3, 4_000_000) for s in range(2)]
        net.add_flows(specs)
        net.run_until_done(deadline=10 * MS)
        total = sum(
            net.metrics.goodput.mean_gbps(s.flow_id, 0.3 * MS, 0.6 * MS)
            for s in specs
        )
        # Goodput excludes the 90B/pkt header; eta=95% of 100G.
        assert 70 < total < 95

    def test_incast_no_pfc_with_hpcc(self):
        """The paper's stability headline: HPCC incast triggers no PFC."""
        net = incast_net("hpcc", fan_in=8, buffer_bytes=2_000_000)
        for s in range(8):
            net.add_flow(net.make_flow(s, 8, 500_000))
        assert net.run_until_done(deadline=20 * MS)
        assert net.metrics.pause_tracker.pause_count() == 0
        assert net.metrics.drop_count == 0

    def test_incast_dcqcn_triggers_pfc_same_setup(self):
        net = incast_net("dcqcn", fan_in=8, buffer_bytes=2_000_000)
        for s in range(8):
            net.add_flow(net.make_flow(s, 8, 500_000))
        net.run_until_done(deadline=50 * MS)
        assert net.metrics.pause_tracker.pause_count() > 0
        assert net.metrics.drop_count == 0        # PFC kept it lossless

    def test_fairness_two_flows(self):
        net = incast_net("hpcc", fan_in=3)
        specs = [net.make_flow(s, 3, 2_000_000) for s in range(2)]
        net.add_flows(specs)
        net.run_until_done(deadline=10 * MS)
        fcts = [r.fct for r in net.metrics.fct_records]
        assert max(fcts) / min(fcts) < 1.25

    def test_late_joiner_converges(self):
        """MI+AI: a flow joining an occupied link gets a usable share."""
        net = incast_net("hpcc", fan_in=3, goodput_bin=100 * US)
        early = net.make_flow(0, 3, 12_000_000)
        late = net.make_flow(1, 3, 3_000_000, start_time=1 * MS)
        net.add_flows([early, late])
        net.run_until_done(deadline=20 * MS)
        late_record = net.metrics.flows.finished[late.flow_id]
        # A fair ~45G share of the 100G link gives slowdown ~2.2 against
        # the line-rate ideal; starvation would blow far past that.
        assert late_record.slowdown < 4.0


class TestConservation:
    def test_all_bytes_delivered_exactly_once_lossless(self):
        net = incast_net("hpcc", fan_in=4)
        total = 0
        for s in range(4):
            size = 100_000 + s * 17_000
            total += size
            net.add_flow(net.make_flow(s, 4, size))
        assert net.run_until_done(deadline=20 * MS)
        # Lossless + per-packet go-back-N with no drops: no duplicates.
        assert net.metrics.data_bytes_delivered == total
        for rf in net.nics[4].recv_flows.values():
            assert rf.state.expected in (100_000, 117_000, 134_000, 151_000)

    def test_switch_buffers_drain_after_run(self):
        net = incast_net("hpcc", fan_in=4)
        for s in range(4):
            net.add_flow(net.make_flow(s, 4, 50_000))
        assert net.run_until_done(deadline=20 * MS)
        net.run(until=net.sim.now + 1 * MS)
        switch = net.switches[5]
        assert switch.buffer.used == 0
        assert switch.total_queued_bytes() == 0

    def test_lossy_gbn_still_delivers_everything(self):
        net = incast_net("dcqcn", fan_in=6, pfc_enabled=False,
                         buffer_bytes=60_000, rto=300 * US)
        for s in range(6):
            net.add_flow(net.make_flow(s, 6, 120_000))
        assert net.run_until_done(deadline=200 * MS)
        assert net.metrics.drop_count > 0
        for rf in net.nics[6].recv_flows.values():
            assert rf.state.expected == 120_000

    def test_lossy_irn_fewer_retransmissions_than_gbn(self):
        results = {}
        for mode in ("gbn", "irn"):
            net = incast_net("dctcp", fan_in=6, transport=mode,
                             pfc_enabled=False, buffer_bytes=50_000,
                             rto=300 * US)
            for s in range(6):
                net.add_flow(net.make_flow(s, 6, 150_000))
            assert net.run_until_done(deadline=200 * MS), mode
            delivered = net.metrics.data_bytes_delivered
            results[mode] = delivered - 6 * 150_000     # duplicate bytes
        assert results["irn"] <= results["gbn"]


class TestMultiBottleneck:
    def test_dumbbell_trunk_is_bottleneck(self):
        topo = dumbbell(2, 2, host_rate="100Gbps", trunk_rate="50Gbps")
        net = Network(topo, NetworkConfig(cc_name="hpcc", base_rtt=9 * US,
                                          goodput_bin=100 * US))
        specs = [net.make_flow(0, 2, 2_000_000),
                 net.make_flow(1, 3, 2_000_000)]
        net.add_flows(specs)
        net.run_until_done(deadline=20 * MS)
        rates = [net.metrics.goodput.mean_gbps(s.flow_id, 0.2 * MS, 0.5 * MS)
                 for s in specs]
        # Two flows share the 50G trunk: ~23.75G each (eta x 50 / 2).
        assert sum(rates) < 50
        assert all(r > 12 for r in rates)

    def test_hpcc_multi_hop_int_reports_bottleneck(self):
        """The max-U hop selection must find the trunk, not the access."""
        topo = dumbbell(1, 1, host_rate="100Gbps", trunk_rate="25Gbps")
        net = Network(topo, NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
        net.add_flow(net.make_flow(0, 1, 1_000_000))
        net.run_until_done(deadline=20 * MS)
        record = net.metrics.fct_records[0]
        # Ideal FCT uses the host rate; the 25G trunk makes the flow ~4x
        # slower, minus eta.  It must neither collapse nor overshoot.
        assert 3.5 < record.slowdown < 6.0
