"""Topology builders: counts, speeds, structure, validation."""

import pytest

from repro.experiments.figure11 import SCALES as FIG11_SCALES
from repro.sim.units import gbps
from repro.topology import (
    FatTreeSpec,
    LinkSpec,
    Topology,
    bench_fattree,
    dumbbell,
    fattree,
    intree,
    paper_fattree,
    parking_lot,
    star,
)
from repro.topology import testbed as make_testbed
from repro.topology.fattree import fattree_k_spec


class TestValidation:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", n_hosts=1, n_switches=1,
                     links=[LinkSpec(0, 5, 1.0, 1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology("bad", n_hosts=2, n_switches=0,
                     links=[LinkSpec(0, 0, 1.0, 1.0)])


class TestStar:
    def test_counts(self):
        topo = star(8)
        assert topo.n_hosts == 8
        assert topo.n_switches == 1
        assert len(topo.links) == 8

    def test_host_rate(self):
        topo = star(4, host_rate="25Gbps")
        assert topo.host_rate(0) == pytest.approx(gbps(25))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            star(1)


class TestDumbbell:
    def test_structure(self):
        topo = dumbbell(3, 2)
        assert topo.n_hosts == 5
        assert topo.n_switches == 2
        # 5 host links + 1 trunk
        assert len(topo.links) == 6

    def test_trunk_rate(self):
        topo = dumbbell(2, 2, trunk_rate="400Gbps")
        trunk = [l for l in topo.links if l.a >= 4 and l.b >= 4][0]
        assert trunk.rate == pytest.approx(gbps(400))


class TestParkingLot:
    def test_counts(self):
        topo = parking_lot(3)
        assert topo.n_switches == 3
        assert topo.n_hosts == 8
        adj = topo.adjacency()
        # Chain: middle switch has 2 switch neighbors + 2 hosts.
        mid = topo.switch_tiers["tor"][1]
        assert len(adj[mid]) == 4

    def test_minimum(self):
        with pytest.raises(ValueError):
            parking_lot(1)


class TestIntree:
    def test_64_to_1_shape(self):
        topo = intree(fan_in=8, depth=2)
        assert topo.n_hosts == 65          # 64 senders + receiver
        assert topo.n_switches == 1 + 8

    def test_receiver_attached_to_root(self):
        topo = intree(fan_in=2, depth=2)
        receiver = 4
        root = topo.n_hosts
        assert any(
            {l.a, l.b} == {receiver, root} for l in topo.links
        )

    def test_all_hosts_have_links(self):
        topo = intree(fan_in=3, depth=2)
        for host in topo.hosts:
            topo.host_link(host)


class TestTestbed:
    def test_paper_shape(self):
        topo = make_testbed()
        assert topo.n_hosts == 32
        assert topo.n_switches == 5        # 4 ToRs + 1 Agg
        assert topo.host_rate(0) == pytest.approx(gbps(25))

    def test_base_rtt_close_to_paper(self):
        # The paper: 5.4us intra-rack, 8.5us cross-rack, T=9us.  The
        # estimate includes per-hop MTU serialization, so it sits slightly
        # above the cross-rack RTT; experiments set T=9us explicitly.
        topo = make_testbed()
        rtt = topo.base_rtt_estimate()
        assert 6_000 < rtt < 9_600

    def test_scaling_knobs(self):
        topo = make_testbed(servers_per_tor=4, n_tors=2, host_rate="10Gbps")
        assert topo.n_hosts == 8
        assert topo.host_rate(3) == pytest.approx(gbps(10))


class TestFatTree:
    def test_paper_scale(self):
        topo = paper_fattree()
        assert topo.n_hosts == 320
        assert topo.n_switches == 20 + 20 + 16
        assert topo.host_rate(0) == pytest.approx(gbps(100))

    def test_bench_scale_is_small(self):
        topo = bench_fattree()
        assert topo.n_hosts == 16
        assert topo.n_switches == 4 + 4 + 2

    def test_tier_labels(self):
        topo = bench_fattree()
        tiers = topo.switch_tiers
        assert len(tiers["tor"]) == 4
        assert len(tiers["agg"]) == 4
        assert len(tiers["core"]) == 2

    def test_pod_bipartite_wiring(self):
        spec = FatTreeSpec(n_pods=2, tors_per_pod=2, aggs_per_pod=2,
                           n_core=2, hosts_per_tor=2)
        topo = fattree(spec)
        adj = topo.adjacency()
        for tor in topo.switch_tiers["tor"]:
            agg_neighbors = [
                p for p, _ in adj[tor] if p in set(topo.switch_tiers["agg"])
            ]
            assert len(agg_neighbors) == spec.aggs_per_pod

    def test_every_agg_reaches_core(self):
        topo = bench_fattree()
        adj = topo.adjacency()
        cores = set(topo.switch_tiers["core"])
        for agg in topo.switch_tiers["agg"]:
            assert any(p in cores for p, _ in adj[agg])

    @pytest.mark.parametrize("spec", [
        *(tier["fattree"] for tier in FIG11_SCALES.values()),
        fattree_k_spec(8),
    ], ids=[*FIG11_SCALES, "k8"])
    def test_every_core_links_into_every_pod(self, spec):
        # The paper's 16 cores over 5 Aggs per pod do not divide evenly;
        # a floor share of uplinks used to leave core 15 unwired.
        topo = fattree(spec)
        adj = topo.adjacency()
        aggs = topo.switch_tiers["agg"]
        pod_of = {agg: i // spec.aggs_per_pod for i, agg in enumerate(aggs)}
        for core in topo.switch_tiers["core"]:
            pods = {pod_of[p] for p, _ in adj[core]}
            assert pods == set(range(spec.n_pods)), core

    def test_scaled_factory(self):
        scaled = FatTreeSpec().scaled(4)
        assert scaled.hosts_per_tor == 4
        assert scaled.n_pods >= 2


class TestTopologyHelpers:
    def test_adjacency_symmetric(self):
        topo = dumbbell(2, 2)
        adj = topo.adjacency()
        for node, peers in adj.items():
            for peer, _ in peers:
                assert any(q == node for q, _ in adj[peer])

    def test_min_host_rate(self):
        topo = star(4, host_rate="25Gbps")
        assert topo.min_host_rate() == pytest.approx(gbps(25))

    def test_host_link_missing_raises(self):
        topo = Topology("lonely", n_hosts=1, n_switches=1, links=[])
        with pytest.raises(ValueError):
            topo.host_link(0)
