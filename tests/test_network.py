"""Network assembly: wiring, config resolution, ideal FCT, helpers."""

import pytest

from repro.metrics import QueueSampler, pause_fraction
from repro.network import Network, NetworkConfig
from repro.runner.harness import sample_probes
from repro.sim.units import MS, US, gbps
from repro.topology import bench_fattree, dual_trunk, dumbbell, star
from repro.topology import testbed as make_testbed


class TestConstruction:
    def test_devices_created(self):
        net = Network(star(4), NetworkConfig())
        assert len(net.nics) == 4
        assert len(net.switches) == 1
        assert len(net.links) == 4

    def test_int_follows_scheme(self):
        assert Network(star(3), NetworkConfig(cc_name="hpcc")).int_enabled
        assert not Network(star(3), NetworkConfig(cc_name="dcqcn")).int_enabled

    def test_int_override(self):
        net = Network(star(3), NetworkConfig(cc_name="dcqcn", int_enabled=True))
        assert net.int_enabled

    def test_header_includes_int_overhead(self):
        with_int = Network(star(3), NetworkConfig(cc_name="hpcc"))
        without = Network(star(3), NetworkConfig(cc_name="dcqcn"))
        assert with_int.header == without.header + 42

    def test_base_rtt_estimated_when_unset(self):
        net = Network(star(3), NetworkConfig())
        assert net.base_rtt > 0

    def test_base_rtt_override(self):
        net = Network(star(3), NetworkConfig(base_rtt=9 * US))
        assert net.base_rtt == 9 * US

    def test_host_port_rate_from_topology(self):
        net = Network(star(3, host_rate="25Gbps"), NetworkConfig())
        assert net.nics[0].port.rate == pytest.approx(gbps(25))

    def test_fattree_builds_and_routes(self):
        net = Network(bench_fattree(), NetworkConfig())
        for sw in net.switches.values():
            assert len(sw.routing_table) == net.topology.n_hosts

    def test_origin_of_covers_all_ports(self):
        net = Network(dumbbell(2, 2), NetworkConfig())
        for (node, peer), ports in net.port_map.items():
            for port in ports:
                assert net.origin_of[(node, port)] == peer


class TestFlows:
    def test_make_flow_allocates_ids(self):
        net = Network(star(3), NetworkConfig())
        a = net.make_flow(0, 1, 1000)
        b = net.make_flow(1, 2, 1000)
        assert a.flow_id != b.flow_id

    def test_add_flow_registers_and_schedules(self):
        net = Network(star(3), NetworkConfig())
        spec = net.make_flow(0, 2, 1000, start_time=5 * US)
        net.add_flow(spec)
        assert net.metrics.flows.n_outstanding == 1
        net.run(until=4 * US)
        assert spec.flow_id not in net.nics[0].flows
        net.run(until=6 * US)
        assert spec.flow_id in net.nics[0].flows

    def test_ideal_fct_formula(self):
        net = Network(star(3, host_rate="100Gbps"),
                      NetworkConfig(base_rtt=9 * US))
        spec = net.make_flow(0, 2, 1_000_000)
        net.add_flow(spec)
        wire_factor = (1000 + net.header) / 1000
        expected = (1_000_000 * wire_factor / gbps(100)
                    + net.flow_base_rtt(spec))
        assert net.ideal_fct(spec) == pytest.approx(expected)

    def test_flow_base_rtt_reasonable(self):
        # star with 1us links: 4us propagation, then per hop one MTU
        # frame out and one ACK back at 100 Gbps.
        net = Network(star(3, host_rate="100Gbps"),
                      NetworkConfig(base_rtt=9 * US))
        rtt = net.flow_base_rtt(net.make_flow(0, 2, 1_000))
        wire = 1000 + net.header
        assert rtt == pytest.approx(4 * US + 2 * (wire + 60) / gbps(100))
        assert net.flow_base_rtt(net.make_flow(2, 0, 1_000)) == rtt

    def test_flow_base_rtt_is_priced_when_the_flow_is_added(self):
        # A link cut after admission does not move the flow's ideal.
        net = Network(star(3), NetworkConfig(base_rtt=9 * US))
        spec = net.make_flow(0, 2, 1_000)
        net.add_flow(spec)
        ideal = net.ideal_fct(spec)
        net.reconverge(net.fail_link(2, 3))
        assert net.ideal_fct(spec) == ideal
        # Unreachable at admission: one base RTT.
        late = net.make_flow(0, 2, 1_000)
        assert net.flow_base_rtt(late) == net.base_rtt

    def test_run_until_done_true_when_finished(self):
        net = Network(star(3), NetworkConfig(base_rtt=9 * US))
        net.add_flow(net.make_flow(0, 2, 10_000))
        assert net.run_until_done(deadline=5 * MS)

    def test_run_until_done_false_on_timeout(self):
        net = Network(star(3), NetworkConfig(base_rtt=9 * US))
        net.add_flow(net.make_flow(0, 2, 100_000_000))
        assert not net.run_until_done(deadline=100 * US)


class TestHelpers:
    def test_port_between_host_and_switch(self):
        net = Network(star(3), NetworkConfig())
        assert net.port_between(0, 3) is net.nics[0].port
        assert net.port_between(3, 0).port_id in (0, 1, 2)
        with pytest.raises(LookupError):
            net.port_between(0, 2)       # hosts are not adjacent

    def test_default_probes_are_every_switch_port_in_port_order(self):
        assert sample_probes(star(3), None) == {
            "sw3->0": (3, 0), "sw3->1": (3, 1), "sw3->2": (3, 2)}
        net = Network(bench_fattree(), NetworkConfig())
        probes = sample_probes(net.topology, None)
        assert list(probes) == [
            f"sw{sw}->{switch.port_peer[port]}"
            for sw, switch in net.switches.items() for port in switch.ports
        ]
        for label, (a, b) in probes.items():
            assert net.switches[a].port_peer[net.port_between(a, b).port_id] == b

    def test_sample_queues_default_all_switch_ports(self):
        net = Network(star(3), NetworkConfig())
        sampler = QueueSampler(net.sim, {
            label: net.ports_between(a, b)
            for label, (a, b) in sample_probes(net.topology, None).items()
        }, 10 * US)
        net.run(until=100 * US)
        assert len(sampler.times) == 10

    def test_parallel_pair_probe_reads_the_pooled_queue(self):
        """A probe on a parallel pair samples the sum of its members'
        queues, read at the same instants as each member alone."""
        net = Network(dual_trunk(n_pairs=4, trunk_rate="10Gbps"),
                      NetworkConfig(base_rtt=9 * US))
        members = net.ports_between(8, 9)
        assert len(members) == 2
        assert net.port_between(8, 9) is members[0]
        sampler = QueueSampler(net.sim, {
            "trunk": members, "m0": members[:1], "m1": members[1:],
        }, 2 * US)
        for i in range(4):
            net.add_flow(net.make_flow(i, i + 4, 200_000))
        net.run_until_done(deadline=5 * MS)
        m0, m1 = sampler.samples["m0"], sampler.samples["m1"]
        assert max(m0) > 0 and max(m1) > 0
        assert sampler.samples["trunk"] == [a + b for a, b in zip(m0, m1)]

    def test_host_pause_fraction_zero_without_pauses(self):
        net = Network(star(3), NetworkConfig())
        net.run(until=10 * US)
        hosts = net.topology.hosts
        assert pause_fraction(net.metrics.pause_tracker, 10 * US,
                              devices=set(hosts), n_ports=len(hosts)) == 0.0


class TestSchemesEndToEnd:
    """Every registered scheme completes a transfer on every topology kind."""

    @pytest.mark.parametrize("cc_name", [
        "hpcc", "dcqcn", "timely", "dctcp",
        "dcqcn+win", "timely+win",
        "hpcc-rxrate", "hpcc-perack", "hpcc-perrtt",
    ])
    def test_completes_small_transfer(self, cc_name):
        net = Network(star(3, host_rate="100Gbps"),
                      NetworkConfig(cc_name=cc_name, base_rtt=9 * US))
        net.add_flow(net.make_flow(0, 2, 50_000))
        assert net.run_until_done(deadline=20 * MS)
        assert net.metrics.fct_records[0].slowdown < 3.0

    @pytest.mark.parametrize("topo", [
        star(4, host_rate="25Gbps"),
        dumbbell(2, 2, host_rate="25Gbps"),
        make_testbed(servers_per_tor=2, n_tors=2),
        bench_fattree(),
    ], ids=["star", "dumbbell", "testbed", "fattree"])
    def test_hpcc_works_on_every_topology(self, topo):
        net = Network(topo, NetworkConfig(cc_name="hpcc"))
        last = topo.n_hosts - 1
        net.add_flow(net.make_flow(0, last, 100_000))
        assert net.run_until_done(deadline=50 * MS)
