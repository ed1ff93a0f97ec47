"""Network assembly: wiring, config resolution, ideal FCT, helpers."""

import pytest

from repro.metrics import pause_fraction
from repro.network import Network, NetworkConfig
from repro.sim.units import MS, US, gbps
from repro.topology import bench_fattree, dumbbell, star
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
        wire_factor = (1000 + net.header) / 1000
        expected = (1_000_000 * wire_factor / gbps(100)
                    + net.pair_base_rtt(0, 2))
        assert net.ideal_fct(spec) == pytest.approx(expected)

    def test_pair_base_rtt_reasonable(self):
        # star with 1us links: ~4us propagation + store-and-forward terms.
        net = Network(star(3, host_rate="100Gbps"),
                      NetworkConfig(base_rtt=9 * US))
        rtt = net.pair_base_rtt(0, 2)
        assert 4 * US < rtt < 5 * US
        # Cached and symmetric in structure for a symmetric topology.
        assert net.pair_base_rtt(0, 2) == rtt
        assert net.pair_base_rtt(2, 0) == pytest.approx(rtt)

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

    def test_switch_port_labels(self):
        net = Network(star(3), NetworkConfig())
        labels = net.switch_port_labels()
        assert len(labels) == 3
        assert all(label.startswith("sw3->") for label in labels)

    def test_sample_queues_default_all_switch_ports(self):
        net = Network(star(3), NetworkConfig())
        sampler = net.sample_queues(interval=10 * US)
        net.run(until=100 * US)
        assert len(sampler.times) == 10

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
