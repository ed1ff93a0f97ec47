"""Link failure injection and rerouting."""

import pytest

from repro.experiments.failover import dual_trunk
from repro.network import Network, NetworkConfig
from repro.sim.units import MS, US
from repro.topology import star


def make_dual_trunk_net(cc="hpcc", **cfg):
    return Network(dual_trunk(n_pairs=2),
                   NetworkConfig(cc_name=cc, base_rtt=9 * US, **cfg))


def trunk_ports(net, switch, dst):
    """The up ports ``switch``'s ECMP group toward ``dst`` holds."""
    group = net.switches[switch].routing_table.get(dst) or ()
    return [port for _, ports in group for port in ports]


class TestFailLink:
    def test_fail_unknown_link_raises(self):
        net = make_dual_trunk_net()
        with pytest.raises(LookupError):
            net.fail_link(0, 3)

    def test_fail_and_restore_roundtrip(self):
        net = make_dual_trunk_net()
        sw_a, sw_b = 4, 5
        link = net.fail_link(sw_a, sw_b)
        assert not link.up
        assert net.restore_link(sw_a, sw_b) is link
        assert link.up

    def test_double_fail_cuts_both_trunks(self):
        net = make_dual_trunk_net()
        sw_a, sw_b = 4, 5
        net.reconverge(net.fail_link(sw_a, sw_b))
        net.reconverge(net.fail_link(sw_a, sw_b))
        with pytest.raises(LookupError):
            net.fail_link(sw_a, sw_b)
        # No route remains between the racks.
        assert trunk_ports(net, sw_a, 2) == []
        assert net.switches[sw_a].routing_table.get(2) is None

    def test_ecmp_group_shrinks(self):
        net = make_dual_trunk_net()
        sw_a, sw_b = 4, 5
        assert len(trunk_ports(net, sw_a, 2)) == 2
        link = net.fail_link(sw_a, sw_b)
        assert len(trunk_ports(net, sw_a, 2)) == 2
        net.reconverge(link)
        assert len(trunk_ports(net, sw_a, 2)) == 1
        net.reconverge(net.restore_link(sw_a, sw_b))
        assert len(trunk_ports(net, sw_a, 2)) == 2

    def test_down_link_discards_and_counts(self):
        net = make_dual_trunk_net()
        link = net.fail_link(4, 5)
        # Push a packet into the dead link directly.
        from repro.sim.packet import Packet, PacketType
        pkt = Packet(PacketType.DATA, 1, 0, 2, payload=100)
        link.transmit(pkt, link.port_a, ser_delay=8.0)
        assert link.packets_lost_down == 1


class TestFailoverBehaviour:
    def test_flows_survive_a_trunk_cut(self):
        net = make_dual_trunk_net(rto=300 * US)
        specs = [net.make_flow(src=i, dst=2 + i, size=2_000_000)
                 for i in range(2)]
        net.add_flows(specs)
        net.sim.at(0.2 * MS, lambda: net.reconverge(net.fail_link(4, 5)))
        assert net.run_until_done(deadline=50 * MS)
        for r in net.metrics.fct_records:
            assert r.fct > 0

    def test_host_cut_off_blackholes_without_crash(self):
        net = Network(star(3, host_rate="25Gbps"),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US,
                                    rto=300 * US))
        net.add_flow(net.make_flow(0, 2, 500_000))
        net.sim.at(0.1 * MS, lambda: net.reconverge(net.fail_link(2, 3)))
        done = net.run_until_done(deadline=3 * MS)
        assert not done                    # receiver is unreachable
        assert net.metrics.drop_count > 0  # blackholed, not crashed

    def test_restore_heals_the_fabric(self):
        net = Network(star(3, host_rate="25Gbps"),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US,
                                    rto=200 * US))
        net.add_flow(net.make_flow(0, 2, 300_000))
        net.sim.at(0.1 * MS, lambda: net.reconverge(net.fail_link(2, 3)))
        net.sim.at(1.0 * MS,
                   lambda: net.reconverge(net.restore_link(2, 3)))
        assert net.run_until_done(deadline=50 * MS)
