"""One ECMP rule on both engines: packet routes and fluid paths agree.

Every flow's route is walked twice: through the packet switches' ECMP
groups with :func:`~repro.sim.routing.ecmp_next_hop` (the call
``Switch.receive`` forwards by), and through
:meth:`~repro.fluid.state.FluidGraph.path`.  On the bench Figure 11
FatTree the two node sequences must be identical for every flow of the
grid, before a fabric link cut, after it reconverges, and after the
restore.  Over random fail/restore sequences on ``fattree_k(4)`` and
``dual_trunk()``, every switch's packet ECMP group toward every host
holds exactly the fluid walker's candidate peers after every flip.  A
k=8 run checks the node salt end to end: inter-pod packets reach every
core, where an unsalted hash repeats the ToR's pick at the Agg and
reaches a quarter of them.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.experiments import figure11
from repro.fluid.state import FluidGraph
from repro.network import Network, NetworkConfig
from repro.runner.execute import _setup_network
from repro.sim.routing import UNREACHED, ecmp_next_hop
from repro.sim.units import MS, US
from repro.topology import dual_trunk
from repro.topology.fattree import fattree_k

MTU_WIRE, ACK = 1048, 60


def packet_route(net: Network, flow_id: int, src: int, dst: int):
    """The nodes the switch tables send a flow direction through."""
    ((node, _),) = net.topology.adjacency()[src]     # a host's one NIC
    nodes = [src, node]
    while node != dst:
        group = net.switches[node].routing_table[dst]
        node = ecmp_next_hop(group, flow_id, src, dst, node)[0]
        nodes.append(node)
    return nodes


def fluid_route(graph: FluidGraph, flow_id: int, src: int, dst: int):
    path = graph.path(flow_id, src, dst, MTU_WIRE, ACK)
    return [src] + [link.b for link in path.links]


def test_bench_fig11_routes_match_before_and_after_a_cut():
    triples = set()
    net = None
    for spec in figure11.scenarios("bench"):
        job = _setup_network(spec)
        net = job.backend.net
        triples.update((fs.flow_id, fs.src, fs.dst) for fs in job.flows)
    graph = FluidGraph(net.topology, 1_000_000)
    agg, core = net.topology.switch_tiers["agg"][0], \
        net.topology.switch_tiers["core"][0]

    def assert_agree():
        differ = [t for t in sorted(triples)
                  if packet_route(net, *t) != fluid_route(graph, *t)]
        assert not differ, f"{len(differ)} of {len(triples)} flows differ"

    assert_agree()
    net.reconverge(net.fail_link(agg, core))
    graph.fail_link(agg, core)
    assert_agree()
    net.reconverge(net.restore_link(agg, core))
    graph.restore_link(agg, core)
    assert_agree()


def assert_groups_match_candidates(net: Network, graph: FluidGraph):
    rows = graph.rows()
    for host in net.topology.hosts:
        row = rows.row(host)
        for switch in net.topology.switches:
            group = net.switches[switch].routing_table.get(host, ())
            fluid = (rows.next_hops(switch, row)
                     if row[switch] != UNREACHED else [])
            assert [peer for peer, _ in group] == fluid, (switch, host)


FLIP_TOPOLOGIES = {"fattree_k4": lambda: fattree_k(4),
                   "dual_trunk": dual_trunk}


@settings(deadline=None, max_examples=50)
@given(
    name=st.sampled_from(sorted(FLIP_TOPOLOGIES)),
    flips=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
        min_size=1, max_size=12,
    ),
)
def test_packet_groups_equal_fluid_candidates_after_every_flip(name, flips):
    topology = FLIP_TOPOLOGIES[name]()
    net = Network(topology, NetworkConfig(cc_name="hpcc", base_rtt=13 * US))
    graph = FluidGraph(topology, 1_000_000)
    assert_groups_match_candidates(net, graph)
    for fail, pick in flips:
        link = topology.links[pick % len(topology.links)]
        try:
            if fail:
                net.reconverge(net.fail_link(link.a, link.b))
                graph.fail_link(link.a, link.b)
            else:
                net.reconverge(net.restore_link(link.b, link.a))
                graph.restore_link(link.b, link.a)
        except LookupError:
            continue            # nothing up to cut / down to restore
        assert_groups_match_candidates(net, graph)


def test_k8_inter_pod_packets_reach_every_core():
    topology = fattree_k(8)                 # 8 pods of 16 hosts, 16 cores
    net = Network(topology, NetworkConfig(cc_name="hpcc", base_rtt=13 * US))
    rng = random.Random(8)
    hosts = list(topology.hosts)
    for i in range(200):
        src = rng.choice(hosts)
        dst = rng.choice([h for h in hosts if h // 16 != src // 16])
        net.add_flow(net.make_flow(src, dst, 1_000, start_time=1_000.0 + i))
    assert net.run_until_done(deadline=5 * MS)
    cores = topology.switch_tiers["core"]
    used = [core for core in cores
            if any(port.tx_bytes for port in net.switches[core].ports.values())]
    assert len(used) == len(cores) == 16
