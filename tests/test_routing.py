"""Routing: distance rows, tables, the ECMP next-hop rule, hash determinism."""

from collections import Counter, deque

from repro.sim.routing import (
    UNREACHED,
    RoutingState,
    ShortestPathRows,
    ecmp_hash,
    ecmp_next_hop,
)
from repro.topology.base import LinkSpec, Topology
from repro.topology.fattree import FatTreeSpec, fattree
from repro.topology.simple import dumbbell, star


def port_map_for(topology):
    """Assign sequential port ids per node, as Network does."""
    port_map = {}
    next_port = {n: 0 for n in list(topology.switches) + list(topology.hosts)}
    for link in topology.links:
        for node, peer in ((link.a, link.b), (link.b, link.a)):
            pid = 0 if topology.is_host(node) else next_port[node]
            if not topology.is_host(node):
                next_port[node] += 1
            port_map.setdefault((node, peer), []).append(pid)
    return port_map


def dict_bfs(topology, source):
    """The oracle: hop distance from every reachable node to ``source``,
    by a plain ``dict`` + ``deque`` BFS over the topology's links."""
    adj = topology.adjacency()
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for peer, _ in adj[node]:
            if peer not in dist:
                dist[peer] = dist[node] + 1
                frontier.append(peer)
    return dist


def assert_rows_match_oracle(topology):
    rows = ShortestPathRows.of(topology)
    for dst in range(topology.n_hosts + topology.n_switches):
        dist = dict_bfs(topology, dst)
        assert list(rows.row(dst)) == [
            dist.get(node, UNREACHED) for node in range(len(rows.peers))
        ], dst


class TestBfs:
    def test_distances_on_star(self):
        topo = star(3)
        dist = ShortestPathRows.of(topo).row(0)
        assert dist[3] == 1          # switch
        assert dist[1] == 2          # other host
        assert_rows_match_oracle(topo)

    def test_distances_on_dumbbell(self):
        topo = dumbbell(2, 2)
        dist = ShortestPathRows.of(topo).row(0)
        assert dist[4] == 1          # left switch
        assert dist[5] == 2          # right switch
        assert dist[2] == 3          # right host
        assert_rows_match_oracle(topo)


class TestRoutingTables:
    def test_star_routes_direct(self):
        topo = star(4)
        tables = RoutingState(topo, port_map_for(topo)).build()
        switch_table = tables[4]
        # Every host reachable through exactly one port.
        assert set(switch_table) == {0, 1, 2, 3}
        assert all(len(ports) == 1 for ports in switch_table.values())

    def test_dumbbell_cross_traffic_uses_trunk(self):
        topo = dumbbell(2, 2)
        pm = port_map_for(topo)
        tables = RoutingState(topo, pm).build()
        left_switch = 4
        trunk_ports = pm[(left_switch, 5)]
        assert tables[left_switch][2] == ((5, tuple(trunk_ports)),)

    def test_fattree_all_hosts_reachable_from_all_switches(self):
        topo = fattree(FatTreeSpec(
            n_pods=2, tors_per_pod=2, aggs_per_pod=2, n_core=2,
            hosts_per_tor=2,
        ))
        tables = RoutingState(topo, port_map_for(topo)).build()
        for sw in topo.switches:
            assert set(tables[sw]) == set(topo.hosts)

    def test_fattree_ecmp_width(self):
        # A ToR reaching a remote pod's host should have one ECMP entry per
        # pod-local Agg.
        spec = FatTreeSpec(n_pods=2, tors_per_pod=2, aggs_per_pod=2,
                           n_core=2, hosts_per_tor=2)
        topo = fattree(spec)
        tables = RoutingState(topo, port_map_for(topo)).build()
        tor0 = topo.switch_tiers["tor"][0]
        remote_host = topo.n_hosts - 1
        group = tables[tor0][remote_host]
        assert len(group) == spec.aggs_per_pod
        peers = [peer for peer, _ in group]
        assert peers == sorted(peers)        # ascending peer id


class TestEcmp:
    def test_hash_deterministic(self):
        assert ecmp_hash(1, 2, 3) == ecmp_hash(1, 2, 3)

    def test_hash_varies_with_inputs(self):
        values = {ecmp_hash(f, 0, 1) for f in range(100)}
        assert len(values) == 100

    def test_next_hop_single_member_shortcut(self):
        assert ecmp_next_hop((9,), 123, 0, 1, 5) == 9

    def test_next_hop_is_the_salted_hash(self):
        group = (3, 5, 8)
        for f in range(50):
            assert ecmp_next_hop(group, f, 0, 1, 20) \
                == group[ecmp_hash(f, 0, 1, 20) % 3]

    def test_next_hop_stable_per_flow(self):
        group = (0, 1, 2, 3)
        choice = ecmp_next_hop(group, 42, 7, 9, 20)
        assert all(ecmp_next_hop(group, 42, 7, 9, 20) == choice
                   for _ in range(10))

    def test_next_hop_spreads_flows(self):
        group = (0, 1, 2, 3)
        counts = Counter(ecmp_next_hop(group, f, 0, 1, 20)
                         for f in range(4000))
        assert set(counts) == set(group)
        for member in group:
            assert 0.15 < counts[member] / 4000 < 0.35

    def test_forward_reverse_hash_independent(self):
        group = (0, 1)
        forward = [ecmp_next_hop(group, f, 0, 1, 20) for f in range(200)]
        reverse = [ecmp_next_hop(group, f, 1, 0, 20) for f in range(200)]
        assert forward != reverse      # directions hash independently

    def test_successive_switches_do_not_polarise(self):
        # Two 2-way choices in a row (a ToR, then an Agg): the node salt
        # makes the second independent of the first, so all four
        # combinations occur about equally.  An unsalted hash repeats
        # the first pick and uses two of the four.
        group = (0, 1)
        pairs = Counter(
            (ecmp_next_hop(group, f, 0, 1, 20), ecmp_next_hop(group, f, 0, 1, 24))
            for f in range(4000)
        )
        assert len(pairs) == 4
        for count in pairs.values():
            assert 0.2 < count / 4000 < 0.3


class TestParallelLinks:
    def test_parallel_links_both_in_ecmp(self):
        # Two parallel links between one switch pair.
        topo = Topology(
            name="par", n_hosts=2, n_switches=2,
            links=[
                LinkSpec(0, 2, 12.5, 100.0),
                LinkSpec(1, 3, 12.5, 100.0),
                LinkSpec(2, 3, 12.5, 100.0),
                LinkSpec(2, 3, 12.5, 100.0),
            ],
        )
        pm = port_map_for(topo)
        tables = RoutingState(topo, pm).build()
        # One next-hop peer, both parallel ports under it.
        assert tables[2][1] == ((3, (1, 2)),)
