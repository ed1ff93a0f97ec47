"""Fluid routing state: distance rows vs a dict-BFS oracle, and their cost.

:class:`~repro.fluid.state.FluidGraph` keeps each destination's hop
distances as one ``bytes`` row of
:class:`~repro.sim.routing.ShortestPathRows`, filled by a vectorised
BFS.  The oracle below is the per-destination ``dict`` + ``deque`` BFS
that layout replaced, kept here as the reference: it reads only the
graph's public ``links`` (alive = capacity > 0) and must pick the same
ECMP path for every flow, on every topology, after every dynamics
mutation.

The memory contract is pinned with ``tracemalloc`` (deterministic,
unlike RSS): routing toward all 1024 hosts of the k=16 FatTree may hold
a few bytes per (destination, node), not a dict entry.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.fluid import FluidEngine
from repro.fluid.state import FluidGraph, NoRoute
from repro.sim.flow import FlowSpec
from repro.sim.routing import ecmp_next_hop
from repro.topology import LinkSpec, Topology, dual_trunk, star
from repro.topology import testbed as make_testbed
from repro.topology.fattree import fattree_k

from tests.fluid_reference import ScalarFluidEngine

MTU_WIRE, ACK = 1048, 60


def oracle_path(graph: FluidGraph, flow_id: int, src: int, dst: int):
    """The removed dict-BFS router: ``[(a, b), ...]`` or ``None``."""
    neighbors: dict[int, list[int]] = {}
    for (a, b), link in graph.links.items():
        neighbors.setdefault(a, [])
        if link.capacity > 0.0:
            neighbors[a].append(b)
    for peers in neighbors.values():
        peers.sort()
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for peer in neighbors[node]:
            if peer not in dist:
                dist[peer] = dist[node] + 1
                frontier.append(peer)
    if src not in dist:
        return None
    hops = []
    node = src
    while node != dst:
        candidates = [
            p for p in neighbors[node] if dist.get(p, -1) == dist[node] - 1
        ]
        peer = ecmp_next_hop(candidates, flow_id, src, dst, node)
        hops.append((node, peer))
        node = peer
    return hops


def graph_path(graph: FluidGraph, flow_id: int, src: int, dst: int):
    try:
        path = graph.path(flow_id, src, dst, MTU_WIRE, ACK)
    except NoRoute:
        return None
    return [(link.a, link.b) for link in path.links]


def assert_routes_match(graph: FluidGraph, pairs) -> None:
    for flow_id, (src, dst) in enumerate(pairs):
        assert graph_path(graph, flow_id, src, dst) \
            == oracle_path(graph, flow_id, src, dst), (flow_id, src, dst)


def host_pairs(topology: Topology, stride: int = 1):
    """Every ordered host pair; ``stride`` keeps each source but only
    every ``stride``-th destination (offset by the source)."""
    hosts = list(topology.hosts)
    return [(s, d) for s in hosts for d in hosts[s % stride::stride] if s != d]


TOPOLOGIES = {
    "star": lambda: star(n_hosts=6),
    "dual_trunk": lambda: dual_trunk(n_pairs=3),
    "fattree_k4": lambda: fattree_k(4),
    "fattree_k8": lambda: fattree_k(8),
}


class TestPathIdentity:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_pair_matches_the_dict_bfs_oracle(self, name):
        topology = TOPOLOGIES[name]()
        graph = FluidGraph(topology, 1e6)
        # k=8 has 16k host pairs; every 5th destination keeps each source
        # and each pod relation while bounding the oracle's BFS count.
        assert_routes_match(
            graph, host_pairs(topology, stride=5 if name == "fattree_k8" else 1)
        )

    def test_switch_endpoints_route_too(self):
        topology = fattree_k(4)
        graph = FluidGraph(topology, 1e6)
        switches = list(topology.switches)
        assert_routes_match(graph, [(switches[0], switches[-1]),
                                    (0, switches[-1]), (switches[3], 5)])

    @settings(deadline=None, max_examples=40)
    @given(
        name=st.sampled_from(["dual_trunk", "fattree_k4"]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["fail", "restore", "degrade"]),
                st.integers(min_value=0, max_value=10_000),
                st.sampled_from([0.25, 0.5, 2.0]),
            ),
            min_size=1, max_size=12,
        ),
    )
    def test_matches_after_every_dynamics_mutation(self, name, ops):
        topology = TOPOLOGIES[name]()
        graph = FluidGraph(topology, 1e6)
        pairs = host_pairs(topology)
        for op, pick, factor in ops:
            spec = topology.links[pick % len(topology.links)]
            # Warm the rows, so a mutation that failed to invalidate
            # them would route the next round over stale distances.
            graph_path(graph, 0, *pairs[pick % len(pairs)])
            try:
                if op == "fail":
                    graph.fail_link(spec.a, spec.b)
                elif op == "restore":
                    graph.restore_link(spec.b, spec.a)
                else:
                    graph.degrade_link(spec.a, spec.b, rate_factor=factor,
                                       delay_factor=factor)
            except LookupError:
                continue                # nothing up to cut / down to restore
            assert_routes_match(graph, pairs)


class TestDynamics:
    def test_parallel_pool_survives_one_cut_and_parks_on_two(self):
        topology = dual_trunk(n_pairs=2)
        graph = FluidGraph(topology, 1e6)
        sw_a, sw_b = topology.switches
        before = graph_path(graph, 7, 0, 3)
        assert before == [(0, sw_a), (sw_a, sw_b), (sw_b, 3)]
        pooled = graph.links[(sw_a, sw_b)].capacity
        graph.fail_link(sw_a, sw_b)
        assert graph.links[(sw_a, sw_b)].capacity == pooled / 2
        assert graph_path(graph, 7, 0, 3) == before
        graph.fail_link(sw_b, sw_a)
        with pytest.raises(NoRoute):
            graph.path(7, 0, 3, MTU_WIRE, ACK)
        with pytest.raises(ValueError):     # NoRoute is a ValueError
            graph.path(7, 3, 0, MTU_WIRE, ACK)
        assert graph_path(graph, 7, 0, 1) == [(0, sw_a), (sw_a, 1)]
        graph.restore_link(sw_a, sw_b)
        assert graph_path(graph, 7, 0, 3) == before

    def test_rows_are_dropped_by_every_mutation(self):
        topology = fattree_k(4)
        graph = FluidGraph(topology, 1e6)
        original = graph_path(graph, 1, 0, 15)
        uplink = original[1]
        for mutate, takes_uplink in (
            (graph.fail_link, False),
            (graph.restore_link, True),
            (lambda a, b: graph.degrade_link(a, b, rate_factor=0.5), True),
            (lambda a, b: graph.degrade_link(a, b, rate_factor=0.0), False),
        ):
            assert graph._rows is not None and graph._rows.rows
            mutate(*uplink)
            assert graph._rows is None
            routed = graph_path(graph, 1, 0, 15)
            assert (uplink in routed) is takes_uplink
            assert routed == oracle_path(graph, 1, 0, 15)

    def test_distance_row_shape(self):
        topology = star(n_hosts=3)
        graph = FluidGraph(topology, 1e6)
        graph.fail_link(2, 3)
        row = graph.rows().row(0)
        assert isinstance(row, bytes)
        assert list(row) == [0, 2, 255, 1]      # host 2 is cut off

    @staticmethod
    def _chain(n_switches: int) -> FluidGraph:
        """host 0 - sw - sw - ... - sw - host 1: ``n_switches + 1`` hops."""
        last = 2 + n_switches - 1
        links = [LinkSpec(0, 2, 1.0, 1.0), LinkSpec(1, last, 1.0, 1.0)]
        links += [LinkSpec(sw, sw + 1, 1.0, 1.0) for sw in range(2, last)]
        return FluidGraph(Topology("chain", 2, n_switches, links), 1e6)

    @pytest.mark.parametrize("src,dst", [(0, 1), (1, 0)])
    def test_one_byte_rows_hold_254_hops_and_refuse_255(self, src, dst):
        # Both hosts are leaves: their rows derive from the end switches'.
        assert len(self._chain(253).path(0, src, dst, MTU_WIRE, ACK).links) \
            == 254
        with pytest.raises(ValueError, match=f"node {dst} is more than 254 "
                           "hops from another node") as err:
            self._chain(254).path(0, src, dst, MTU_WIRE, ACK)
        assert not isinstance(err.value, NoRoute)


def bfs_calls(graph: FluidGraph, monkeypatch) -> list[int]:
    """The destinations ``graph``'s current rows run a BFS for from now
    on."""
    calls = []
    rows = graph.rows()
    bfs = rows._bfs

    def spy(dst):
        calls.append(dst)
        return bfs(dst)

    monkeypatch.setattr(rows, "_bfs", spy)
    return calls


class TestLeafRows:
    """A single-homed destination's row is its neighbour's row + 1."""

    @pytest.mark.parametrize("name", ["star", "testbed", "fattree_k4"])
    def test_every_derived_row_equals_its_bfs_row(self, name, monkeypatch):
        topology = {**TOPOLOGIES, "testbed": make_testbed}[name]()
        graph = FluidGraph(topology, 1e6)
        calls = bfs_calls(graph, monkeypatch)
        nodes = range(topology.n_hosts + topology.n_switches)
        rows = {dst: graph.rows().row(dst) for dst in nodes}
        derived = set(nodes) - set(calls)
        assert set(topology.hosts) <= derived       # every host is a leaf
        for dst in nodes:
            assert rows[dst] == graph.rows()._bfs(dst), dst

    @staticmethod
    def _odd_graph() -> FluidGraph:
        """Host 0 dual-homed to switches 3 and 4, host 1 single-homed to
        3, and host 2 alone with switch 5 (each the other's only
        neighbour)."""
        links = [LinkSpec(a, b, 1.0, 1.0)
                 for a, b in ((0, 3), (0, 4), (1, 3), (3, 4), (2, 5))]
        return FluidGraph(Topology("odd", 3, 3, links), 1e6)

    def test_dual_homed_and_leaf_neighbour_still_bfs(self, monkeypatch):
        graph = self._odd_graph()
        calls = bfs_calls(graph, monkeypatch)
        for dst in (0, 2, 5):
            graph.rows().row(dst)
        assert calls == [0, 2, 5]
        graph.rows().row(1)
        assert calls == [0, 2, 5, 3]                # 1 derives from 3
        assert graph.rows().row(1) == graph.rows()._bfs(1)
        assert graph.rows().row(2) == bytes([255, 255, 0, 255, 255, 1])
        assert graph_path(graph, 0, 5, 2) == [(5, 2)]
        assert graph_path(graph, 0, 0, 2) is None

    def test_host_behind_a_failed_uplink_is_no_route(self, monkeypatch):
        graph = FluidGraph(star(n_hosts=3), 1e6)
        graph.fail_link(2, 3)
        calls = bfs_calls(graph, monkeypatch)
        for src, dst in ((0, 2), (2, 0)):
            with pytest.raises(NoRoute):
                graph.path(0, src, dst, MTU_WIRE, ACK)
        assert 2 in calls                           # no neighbour: a BFS
        assert graph.rows().row(2) == bytes([255, 255, 0, 255])

    def test_dual_homed_host_derives_after_losing_one_uplink(self):
        graph = self._odd_graph()
        graph.fail_link(0, 4)
        assert graph.rows().row(0) == graph.rows()._bfs(0)
        assert graph_path(graph, 0, 1, 0) == oracle_path(graph, 0, 1, 0) \
            == [(1, 3), (3, 0)]


class TestMemoryBudget:
    def test_k16_distance_cache_stays_under_4_mib(self):
        topology = fattree_k(16)
        graph = FluidGraph(topology, 1e6)
        n = topology.n_hosts
        assert n == 1024
        graph.path(0, 1, 0, MTU_WIRE, ACK)      # adjacency built untraced
        graph.rows().rows.clear()
        tracemalloc.start()
        try:
            for dst in range(n):
                graph.path(dst, (dst + n // 2) % n, dst, MTU_WIRE, ACK)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Each host row derives from its ToR's row, which is cached too:
        # one row per host plus one per ToR (k * k / 2 = 128).
        assert len(graph.rows().rows) == n + 128
        n_nodes = n + topology.n_switches
        # One byte per (destination, node) plus the bytes/dict overhead;
        # the per-destination dicts this replaced held ~37 MiB here.
        assert n * n_nodes <= held < 4 * 2**20


class TestEndpointContract:
    @pytest.mark.parametrize("src,dst,bad", [(0, 99, 99), (99, 0, 99),
                                             (-1, 2, -1), (1, -3, -3)])
    def test_graph_names_the_flow_and_the_node(self, src, dst, bad):
        graph = FluidGraph(star(n_hosts=4), 1e6)
        with pytest.raises(ValueError, match=rf"flow 41: endpoint {bad} ") as err:
            graph.path(41, src, dst, MTU_WIRE, ACK)
        assert not isinstance(err.value, NoRoute)

    @pytest.mark.parametrize("engine_cls", [FluidEngine, ScalarFluidEngine])
    @pytest.mark.parametrize("src,dst", [(0, 99), (99, 0), (-1, 2), (1, -3)])
    def test_engines_refuse_the_flow_instead_of_parking_it(
            self, engine_cls, src, dst):
        engine = engine_cls(star(n_hosts=4), cc_name="hpcc")
        with pytest.raises(ValueError, match="flow 41: endpoint"):
            engine.add_flow(FlowSpec(41, src, dst, 10_000, 0.0))
        assert not engine._starts and not engine._parked

    @pytest.mark.parametrize("engine_cls", [FluidEngine, ScalarFluidEngine])
    def test_unreachable_destination_still_parks(self, engine_cls):
        engine = engine_cls(star(n_hosts=4), cc_name="hpcc")
        engine.fail_link(2, 4)
        engine.add_flow(FlowSpec(1, 0, 2, 10_000, 0.0))
        assert not engine.run(deadline=1e6)
        assert [f.spec.flow_id for f in engine._parked] == [1]
