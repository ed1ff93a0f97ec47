"""Shortest-path routing with ECMP, and incremental reconvergence.

Initial routing tables are computed by a BFS from every host: at each
switch, the next hops toward a destination host are all neighbors one hop
closer to it.  Per-flow ECMP picks one of the equal-cost ports with a
deterministic hash of (flow id, src, dst), so the forward and reverse
directions of a flow hash independently, like a 5-tuple hash would.

:class:`RoutingState` keeps that routing *live*: when a link fails or
recovers mid-run it recomputes only the destination columns the change
can affect (scoped by a distance test on the link's endpoints), updating
the switches' tables in place — the incremental analogue of a routing
protocol reconverging, replacing the old tear-down-and-rebuild pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from ..topology.base import Topology

_INF = float("inf")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def ecmp_hash(*keys: int) -> int:
    """Deterministic (cross-run, cross-platform) integer mix.

    FNV-1a accumulation plus a murmur-style avalanche finalizer: plain FNV
    leaves the low bit a commutative XOR of the inputs, which would send a
    flow's forward and reverse directions to the same 2-way ECMP member.
    """
    h = _FNV_OFFSET
    for key in keys:
        h ^= key & 0xFFFFFFFFFFFFFFFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 33
    return h


def bfs_distances(topology: Topology, source: int) -> dict[int, int]:
    """Hop distance from every node to ``source``."""
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


def shortest_path_delays(topology: Topology, source: int, mtu_wire: int) -> dict[int, float]:
    """One-way delay estimate (propagation + per-hop MTU serialization)."""
    adj = topology.adjacency()
    dist = bfs_distances(topology, source)
    delay: dict[int, float] = {source: 0.0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for peer, link in adj[node]:
            if dist.get(peer, -1) == dist[node] + 1 and peer not in delay:
                delay[peer] = delay[node] + link.delay + mtu_wire / link.rate
                frontier.append(peer)
    return delay


def build_routing_tables(
    topology: Topology,
    port_map: dict[tuple[int, int], list[int]],
    excluded_ports: set[tuple[int, int]] | None = None,
) -> dict[int, dict[int, tuple[int, ...]]]:
    """Compute per-switch ECMP routing tables.

    ``port_map[(node, peer)]`` lists the local port ids on ``node`` that
    attach to ``peer`` (parallel links give several); ``excluded_ports``
    removes (node, port) pairs whose link is down, so reconvergence after
    a failure steers ECMP around the cut.  Returns
    ``tables[switch][dst_host] = (out_port, ...)``.
    """
    adj = topology.adjacency()
    excluded = excluded_ports or set()
    tables: dict[int, dict[int, tuple[int, ...]]] = {
        s: {} for s in topology.switches
    }
    for dst in topology.hosts:
        dist = bfs_distances(topology, dst)
        for switch in topology.switches:
            if switch not in dist:
                continue
            ports: list[int] = []
            for peer, _ in adj[switch]:
                if dist.get(peer, -1) == dist[switch] - 1:
                    ports.extend(
                        p for p in port_map[(switch, peer)]
                        if (switch, p) not in excluded
                    )
            if ports:
                # De-duplicate parallel-link entries while keeping order.
                seen: dict[int, None] = dict.fromkeys(ports)
                tables[switch][dst] = tuple(seen)
    return tables


#: ``ecmp_hash`` memoised for the switches, which ask per packet while a
#: run has a few hundred live flow directions (an entry measures ~0.2 KiB
#: under tracemalloc, so 1024 bounds the cache at ~0.2 MiB).  ``ecmp_hash``
#: itself stays uncached: the fluid path picker hashes each ``(flow, src,
#: dst, node)`` once, so a cache there only costs memory.
_flow_direction_hash = lru_cache(maxsize=1024)(ecmp_hash)


def ecmp_select(ports: tuple[int, ...], flow_id: int, src: int, dst: int) -> int:
    """Pick the ECMP member port for a flow direction."""
    if len(ports) == 1:
        return ports[0]
    return ports[_flow_direction_hash(flow_id, src, dst) % len(ports)]


# -- incremental reconvergence -----------------------------------------------------

@dataclass
class RerouteReport:
    """What one reconvergence pass touched.

    ``dests_recomputed`` counts destination columns rebuilt (full BFS or
    endpoint-scoped); ``groups_changed`` counts (switch, destination)
    ECMP groups whose port tuple actually changed — every flow hashed
    onto a changed group rehashes onto the new member set from its next
    packet, so this is also the reroute count the dynamics accounting
    reports.
    """

    dests_recomputed: int = 0
    groups_changed: int = 0
    switches_touched: set[int] = field(default_factory=set)


class RoutingState:
    """Live ECMP routing over a topology with mutable link state.

    Produces byte-identical tables to :func:`build_routing_tables` on the
    alive subgraph at every point in time — the golden determinism
    fixtures pin that equivalence — but recomputes only what a link-state
    change can affect:

    * a change whose endpoints are *equidistant* from a destination lies
      on none of that destination's shortest paths: skipped outright;
    * restoring a link whose endpoints differ by exactly one hop adds a
      DAG edge at the farther endpoint without moving any distance: only
      that one (switch, destination) entry is rebuilt;
    * everything else reruns one BFS per affected destination and
      rebuilds that destination's column in place.

    Tables are updated *in place*, so switches that installed a table
    dict at build time see reconvergence live.
    """

    def __init__(
        self,
        topology: Topology,
        port_map: dict[tuple[int, int], list[int]],
    ) -> None:
        self.topology = topology
        self.port_map = port_map
        # node -> [(peer, link index)], in topology.links order — the same
        # iteration order Topology.adjacency() yields, which fixes the ECMP
        # member order inside each rebuilt group.
        self._adj: dict[int, list[tuple[int, int]]] = {
            n: [] for n in range(topology.n_hosts + topology.n_switches)
        }
        for idx, link in enumerate(topology.links):
            self._adj[link.a].append((link.b, idx))
            self._adj[link.b].append((link.a, idx))
        self.link_up: list[bool] = [True] * len(topology.links)
        self._link_ports: list[tuple[tuple[int, int], tuple[int, int]] | None] = (
            [None] * len(topology.links)
        )
        self._excluded: set[tuple[int, int]] = set()
        self._dist: dict[int, dict[int, int]] = {}
        self.tables: dict[int, dict[int, tuple[int, ...]]] = {
            sw: {} for sw in topology.switches
        }

    def register_link(
        self, index: int, end_a: tuple[int, int], end_b: tuple[int, int]
    ) -> None:
        """Record the (node, port id) pair at each end of link ``index``."""
        self._link_ports[index] = (end_a, end_b)

    # -- construction ------------------------------------------------------------

    def build(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """Full build: every destination column, distances cached."""
        for dst in self.topology.hosts:
            self._dist[dst] = self._bfs(dst)
            self._rebuild_column(dst)
        return self.tables

    # -- reconvergence -----------------------------------------------------------

    def set_link_state(self, index: int, up: bool) -> RerouteReport:
        """Flip one link in the routing view and reconverge (scoped).

        Idempotent: flipping to the current state is a no-op report.
        """
        report = RerouteReport()
        if self.link_up[index] == up:
            return report
        spec = self.topology.links[index]
        a, b = spec.a, spec.b
        # Plan against PRE-change distances, then flip, then recompute.
        full: list[int] = []
        endpoint_only: list[tuple[int, int]] = []     # (dst, switch)
        for dst in self.topology.hosts:
            dist = self._dist[dst]
            da = dist.get(a, _INF)
            db = dist.get(b, _INF)
            if da == db:
                continue        # on no shortest path toward dst, before or after
            if up and abs(da - db) == 1:
                far = a if da > db else b
                if self.topology.is_host(far):
                    continue    # hosts hold no tables, and distances don't move
                endpoint_only.append((dst, far))
            else:
                full.append(dst)

        self.link_up[index] = up
        ends = self._link_ports[index]
        if ends is not None:
            if up:
                self._excluded.discard(ends[0])
                self._excluded.discard(ends[1])
            else:
                self._excluded.add(ends[0])
                self._excluded.add(ends[1])

        for dst in full:
            self._dist[dst] = self._bfs(dst)
            report.dests_recomputed += 1
            self._rebuild_column(dst, report)
        for dst, switch in endpoint_only:
            report.dests_recomputed += 1
            self._rebuild_entry(switch, dst, self._dist[dst], report)
        return report

    # -- internals ---------------------------------------------------------------

    def _bfs(self, dst: int) -> dict[int, int]:
        """Hop distances to ``dst`` over the links currently up."""
        adj = self._adj
        up = self.link_up
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            d = dist[node] + 1
            for peer, idx in adj[node]:
                if up[idx] and peer not in dist:
                    dist[peer] = d
                    frontier.append(peer)
        return dist

    def _rebuild_column(self, dst: int, report: RerouteReport | None = None) -> None:
        dist = self._dist[dst]
        for switch in self.topology.switches:
            self._rebuild_entry(switch, dst, dist, report)

    def _rebuild_entry(
        self,
        switch: int,
        dst: int,
        dist: dict[int, int],
        report: RerouteReport | None = None,
    ) -> None:
        table = self.tables[switch]
        d = dist.get(switch)
        ports: list[int] = []
        if d is not None:
            up = self.link_up
            excluded = self._excluded
            for peer, idx in self._adj[switch]:
                if up[idx] and dist.get(peer, -1) == d - 1:
                    ports.extend(
                        p for p in self.port_map[(switch, peer)]
                        if (switch, p) not in excluded
                    )
        if ports:
            new = tuple(dict.fromkeys(ports))
            if table.get(dst) != new:
                table[dst] = new
                if report is not None:
                    report.groups_changed += 1
                    report.switches_touched.add(switch)
        elif dst in table:
            del table[dst]
            if report is not None:
                report.groups_changed += 1
                report.switches_touched.add(switch)
