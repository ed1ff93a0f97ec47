"""Shortest-path routing with ECMP, and incremental reconvergence.

Initial routing tables are computed by a BFS from every host: at each
switch, the next hops toward a destination host are all neighbours one
hop closer to it, held as an ECMP group of ``(peer, ports)`` pairs in
ascending peer id.  :func:`ecmp_next_hop` is the one per-flow ECMP rule,
shared by the packet switch and the fluid path walker: it hashes
``(flow id, src, dst, node)`` over the group, so a flow's forward and
reverse directions hash independently, like a 5-tuple hash would, and
each switch salts the hash with its own id, so successive tiers do not
all make the same choice.

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


#: ``tables[switch][dst_host]``: ``switch``'s equal-cost next hops toward
#: ``dst_host`` as ``(peer, ports)`` pairs in ascending peer id, each
#: peer's up ports in wiring order.
EcmpGroup = tuple[tuple[int, tuple[int, ...]], ...]


#: ``ecmp_hash`` memoised for the switches, which ask per packet.  One
#: entry per (flow direction, switch with a choice): a bench Figure 11
#: packet cell makes 1 040 (53k hits), the ledger's ``hybrid_fig11``
#: 1 257 with its fluid paths, so 2048 holds a whole cell; an entry
#: measures ~0.25 KiB under tracemalloc, ~0.5 MiB at most.
cached_ecmp_hash = lru_cache(maxsize=2048)(ecmp_hash)


def ecmp_next_hop(group, flow_id: int, src: int, dst: int, node: int):
    """The ECMP rule of both engines: ``node``'s pick for a flow direction.

    ``group`` holds ``node``'s equal-cost next hops in ascending peer id
    (the fluid walker's peer ids, a switch's :data:`EcmpGroup` pairs);
    the pick is ``group[ecmp_hash(flow_id, src, dst, node) % len(group)]``,
    or the only member when there is one.
    """
    if len(group) == 1:
        return group[0]
    return group[cached_ecmp_hash(flow_id, src, dst, node) % len(group)]


# -- incremental reconvergence -----------------------------------------------------

@dataclass
class RerouteReport:
    """What one reconvergence pass touched.

    ``dests_recomputed`` counts destination columns rebuilt (full BFS or
    endpoint-scoped); ``groups_changed`` counts (switch, destination)
    ECMP groups that actually changed — every flow hashed
    onto a changed group rehashes onto the new member set from its next
    packet, so this is also the reroute count the dynamics accounting
    reports.
    """

    dests_recomputed: int = 0
    groups_changed: int = 0
    switches_touched: set[int] = field(default_factory=set)


class RoutingState:
    """Live ECMP routing over a topology with mutable link state.

    Produces byte-identical tables to a from-scratch build over the
    alive subgraph at every point in time — ``tests/test_dynamics.py``
    keeps one as the oracle, and the golden determinism fixtures pin the
    forwarding — but recomputes only what a link-state change can
    affect:

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
        # node -> [(peer, link index)], in topology.links order.
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
        self.tables: dict[int, dict[int, EcmpGroup]] = {
            sw: {} for sw in topology.switches
        }

    def register_link(
        self, index: int, end_a: tuple[int, int], end_b: tuple[int, int]
    ) -> None:
        """Record the (node, port id) pair at each end of link ``index``."""
        self._link_ports[index] = (end_a, end_b)

    # -- construction ------------------------------------------------------------

    def build(self) -> dict[int, dict[int, EcmpGroup]]:
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
        new: EcmpGroup = ()
        if d is not None:
            up = self.link_up
            excluded = self._excluded
            peers = sorted({peer for peer, idx in self._adj[switch]
                            if up[idx] and dist.get(peer, -1) == d - 1})
            new = tuple(
                (peer, tuple(p for p in self.port_map[(switch, peer)]
                             if (switch, p) not in excluded))
                for peer in peers
            )
        if new != table.get(dst, ()):
            if new:
                table[dst] = new
            else:
                del table[dst]
            if report is not None:
                report.groups_changed += 1
                report.switches_touched.add(switch)
