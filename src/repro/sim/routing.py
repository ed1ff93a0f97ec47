"""Shortest-path routing with ECMP, the base-RTT rule, and reconvergence.

One routing view serves both engines.  :class:`ShortestPathRows` holds
hop distances over the alive subgraph an engine hands it, and at each
node the next hops toward a destination are all neighbours one hop
closer, in ascending id.  :func:`ecmp_next_hop` is the one per-flow
pick among them, for the packet switch and the fluid path walker: it
hashes ``(flow id, src, dst, node)`` over the group, so a flow's forward
and reverse directions hash independently, like a 5-tuple hash would,
and each switch salts the hash with its own id, so successive tiers do
not all make the same choice.  :func:`round_trip` prices a walked path.

:class:`RoutingState` keeps the packet tables *live*: when a link fails
or recovers mid-run it recomputes only the destination columns the
change can affect (scoped by a distance test on the link's endpoints),
updating the switches' tables in place — the incremental analogue of a
routing protocol reconverging.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from ..topology.base import Topology

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


# -- shortest-path rows and pricing ----------------------------------------------

#: Distance-row entry of a node the destination cannot be reached from.
UNREACHED = 255
#: ``bytes.translate`` table adding one hop to a distance row
#: (unreachable stays unreachable).
_PLUS_ONE = bytes(range(1, UNREACHED + 1)) + bytes([UNREACHED])


def _too_far(dst: int) -> str:
    return (
        f"node {dst} is more than {UNREACHED - 1} hops from another "
        "node: too far for one-byte distance rows"
    )


class NoRoute(ValueError):
    """No path between two nodes over the links currently up.

    A transient condition (a restore brings the route back), which is
    why the engines catch exactly this; a plain ``ValueError`` from
    :meth:`ShortestPathRows.walk` means a malformed flow.
    """


class ShortestPathRows:
    """Hop distances toward each destination over one alive subgraph.

    ``peers[node]`` is ``node``'s alive neighbours in ascending id (the
    packet engine's peers joined by an up link, the fluid engine's
    pairs with pooled capacity left).  ``row(dst)`` is a ``bytes``
    object with ``row[node]`` = ``node``'s hop count to ``dst``
    (:data:`UNREACHED` = unreachable), built on first use.  A *leaf*
    destination (exactly one alive neighbour, itself not a leaf) takes
    its neighbour's row plus one hop; every other row is a
    level-synchronous BFS over the peers flattened into CSR arrays.  On
    a FatTree every host is a leaf, so one BFS per ToR routes toward
    every host.  A link-state change makes a new object over the new
    peers; ``rows`` seeds it with the rows the change left alone.
    """

    def __init__(self, peers: list[list[int]],
                 rows: dict[int, bytes] | None = None) -> None:
        self.peers = peers
        self.n_nodes = len(peers)
        self.indptr = np.zeros(self.n_nodes + 1, dtype=np.intp)
        np.cumsum([len(p) for p in peers], out=self.indptr[1:])
        self.indices = np.fromiter(
            chain.from_iterable(peers), dtype=np.intp,
            count=int(self.indptr[-1]),
        )
        #: dst -> distance row.
        self.rows: dict[int, bytes] = dict(rows or {})

    @classmethod
    def of(cls, topology: Topology) -> "ShortestPathRows":
        """Rows over every link of ``topology``."""
        peers: list[set[int]] = [
            set() for _ in range(topology.n_hosts + topology.n_switches)]
        for link in topology.links:
            peers[link.a].add(link.b)
            peers[link.b].add(link.a)
        return cls([sorted(p) for p in peers])

    def row(self, dst: int) -> bytes:
        """``dst``'s distance row, built on first use."""
        row = self.rows.get(dst)
        if row is None:
            peers = self.peers
            around = peers[dst]
            if len(around) == 1 and len(peers[around[0]]) > 1:
                via = self.row(around[0])
                if UNREACHED - 1 in via:
                    raise ValueError(_too_far(dst))
                row = via.translate(_PLUS_ONE)
                row = row[:dst] + b"\0" + row[dst + 1:]
            else:
                row = self._bfs(dst)
            self.rows[dst] = row
        return row

    def _bfs(self, dst: int) -> bytes:
        """``dst``'s distance row by level-synchronous BFS."""
        indptr, indices = self.indptr, self.indices
        dist = np.full(self.n_nodes, UNREACHED, dtype=np.uint8)
        dist[dst] = 0
        frontier = np.array([dst], dtype=np.intp)
        for d in range(1, UNREACHED + 1):
            # Concatenate the frontier nodes' CSR slices in one gather.
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            ends = counts.cumsum()
            reached = indices[
                np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)
            ]
            reached = reached[dist[reached] == UNREACHED]
            if not reached.size:
                break
            if d == UNREACHED:
                raise ValueError(_too_far(dst))
            dist[reached] = d
            frontier = (dist == d).nonzero()[0]
        return dist.tobytes()

    def next_hops(self, node: int, row: bytes) -> list[int]:
        """``node``'s alive neighbours one hop closer to ``row``'s
        destination, in ascending id: its ECMP candidates."""
        closer = row[node] - 1
        return [peer for peer in self.peers[node] if row[peer] == closer]

    def walk(self, flow_id: int, src: int, dst: int) -> list[int]:
        """The nodes of a flow direction's ECMP path, ``src`` to ``dst``.

        At every node the next hop is :func:`ecmp_next_hop` over its
        :meth:`next_hops`, the pick a switch's table makes.  Raises
        :class:`NoRoute` while ``dst`` is unreachable from ``src``, and
        a plain ``ValueError`` naming the flow for an endpoint that is
        not a node (a negative id would otherwise index the row from
        its end).
        """
        for node in (src, dst):
            if not 0 <= node < self.n_nodes:
                raise ValueError(
                    f"flow {flow_id}: endpoint {node} is not a node of the "
                    f"topology (nodes are 0..{self.n_nodes - 1})"
                )
        row = self.row(dst)
        if row[src] == UNREACHED:
            raise NoRoute(f"no route from {src} to {dst}")
        nodes = [src]
        node = src
        while node != dst:
            node = ecmp_next_hop(self.next_hops(node, row), flow_id, src, dst,
                                 node)
            nodes.append(node)
        return nodes


def round_trip(hops: list[tuple[float, float]], mtu_wire: int,
               ack_size: int) -> float:
    """A path's uncontended round trip (footnote 1's base RTT).

    ``hops`` holds each node pair's ``(delay, rate)``: its first up
    member's, the one link a packet crosses.  The MTU frame goes out
    store-and-forward over every hop, and an ACK-sized frame comes back
    over the same hops.
    """
    forward = sum(delay + mtu_wire / rate for delay, rate in hops)
    backward = sum(delay + ack_size / rate for delay, rate in hops)
    return forward + backward


def shortest_path_delays(adj: dict, row: bytes, source: int,
                         mtu_wire: int) -> dict[int, float]:
    """One-way delay from ``source`` (propagation + per-hop MTU
    serialization) along the first shortest path found; ``adj`` is
    :meth:`Topology.adjacency` and ``row`` ``source``'s distance row
    over every link."""
    delay: dict[int, float] = {source: 0.0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for peer, link in adj[node]:
            if row[peer] == row[node] + 1 and peer not in delay:
                delay[peer] = delay[node] + link.delay + mtu_wire / link.rate
                frontier.append(peer)
    return delay


# -- incremental reconvergence -----------------------------------------------------

@dataclass
class RerouteReport:
    """What one reconvergence pass touched.

    ``dests_recomputed`` counts destination columns rebuilt (whole
    column or endpoint-scoped); ``groups_changed`` counts (switch, destination)
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
    * everything else rebuilds that destination's distance row and
      column in place.

    The distances are :class:`ShortestPathRows` over the peers joined by
    an up link; a change carries the rows of every destination it
    leaves alone over to the new rows.  Tables are updated *in place*,
    so switches that installed a table dict at build time see
    reconvergence live.
    """

    def __init__(
        self,
        topology: Topology,
        port_map: dict[tuple[int, int], list[int]],
    ) -> None:
        self.topology = topology
        self.port_map = port_map
        # node -> [(peer, link index)], in topology.links order.
        self._adj: list[list[tuple[int, int]]] = [
            [] for _ in range(topology.n_hosts + topology.n_switches)
        ]
        for idx, link in enumerate(topology.links):
            self._adj[link.a].append((link.b, idx))
            self._adj[link.b].append((link.a, idx))
        self.link_up: list[bool] = [True] * len(topology.links)
        self._link_ports: list[tuple[tuple[int, int], tuple[int, int]] | None] = (
            [None] * len(topology.links)
        )
        self._excluded: set[tuple[int, int]] = set()
        self.rows = ShortestPathRows(
            [self._alive_peers(n) for n in range(len(self._adj))])
        self.tables: dict[int, dict[int, EcmpGroup]] = {
            sw: {} for sw in topology.switches
        }

    def register_link(
        self, index: int, end_a: tuple[int, int], end_b: tuple[int, int]
    ) -> None:
        """Record the (node, port id) pair at each end of link ``index``."""
        self._link_ports[index] = (end_a, end_b)

    def first_up(self, a: int, b: int) -> int:
        """The index of the first up link between ``a`` and ``b``."""
        up = self.link_up
        return next(idx for peer, idx in self._adj[a] if peer == b and up[idx])

    # -- construction ------------------------------------------------------------

    def build(self) -> dict[int, dict[int, EcmpGroup]]:
        """Full build: every destination column."""
        for dst in self.topology.hosts:
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
        kept: dict[int, bytes] = {}
        for dst in self.topology.hosts:
            row = self.rows.row(dst)
            da, db = row[a], row[b]
            if da == db:    # on no shortest path toward dst, before or after
                kept[dst] = row
                continue
            if up and abs(da - db) == 1 and UNREACHED not in (da, db):
                kept[dst] = row             # no distance moves
                far = a if da > db else b
                if not self.topology.is_host(far):  # hosts hold no tables
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
        peers = self.rows.peers
        peers[a], peers[b] = self._alive_peers(a), self._alive_peers(b)
        self.rows = ShortestPathRows(peers, kept)

        for dst in full:
            report.dests_recomputed += 1
            self._rebuild_column(dst, report)
        for dst, switch in endpoint_only:
            report.dests_recomputed += 1
            self._rebuild_entry(switch, dst, self.rows.row(dst), report)
        return report

    # -- internals ---------------------------------------------------------------

    def _alive_peers(self, node: int) -> list[int]:
        up = self.link_up
        return sorted({peer for peer, idx in self._adj[node] if up[idx]})

    def _rebuild_column(self, dst: int, report: RerouteReport | None = None) -> None:
        row = self.rows.row(dst)
        for switch in self.topology.switches:
            self._rebuild_entry(switch, dst, row, report)

    def _rebuild_entry(
        self,
        switch: int,
        dst: int,
        row: bytes,
        report: RerouteReport | None = None,
    ) -> None:
        table = self.tables[switch]
        new: EcmpGroup = ()
        if row[switch] != UNREACHED:
            excluded = self._excluded
            new = tuple(
                (peer, tuple(p for p in self.port_map[(switch, peer)]
                             if (switch, p) not in excluded))
                for peer in self.rows.next_hops(switch, row)
            )
        if new != table.get(dst, ()):
            if new:
                table[dst] = new
            else:
                del table[dst]
            if report is not None:
                report.groups_changed += 1
                report.switches_touched.add(switch)
