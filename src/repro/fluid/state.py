"""Fluid network state: directed links, flow paths, the routed graph.

The fluid backend abandons packets entirely.  A :class:`FluidLink` is a
directed edge carrying an *aggregate byte rate*; its egress queue is a
real number integrated forward in time (``q += (arrival - capacity) x
dt``), and its cumulative ``tx_bytes``/``rx_bytes`` counters are exactly
the registers an INT-capable switch would expose — which is how the HPCC
adapter computes Eqn (2)'s ``qlen``/``txRate`` inputs analytically
instead of reading them off packet telemetry.

Two representations of the same registers coexist:

* the **object view** (:class:`FluidLink`) — one Python object per
  directed edge, the stable surface the dynamics subsystem mutates and
  tests introspect;
* the **array view** (:class:`LinkArrays`) — a struct-of-arrays block
  (one numpy vector per register, indexed by :attr:`FluidLink.index`)
  that the vectorized engine steps.  The engine owns the arrays while
  stepping and synchronizes with the objects at event boundaries
  (``pull``/``push``), so both views always agree whenever non-engine
  code can observe them.

Paths are chosen with the same deterministic ECMP-by-hash discipline as
the packet simulator: at every switch the next hop is drawn from the
neighbours one BFS hop closer to the destination, keyed by ``(flow_id,
src, dst, node)``.  Parallel links between the same node pair are
aggregated into one fluid link with the summed capacity — fluid rates
have no notion of per-member hashing.

Routing state is compact.  Per topology version the graph holds one
CSR adjacency of the *alive* subgraph (links with capacity > 0) and, per
destination routed so far, one **distance row**: a ``bytes`` object of
length ``n_nodes`` whose entry ``row[node]`` is ``node``'s hop count to
that destination (255 = unreachable).  A *leaf* destination — exactly
one alive neighbour, itself not a leaf — can only be reached through
that neighbour, so its row is the neighbour's row plus one hop (a
``bytes.translate``); every other row is filled by a level-synchronous
BFS over the CSR arrays.  On a FatTree every host is a leaf, so the k=16
tier runs 128 BFS passes (one per ToR) instead of 1024.  Rows are built
lazily on the first :meth:`FluidGraph.path` toward a destination and
cost one byte per node: the k=16 FatTree's 1024 host rows plus the 128
ToR rows they derive from hold 1152 x 1344 bytes = 1.5 MiB, and k=32's
8192 + 512 rows 79 MiB (a ``dict`` per destination, the layout before
rows, took 37 MiB and ~2 GiB respectively).

The graph is *live*: the network-dynamics subsystem fails, restores and
degrades individual link members mid-run.  Pooled capacities move,
every distance row and the CSR adjacency are dropped
(:meth:`FluidGraph.invalidate`, called by each mutation), and subsequent
:meth:`FluidGraph.path` calls route over the alive subgraph only — the
fluid analogue of routing reconvergence (the engine decides *when* to
recompute paths, honouring the timeline's detection delay).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..sim.routing import ecmp_hash
from ..topology.base import Topology

__all__ = ["FluidGraph", "FluidLink", "FluidPath", "LinkArrays", "NoRoute"]

#: Distance-row entry of a node the destination cannot be reached from.
_UNREACHED = 255
#: ``bytes.translate`` table adding one hop to a distance row
#: (unreachable stays unreachable).
_PLUS_ONE = bytes(range(1, _UNREACHED + 1)) + bytes([_UNREACHED])


def _too_far(dst: int) -> str:
    return (
        f"node {dst} is more than {_UNREACHED - 1} hops from another "
        "node: too far for one-byte distance rows"
    )


class NoRoute(ValueError):
    """No path between two nodes over the links currently up.

    A transient condition (a restore brings the route back), which is
    why the engines catch exactly this and park the flow; a plain
    ``ValueError`` from :meth:`FluidGraph.path` means a malformed flow.
    """


class _Member:
    """One physical link of a (possibly parallel) node pair."""

    __slots__ = ("rate", "delay", "up")

    def __init__(self, rate: float, delay: float) -> None:
        self.rate = rate
        self.delay = delay
        self.up = True


class FluidLink:
    """One directed edge of the fluid network.

    ``queue`` only ever grows on switch egress (``is_switch_egress``);
    a host's own uplink is paced at the source, so oversubscription
    there is resolved by rate throttling, not queueing — mirroring the
    packet NIC, which never contributes INT hops either.

    ``capacity`` is the pooled rate of the pair's *up* members; a fully
    failed edge keeps its object (flows still pointing at it throttle to
    zero until the engine recomputes their paths) with capacity 0.

    ``label`` is precomputed (it used to be a per-call f-string
    property, which sat on the queue-sampling hot path) and ``index``
    is the link's fixed row in :class:`LinkArrays`.
    """

    __slots__ = (
        "a", "b", "capacity", "delay", "is_switch_egress", "buffer_bytes",
        "queue", "tx_bytes", "rx_bytes", "dropped_bytes", "label", "index",
        # The test oracle (tests/fluid_reference.py) integrates on these
        # objects and keeps its per-step scratch registers on them.
        "__dict__",
    )

    def __init__(
        self,
        a: int,
        b: int,
        capacity: float,
        delay: float,
        is_switch_egress: bool,
        buffer_bytes: float,
    ) -> None:
        self.a = a
        self.b = b
        self.capacity = capacity        # bytes/ns (pooled over up members)
        self.delay = delay              # propagation, ns
        self.is_switch_egress = is_switch_egress
        self.buffer_bytes = buffer_bytes
        self.queue = 0.0                # bytes
        self.tx_bytes = 0.0             # cumulative bytes emitted
        self.rx_bytes = 0.0             # cumulative bytes offered
        self.dropped_bytes = 0.0        # fluid lost to overflow or link cuts
        self.label = f"sw{a}->{b}"
        self.index = -1                 # row in LinkArrays, set by the graph

    def queue_delay(self) -> float:
        if self.capacity <= 0.0:
            return 0.0              # dead edge: queue was flushed at the cut
        return self.queue / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FluidLink({self.a}->{self.b} cap={self.capacity:.3f}B/ns "
            f"q={self.queue:.0f})"
        )


class FluidPath:
    """A flow's route at one instant: the links it loads, plus latency.

    Two fields only: a flow keeps its path from ``add_flow`` until it
    finishes, so a sweep's pending populations hold one per flow.
    """

    __slots__ = ("links", "base_rtt")

    def __init__(self, links: list[FluidLink], mtu_wire: int, ack_size: int) -> None:
        self.links = links
        # Uncontended round trip: full-MTU store-and-forward out, an
        # ACK-sized frame back — the ``Network.pair_base_rtt`` formula.
        forward = sum(l.delay + mtu_wire / l.capacity for l in links)
        backward = sum(l.delay + ack_size / l.capacity for l in links)
        self.base_rtt = forward + backward

    @property
    def int_links(self) -> list[FluidLink]:
        """The links that stamp INT telemetry: switch egress ports only,
        exactly as in the packet simulator (hosts do not append hops)."""
        return [l for l in self.links if l.is_switch_egress]

    def queue_delay(self) -> float:
        return sum(l.queue_delay() for l in self.links)


class LinkArrays:
    """Struct-of-arrays view of every directed link's hot registers.

    Row ``i`` belongs to ``graph.link_list[i]`` (``link.index == i``).
    The vectorized engine steps these vectors directly; ``pull`` refreshes
    them from the object view (after dynamics mutated capacities or
    flushed queues) and ``push`` writes the integrated state back so the
    object view — dynamics accounting, tests, ``total_queued_bytes`` —
    observes what the arrays computed.
    """

    __slots__ = ("links", "n", "capacity", "queue", "tx", "rx", "dropped",
                 "egress", "buffer")

    def __init__(self, links: list[FluidLink]) -> None:
        self.links = links
        self.n = len(links)
        self.egress = np.array([l.is_switch_egress for l in links], dtype=bool)
        self.buffer = np.array([l.buffer_bytes for l in links])
        self.capacity = np.empty(self.n)
        self.queue = np.empty(self.n)
        self.tx = np.empty(self.n)
        self.rx = np.empty(self.n)
        self.dropped = np.empty(self.n)
        self.pull()

    def pull(self) -> None:
        """Refresh every register from the object view."""
        for i, l in enumerate(self.links):
            self.capacity[i] = l.capacity
            self.queue[i] = l.queue
            self.tx[i] = l.tx_bytes
            self.rx[i] = l.rx_bytes
            self.dropped[i] = l.dropped_bytes

    def push(self) -> None:
        """Write the integrated registers back to the object view."""
        queue = self.queue.tolist()
        tx = self.tx.tolist()
        rx = self.rx.tolist()
        dropped = self.dropped.tolist()
        for i, l in enumerate(self.links):
            l.queue = queue[i]
            l.tx_bytes = tx[i]
            l.rx_bytes = rx[i]
            l.dropped_bytes = dropped[i]


class FluidGraph:
    """The routed fluid network built from a :class:`Topology`."""

    def __init__(self, topology: Topology, buffer_bytes: float) -> None:
        self.topology = topology
        self.links: dict[tuple[int, int], FluidLink] = {}
        # Undirected member lists keyed like ``links`` (both directions
        # share the list object, so one state flip moves both).
        self._members: dict[tuple[int, int], list[_Member]] = {}
        for spec in topology.links:
            member = _Member(spec.rate, spec.delay)
            for a, b in ((spec.a, spec.b), (spec.b, spec.a)):
                existing = self._members.get((a, b))
                if existing is not None:
                    existing.append(member)
                    self.links[(a, b)].capacity += spec.rate   # parallel pool
                else:
                    self._members[(a, b)] = [member]
                    self.links[(a, b)] = FluidLink(
                        a, b, spec.rate, spec.delay,
                        is_switch_egress=not topology.is_host(a),
                        buffer_bytes=buffer_bytes,
                    )
        # Fix the duplicated member list: both directions must share one.
        for spec in topology.links:
            self._members[(spec.b, spec.a)] = self._members[(spec.a, spec.b)]
        #: Fixed enumeration of the directed links; ``link.index`` is the
        #: row every :class:`LinkArrays` register uses for this link.
        self.link_list: list[FluidLink] = list(self.links.values())
        for i, link in enumerate(self.link_list):
            link.index = i
        self._egress_links: list[FluidLink] = [
            l for l in self.link_list if l.is_switch_egress
        ]
        self._n_nodes = topology.n_hosts + topology.n_switches
        self._neighbors: list[list[int]] = [[] for _ in range(self._n_nodes)]
        for a, b in self.links:
            self._neighbors[a].append(b)
        #: dst -> distance row (see the module docstring).
        self._dist_rows: dict[int, bytes] = {}
        #: ``(peers, indptr, indices)`` of the alive subgraph, or ``None``
        #: until :meth:`_alive_adjacency` next builds it.
        self._adjacency = None

    def link_arrays(self) -> LinkArrays:
        """A fresh struct-of-arrays block over :attr:`link_list`."""
        return LinkArrays(self.link_list)

    # -- dynamics ----------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the routing caches (after any member state change)."""
        self._dist_rows.clear()
        self._adjacency = None

    def _refresh_pair(self, a: int, b: int) -> None:
        members = self._members[(a, b)]
        capacity = sum(m.rate for m in members if m.up)
        up = [m for m in members if m.up]
        delay = up[0].delay if up else self.links[(a, b)].delay
        for key in ((a, b), (b, a)):
            link = self.links[key]
            link.capacity = capacity
            link.delay = delay

    def _flush_share(self, a: int, b: int, fraction: float) -> float:
        """Flush ``fraction`` of both directions' queues to drops.

        The fluid analogue of packets already serialized toward a cut
        fiber: the share of queued fluid attributable to the failed
        member is lost, not re-queued.
        """
        flushed = 0.0
        for key in ((a, b), (b, a)):
            link = self.links[key]
            if link.queue <= 0.0:
                continue
            lost = link.queue * fraction
            link.dropped_bytes += lost
            link.queue -= lost
            flushed += lost
        return flushed

    def fail_link(self, a: int, b: int) -> float:
        """Cut one up member of the pair; returns the bytes flushed."""
        members = self._members.get((a, b))
        if not members:
            raise LookupError(f"no link between {a} and {b}")
        old_capacity = self.links[(a, b)].capacity
        member = next((m for m in members if m.up), None)
        if member is None:
            raise LookupError(f"no up link between {a} and {b}")
        member.up = False
        flushed = 0.0
        if old_capacity > 0.0:
            flushed = self._flush_share(a, b, member.rate / old_capacity)
        self._refresh_pair(a, b)
        self.invalidate()
        return flushed

    def restore_link(self, a: int, b: int) -> None:
        """Bring the oldest failed member of the pair back up."""
        members = self._members.get((a, b))
        if not members:
            raise LookupError(f"no link between {a} and {b}")
        member = next((m for m in members if not m.up), None)
        if member is None:
            raise LookupError(f"no down link between {a} and {b}")
        member.up = True
        self._refresh_pair(a, b)
        self.invalidate()

    def degrade_link(
        self,
        a: int,
        b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> None:
        """Scale the first up member's rate and/or delay in place."""
        members = self._members.get((a, b))
        if not members:
            raise LookupError(f"no link between {a} and {b}")
        member = next((m for m in members if m.up), None)
        if member is None:
            raise LookupError(f"no up link between {a} and {b}")
        if rate_factor is not None:
            member.rate *= rate_factor
        if delay_factor is not None:
            member.delay *= delay_factor
        self._refresh_pair(a, b)
        self.invalidate()

    # -- routing -----------------------------------------------------------------

    def _alive_adjacency(self) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
        """The alive subgraph, rebuilt lazily per topology version.

        ``peers[node]`` is the node's sorted alive neighbours as a list
        (what ECMP selection iterates); ``indptr``/``indices`` are the
        same lists flattened into CSR arrays (what the BFS gathers).
        """
        adjacency = self._adjacency
        if adjacency is None:
            links = self.links
            peers = [
                sorted(p for p in around if links[(node, p)].capacity > 0.0)
                for node, around in enumerate(self._neighbors)
            ]
            indptr = np.zeros(self._n_nodes + 1, dtype=np.intp)
            np.cumsum([len(p) for p in peers], out=indptr[1:])
            indices = np.fromiter(
                chain.from_iterable(peers), dtype=np.intp, count=int(indptr[-1])
            )
            adjacency = self._adjacency = (peers, indptr, indices)
        return adjacency

    def _distances(self, dst: int) -> bytes:
        """``dst``'s distance row, built on first use.

        A leaf — a destination with exactly one alive neighbour, itself
        not a leaf — is reached through that neighbour only, so its row
        is the neighbour's row plus one hop (0 at the leaf itself).
        Every other row comes from a BFS.
        """
        row = self._dist_rows.get(dst)
        if row is None:
            peers = self._alive_adjacency()[0]
            around = peers[dst]
            if len(around) == 1 and len(peers[around[0]]) > 1:
                via = self._distances(around[0])
                if _UNREACHED - 1 in via:
                    raise ValueError(_too_far(dst))
                row = via.translate(_PLUS_ONE)
                row = row[:dst] + b"\0" + row[dst + 1:]
            else:
                row = self._bfs(dst)
            self._dist_rows[dst] = row
        return row

    def _bfs(self, dst: int) -> bytes:
        """``dst``'s distance row by level-synchronous BFS."""
        _, indptr, indices = self._alive_adjacency()
        dist = np.full(self._n_nodes, _UNREACHED, dtype=np.uint8)
        dist[dst] = 0
        frontier = np.array([dst], dtype=np.intp)
        for d in range(1, _UNREACHED + 1):
            # Concatenate the frontier nodes' CSR slices in one gather.
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            ends = counts.cumsum()
            reached = indices[
                np.arange(ends[-1]) + (starts - ends + counts).repeat(counts)
            ]
            reached = reached[dist[reached] == _UNREACHED]
            if not reached.size:
                break
            if d == _UNREACHED:
                raise ValueError(_too_far(dst))
            dist[reached] = d
            frontier = (dist == d).nonzero()[0]
        return dist.tobytes()

    def path(self, flow_id: int, src: int, dst: int,
             mtu_wire: int, ack_size: int) -> FluidPath:
        """The flow's ECMP route over the links currently up.

        Raises :class:`NoRoute` while ``dst`` is unreachable from
        ``src``, and a plain ``ValueError`` naming the flow for an
        endpoint that is not a node of the topology (a negative id
        would otherwise index the distance row from its end).
        """
        for node in (src, dst):
            if not 0 <= node < self._n_nodes:
                raise ValueError(
                    f"flow {flow_id}: endpoint {node} is not a node of the "
                    f"topology (nodes are 0..{self._n_nodes - 1})"
                )
        dist = self._distances(dst)
        if dist[src] == _UNREACHED:
            raise NoRoute(f"no route from {src} to {dst}")
        peers = self._alive_adjacency()[0]
        links: list[FluidLink] = []
        node = src
        while node != dst:
            d_next = dist[node] - 1
            candidates = [peer for peer in peers[node] if dist[peer] == d_next]
            if not candidates:
                raise NoRoute(f"no route from {src} to {dst} at {node}")
            if len(candidates) == 1:
                peer = candidates[0]
            else:
                peer = candidates[
                    ecmp_hash(flow_id, src, dst, node) % len(candidates)
                ]
            links.append(self.links[(node, peer)])
            node = peer
        return FluidPath(links, mtu_wire, ack_size)

    # -- introspection -----------------------------------------------------------

    def switch_egress_links(self) -> list[FluidLink]:
        """Every switch-egress link (cached; membership never changes)."""
        return self._egress_links

    def total_queued_bytes(self) -> dict[int, float]:
        """Bytes queued per switch (mirrors ``switch_queued_bytes``)."""
        queued: dict[int, float] = {}
        for link in self.link_list:
            if link.is_switch_egress and link.queue > 0:
                queued[link.a] = queued.get(link.a, 0.0) + link.queue
        return queued
