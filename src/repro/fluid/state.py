"""Fluid network state: directed links, flow paths, the routed graph.

The fluid backend abandons packets entirely.  A :class:`FluidLink` is a
directed edge carrying an *aggregate byte rate*; its egress queue is a
real number integrated forward in time (``q += (arrival - capacity) x
dt``), and its cumulative ``tx_bytes``/``rx_bytes`` counters are exactly
the registers an INT-capable switch would expose — which is how the HPCC
adapter computes Eqn (2)'s ``qlen``/``txRate`` inputs analytically
instead of reading them off packet telemetry.

The registers have one home, the :class:`LinkArrays` block the graph
builds at construction: one numpy vector per register, row
:attr:`FluidLink.index` per link, which the vectorized engine steps in
place.  A :class:`FluidLink`'s ``capacity``, ``queue``, ``tx_bytes``,
``rx_bytes`` and ``dropped_bytes`` read and write its row of that block
as Python floats, so the dynamics mutators below, tests and the scalar
oracle (``tests/fluid_reference.py``) see what the engine integrated,
and the engine sees what they changed, with nothing to synchronize.

Paths follow the routing view both engines share
(:class:`~repro.sim.routing.ShortestPathRows`): at every node the next
hop is :func:`~repro.sim.routing.ecmp_next_hop` over the neighbours one
hop closer to the destination, in ascending id, keyed by ``(flow_id,
src, dst, node)`` — so both engines route a flow over the same nodes,
and :func:`~repro.sim.routing.round_trip` prices it on both.  Parallel
links between the same node pair are aggregated into one fluid link
with the summed capacity — fluid rates have no notion of per-member
hashing — but a path is priced at the pair's first up member, the one
link a packet crosses.

Per topology version the graph holds one set of rows over the *alive*
subgraph (pairs with capacity > 0), filled lazily on the first
:meth:`FluidGraph.path` toward a destination, one byte per node per
row: the k=16 FatTree's 1024 host rows plus the 128 ToR rows they
derive from hold 1152 x 1344 bytes = 1.5 MiB, and k=32's 8192 + 512
rows 79 MiB (a ``dict`` per destination, the layout before rows, took
37 MiB and ~2 GiB respectively).

The graph is *live*: the network-dynamics subsystem fails, restores and
degrades individual link members mid-run.  Pooled capacities move, the
rows are dropped (:meth:`FluidGraph.invalidate`, called by each
mutation), and subsequent :meth:`FluidGraph.path` calls route over the
alive subgraph only — the fluid analogue of routing reconvergence (the
engine decides *when* to recompute paths, honouring the timeline's
detection delay).
"""

from __future__ import annotations

import numpy as np

from ..sim.routing import NoRoute, ShortestPathRows, round_trip
from ..topology.base import Topology

__all__ = ["FluidGraph", "FluidLink", "FluidPath", "LinkArrays", "NoRoute"]


class _Member:
    """One physical link of a (possibly parallel) node pair.

    It is the outage handle the engine's ``fail_link`` and
    ``restore_link`` return: ``packets_lost_down`` is its last cut's
    casualty estimate, which :meth:`FluidEngine.fail_link
    <repro.fluid.engine.FluidEngine.fail_link>` sets.
    """

    __slots__ = ("rate", "delay", "up", "packets_lost_down")

    def __init__(self, rate: float, delay: float) -> None:
        self.rate = rate
        self.delay = delay
        self.up = True
        self.packets_lost_down = 0


class _Register:
    """A :class:`FluidLink` register: the link's entry of one
    :class:`LinkArrays` vector, read as a Python float."""

    __slots__ = ("vector",)

    def __init__(self, vector: str) -> None:
        self.vector = vector

    def __get__(self, link, owner=None):
        if link is None:
            return self
        return getattr(link.arrays, self.vector).item(link.index)

    def __set__(self, link, value: float) -> None:
        getattr(link.arrays, self.vector)[link.index] = value


class FluidLink:
    """One directed edge of the fluid network.

    ``queue`` only ever grows on switch egress (``is_switch_egress``);
    a host's own uplink is paced at the source, so oversubscription
    there is resolved by rate throttling, not queueing — mirroring the
    packet NIC, which never contributes INT hops either.

    ``capacity`` is the pooled rate of the pair's *up* members; a fully
    failed edge keeps its object (flows still pointing at it throttle to
    zero until the engine recomputes their paths) with capacity 0.

    The five registers live in row ``index`` of the graph's
    :class:`LinkArrays` block (``arrays``); the link holds the block,
    not the graph, so the two form no reference cycle.
    """

    __slots__ = (
        "arrays", "index", "a", "b", "member", "is_switch_egress",
        "buffer_bytes",
        # The test oracle (tests/fluid_reference.py) integrates on these
        # objects and keeps its per-step scratch registers on them.
        "__dict__",
    )

    capacity = _Register("capacity")    # bytes/ns (pooled over up members)
    queue = _Register("queue")          # bytes
    tx_bytes = _Register("tx")          # cumulative bytes emitted
    rx_bytes = _Register("rx")          # cumulative bytes offered
    dropped_bytes = _Register("dropped")  # lost to overflow or link cuts

    def __init__(
        self,
        arrays: "LinkArrays",
        index: int,
        a: int,
        b: int,
        member: _Member,
        is_switch_egress: bool,
        buffer_bytes: float,
    ) -> None:
        self.arrays = arrays
        self.index = index
        self.a = a
        self.b = b
        #: The pair's first up member: the one link a packet crosses,
        #: which prices the hop (:func:`~repro.sim.routing.round_trip`).
        self.member = member
        self.is_switch_egress = is_switch_egress
        self.buffer_bytes = buffer_bytes

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

    def __init__(self, links: list[FluidLink], base_rtt: float) -> None:
        self.links = links
        self.base_rtt = base_rtt

    @property
    def int_links(self) -> list[FluidLink]:
        """The links that stamp INT telemetry: switch egress ports only,
        exactly as in the packet simulator (hosts do not append hops)."""
        return [l for l in self.links if l.is_switch_egress]

    def queue_delay(self) -> float:
        return sum(l.queue_delay() for l in self.links)


class LinkArrays:
    """Every directed link's registers, one numpy vector each.

    Row ``i`` belongs to ``graph.link_list[i]`` (``link.index == i``).
    ``capacity``, ``queue``, ``tx``, ``rx`` and ``dropped`` are the
    live registers: the engine steps them in place and the link objects
    read and write them (see :class:`FluidLink`).  ``egress`` and
    ``buffer`` are static.  A multi-cell ``FluidBatch`` rebinds each
    vector to the cell's slice of the batch's, so the links then read
    the batch's registers.
    """

    __slots__ = ("n", "capacity", "queue", "tx", "rx", "dropped",
                 "egress", "buffer")

    def __init__(self, capacity: list[float], egress: list[bool],
                 buffer_bytes: float) -> None:
        self.n = n = len(capacity)
        self.capacity = np.array(capacity, dtype=float)
        self.queue = np.zeros(n)
        self.tx = np.zeros(n)
        self.rx = np.zeros(n)
        self.dropped = np.zeros(n)
        self.egress = np.array(egress, dtype=bool)
        self.buffer = np.full(n, buffer_bytes, dtype=float)


class FluidGraph:
    """The routed fluid network built from a :class:`Topology`."""

    def __init__(self, topology: Topology, buffer_bytes: float) -> None:
        self.topology = topology
        # Undirected member lists keyed by directed pair (both directions
        # share the list object, so one state flip moves both), and each
        # pair's pooled capacity.
        self._members: dict[tuple[int, int], list[_Member]] = {}
        pooled: dict[tuple[int, int], float] = {}
        for spec in topology.links:
            member = _Member(spec.rate, spec.delay)
            for a, b in ((spec.a, spec.b), (spec.b, spec.a)):
                existing = self._members.get((a, b))
                if existing is not None:
                    existing.append(member)
                    pooled[(a, b)] += spec.rate     # parallel pool
                else:
                    self._members[(a, b)] = [member]
                    pooled[(a, b)] = spec.rate
        # Fix the duplicated member list: both directions must share one.
        for spec in topology.links:
            self._members[(spec.b, spec.a)] = self._members[(spec.a, spec.b)]
        egress = [not topology.is_host(a) for a, _ in pooled]
        #: The link registers (see :class:`LinkArrays`).
        self.arrays = LinkArrays(list(pooled.values()), egress, buffer_bytes)
        self.links: dict[tuple[int, int], FluidLink] = {
            pair: FluidLink(self.arrays, i, *pair, self._members[pair][0],
                            egress[i], buffer_bytes)
            for i, pair in enumerate(pooled)
        }
        #: Fixed enumeration of the directed links, in register row order.
        self.link_list: list[FluidLink] = list(self.links.values())
        self._egress_links: list[FluidLink] = [
            l for l in self.link_list if l.is_switch_egress
        ]
        self._neighbors: list[list[int]] = [
            [] for _ in range(topology.n_hosts + topology.n_switches)]
        for a, b in self.links:
            self._neighbors[a].append(b)
        #: The rows over the alive subgraph, or ``None`` until
        #: :meth:`rows` next builds them.
        self._rows: ShortestPathRows | None = None
        #: ``round_trip`` by its arguments: a fabric's paths share a
        #: handful of hop shapes, so each is summed once.
        self._round_trips: dict[tuple, float] = {}

    # -- dynamics ----------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the routing rows (after any member state change)."""
        self._rows = None

    def _refresh_pair(self, a: int, b: int) -> None:
        up = [m for m in self._members[(a, b)] if m.up]
        capacity = sum(m.rate for m in up)
        for key in ((a, b), (b, a)):
            link = self.links[key]
            link.capacity = capacity
            if up:
                link.member = up[0]

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

    def fail_link(self, a: int, b: int) -> tuple[_Member, float]:
        """Cut one up member of the pair; returns it and the bytes
        flushed."""
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
        return member, flushed

    def restore_link(self, a: int, b: int) -> _Member:
        """Bring the first failed member of the pair back up; returns it."""
        members = self._members.get((a, b))
        if not members:
            raise LookupError(f"no link between {a} and {b}")
        member = next((m for m in members if not m.up), None)
        if member is None:
            raise LookupError(f"no down link between {a} and {b}")
        member.up = True
        self._refresh_pair(a, b)
        self.invalidate()
        return member

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

    def rows(self) -> ShortestPathRows:
        """The routing rows over the alive subgraph (the pairs with
        capacity > 0), rebuilt lazily per topology version."""
        rows = self._rows
        if rows is None:
            links = self.links
            capacity = self.arrays.capacity.tolist()
            rows = self._rows = ShortestPathRows([
                sorted(p for p in around
                       if capacity[links[(node, p)].index] > 0.0)
                for node, around in enumerate(self._neighbors)
            ])
        return rows

    def path(self, flow_id: int, src: int, dst: int,
             mtu_wire: int, ack_size: int) -> FluidPath:
        """The flow's ECMP route over the links currently up, priced by
        :func:`~repro.sim.routing.round_trip`.

        Raises :class:`NoRoute` while ``dst`` is unreachable from
        ``src``, and a plain ``ValueError`` naming the flow for an
        endpoint that is not a node of the topology.
        """
        nodes = self.rows().walk(flow_id, src, dst)
        links = [self.links[pair] for pair in zip(nodes, nodes[1:])]
        hops = tuple([(l.member.delay, l.member.rate) for l in links])
        key = (hops, mtu_wire, ack_size)
        base_rtt = self._round_trips.get(key)
        if base_rtt is None:
            base_rtt = self._round_trips[key] = round_trip(
                hops, mtu_wire, ack_size)
        return FluidPath(links, base_rtt)

    # -- introspection -----------------------------------------------------------

    def total_queued_bytes(self) -> dict[int, float]:
        """Bytes queued per switch (mirrors ``switch_queued_bytes``)."""
        queued: dict[int, float] = {}
        queue = self.arrays.queue.tolist()
        for link in self._egress_links:
            q = queue[link.index]
            if q > 0:
                queued[link.a] = queued.get(link.a, 0.0) + q
        return queued
