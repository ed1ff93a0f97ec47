"""Topology descriptions.

A :class:`Topology` is a pure description — node ids, link specs, speeds,
propagation delays — consumed by ``repro.sim.network`` to build a live
simulation.  Hosts are numbered ``0 .. n_hosts-1``; switches take the ids
after that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.units import parse_bandwidth, parse_time


@dataclass(frozen=True)
class LinkSpec:
    """One full-duplex link between nodes ``a`` and ``b``."""

    a: int
    b: int
    rate: float        # bytes per ns
    delay: float       # propagation delay, ns

    @classmethod
    def of(cls, a: int, b: int, rate: str | float, delay: str | float) -> "LinkSpec":
        return cls(a, b, parse_bandwidth(rate), parse_time(delay))


@dataclass
class Topology:
    """A static network description."""

    name: str
    n_hosts: int
    n_switches: int
    links: list[LinkSpec] = field(default_factory=list)
    # Optional labels, e.g. {"tor": [ids], "agg": [ids], "core": [ids]}.
    switch_tiers: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_nodes = self.n_hosts + self.n_switches
        for link in self.links:
            if not (0 <= link.a < n_nodes and 0 <= link.b < n_nodes):
                raise ValueError(f"link {link} references unknown node")
            if link.a == link.b:
                raise ValueError(f"self-loop {link}")

    # -- node id helpers -----------------------------------------------------

    @property
    def hosts(self) -> range:
        return range(self.n_hosts)

    @property
    def switches(self) -> range:
        return range(self.n_hosts, self.n_hosts + self.n_switches)

    def is_host(self, node: int) -> bool:
        return 0 <= node < self.n_hosts

    # -- graph helpers -------------------------------------------------------

    def adjacency(self) -> dict[int, list[tuple[int, LinkSpec]]]:
        """node -> [(peer, link spec)] with one entry per parallel link."""
        adj: dict[int, list[tuple[int, LinkSpec]]] = {
            n: [] for n in range(self.n_hosts + self.n_switches)
        }
        for link in self.links:
            adj[link.a].append((link.b, link))
            adj[link.b].append((link.a, link))
        return adj

    def host_link(self, host: int) -> LinkSpec:
        """The (single) access link of a host."""
        cache = getattr(self, "_host_link_cache", None)
        if cache is None:
            # Lazy non-field cache: admission routes every flow through
            # here twice, and a linear scan over a large fabric's links
            # dominates setup otherwise.
            cache = {}
            for link in self.links:
                if self.is_host(link.a):
                    cache.setdefault(link.a, link)
                if self.is_host(link.b):
                    cache.setdefault(link.b, link)
            object.__setattr__(self, "_host_link_cache", cache)
        try:
            return cache[host]
        except KeyError:
            raise ValueError(f"host {host} has no link") from None

    def host_rate(self, host: int) -> float:
        return self.host_link(host).rate

    def min_host_rate(self) -> float:
        return min(self.host_rate(h) for h in self.hosts)

    def base_rtt_estimate(self, mtu_wire: int = 1048) -> float:
        """Worst-case base round-trip time across host pairs.

        Two-way propagation along the longest shortest path plus one MTU
        serialization per forward store-and-forward hop.  Experiments
        normally override ``T`` explicitly (the paper uses 9us testbed /
        13us simulation), but this estimate makes small topologies usable
        without tuning.
        """
        from ..sim.routing import ShortestPathRows, shortest_path_delays

        adj, rows = self.adjacency(), ShortestPathRows.of(self)
        worst = 0.0
        for src in self.hosts:
            delays = shortest_path_delays(adj, rows.row(src), src, mtu_wire)
            for dst in self.hosts:
                if dst != src and delays.get(dst, 0.0) > worst:
                    worst = delays[dst]
        return 2.0 * worst
