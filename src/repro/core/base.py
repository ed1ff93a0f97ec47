"""Congestion-control interface.

Every scheme in the paper's evaluation (HPCC, DCQCN, TIMELY, DCTCP, the
+win variants) is a :class:`CcAlgorithm`.  One instance is created per flow
by a factory; the NIC calls the event hooks, and the algorithm mutates the
flow's ``window`` (bytes, ``None`` = unlimited) and ``rate`` (bytes/ns,
used by the pacer).

All schemes start at line rate (Section 2.2: "RDMA hosts ... start sending
at line rate"), which is why DCTCP's slow start is removed for fairness
(Section 5.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported only for annotations, to avoid import cycles
    from ..sim.engine import Simulator
    from ..sim.packet import Packet


class FlowTrace:
    """Bounded ring of one flow's control decisions.

    Algorithms append raw tuples (no dict allocation on the hot path);
    :meth:`decisions` renders them as JSON-able records at export time.
    When the ring is full the oldest decision is evicted and counted in
    ``dropped`` — the trace always holds the *latest* window of activity.
    """

    __slots__ = ("flow_id", "scheme", "ring", "dropped")

    def __init__(self, flow_id: int, scheme: str, maxlen: int) -> None:
        self.flow_id = flow_id
        self.scheme = scheme
        self.ring: deque = deque(maxlen=maxlen)
        self.dropped = 0

    def record(self, now: float, event: str, branch: str | None,
               rate_before: float, window_before: float | None,
               rate_after: float, window_after: float | None,
               inputs: dict) -> None:
        """Append one decision; purely observational (no flow mutation)."""
        ring = self.ring
        if len(ring) == ring.maxlen:
            self.dropped += 1
        ring.append((now, event, branch, rate_before, window_before,
                     rate_after, window_after, inputs))

    def decisions(self) -> list[dict]:
        """The ring's contents as JSON-able decision dicts (oldest first)."""
        return [
            {
                "flow": self.flow_id,
                "scheme": self.scheme,
                "sim_ns": now,
                "event": event,
                "branch": branch,
                "rate_before": rate_before,
                "rate_after": rate_after,
                "window_before": window_before,
                "window_after": window_after,
                "inputs": dict(inputs),
            }
            for (now, event, branch, rate_before, window_before,
                 rate_after, window_after, inputs) in self.ring
        ]


class DecisionTap:
    """The control-loop flight recorder: per-flow decision traces.

    Attach one to a :class:`~repro.network.Network` (packet) or a
    :class:`~repro.fluid.engine.FluidEngine` (fluid) via their
    ``decision_tap`` attribute *before* flows start; each flow's CC
    instance then records one structured entry per control decision —
    the inputs it saw, the branch it took and the rate/window movement —
    into a bounded per-flow ring.  With no tap attached the hot-path
    cost is a single ``None`` check per CC hook.
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self.maxlen = maxlen
        self.traces: dict[int, FlowTrace] = {}

    def trace(self, flow_id: int, scheme: str) -> FlowTrace:
        """The (new or existing) trace for one flow."""
        trace = self.traces.get(flow_id)
        if trace is None:
            trace = FlowTrace(flow_id, scheme, self.maxlen)
            self.traces[flow_id] = trace
        return trace

    def decisions(self) -> list[dict]:
        """Every recorded decision across flows, in (sim_ns, flow) order."""
        out: list[dict] = []
        for flow_id in sorted(self.traces):
            out.extend(self.traces[flow_id].decisions())
        out.sort(key=lambda d: (d["sim_ns"], d["flow"]))
        return out

    def columns(self) -> dict[str, dict]:
        """The fields the divergence analyzer reads, as per-flow columns.

        ``{flow_id: {"scheme", "sim_ns", "rate_after", "bottleneck_hop"}}``
        built straight from the ring tuples (oldest first), laid out like
        ``RunRecord.queues`` so a record can carry them as
        ``extras["decisions"]``.  -1 marks an absent value: a ``None`` or
        non-finite rate, a decision without a bottleneck hop.
        :func:`repro.obs.divergence.decision_rows` is the inverse.
        """
        out: dict[str, dict] = {}
        for flow_id in sorted(self.traces):
            trace = self.traces[flow_id]
            ring = trace.ring
            out[str(flow_id)] = {
                "scheme": trace.scheme,
                "sim_ns": [float(rec[0]) for rec in ring],
                "rate_after": [
                    float(rec[5]) if rec[5] is not None and isfinite(rec[5])
                    else -1 for rec in ring
                ],
                "bottleneck_hop": [int(rec[7].get("bottleneck_hop", -1))
                                   for rec in ring],
            }
        return out

    @property
    def total_recorded(self) -> int:
        return sum(len(t.ring) for t in self.traces.values())

    @property
    def total_dropped(self) -> int:
        return sum(t.dropped for t in self.traces.values())


@dataclass(frozen=True)
class CcEnv:
    """Per-NIC environment handed to CC factories.

    ``base_rtt`` is the network-wide ``T`` of the paper — slightly above the
    maximum base RTT (9us testbed / 13us simulation in Section 5.1).
    """

    sim: "Simulator"
    line_rate: float       # host NIC rate, bytes/ns
    base_rtt: float        # T, ns
    mtu: int               # payload bytes per packet
    header: int            # wire header bytes per data packet
    #: Winit = B_nic x T (Section 3.2), bytes: derived once, since every
    #: window clamp reads it.
    bdp: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bdp", self.line_rate * self.base_rtt)

    @property
    def packet_wire_size(self) -> int:
        return self.mtu + self.header


class CcAlgorithm:
    """Base class; the default hooks do nothing."""

    #: Whether this scheme needs INT telemetry on data packets and ACKs.
    needs_int: bool = False
    #: Receiver-side minimum CNP spacing (ns); None disables CNP generation.
    cnp_interval: float | None = None
    #: Decision recorder (a :class:`FlowTrace`), attached per flow by the
    #: engines when a :class:`DecisionTap` is installed; ``None`` keeps
    #: every hook's recording cost at one attribute load + ``None`` check.
    tap: "FlowTrace | None" = None

    def __init__(self, env: CcEnv) -> None:
        self.env = env

    # -- lifecycle ------------------------------------------------------------

    def install(self, flow) -> None:
        """Set the flow's initial window and rate (line-rate start)."""
        flow.rate = self.env.line_rate
        flow.window = None

    def on_flow_done(self, flow, now: float) -> None:
        """Cancel timers etc. when the flow completes."""

    # -- event hooks ------------------------------------------------------------

    def on_ack(self, flow, ack: Packet, now: float) -> None:
        """An ACK (possibly with INT and/or ECN echo) arrived."""

    def on_nack(self, flow, nack: Packet, now: float) -> None:
        """An out-of-sequence report arrived."""

    def on_cnp(self, flow, now: float) -> None:
        """A DCQCN congestion-notification packet arrived."""

    def on_timeout(self, flow, now: float) -> None:
        """The flow's retransmission timer fired."""

    def on_packet_sent(self, flow, pkt: Packet, now: float) -> None:
        """A data packet was handed to the port (byte counters etc.)."""

    # -- helpers ----------------------------------------------------------------

    # Both clamps run on every ACK, so they spell out the builtins:
    # ``min(a, b)`` is ``b if b < a else a`` and ``max(a, b)`` is
    # ``b if b > a else a``, which keeps ties, signed zeros and NaN.

    def clamp_rate(self, rate: float, floor: float | None = None) -> float:
        """``max(floor, min(line_rate, rate))``; the floor defaults to
        1e-4 of line rate."""
        line = self.env.line_rate
        lo = floor if floor is not None else line * 1e-4
        rate = rate if rate < line else line
        return rate if rate > lo else lo

    def clamp_window(self, window: float) -> float:
        """``max(float(mtu), min(bdp, window))``."""
        bdp = self.env.bdp
        window = window if window < bdp else bdp
        mtu = self.env.mtu              # an int: compared exactly
        return window if window > mtu else float(mtu)
