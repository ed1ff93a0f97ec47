"""The scalar reference fluid engine: the array engine's test oracle.

This is the original per-flow/per-link Python implementation of the
fluid step loop, kept verbatim as the semantic baseline for the
array-native :class:`~repro.fluid.engine.FluidEngine`.  It lives under
``tests/`` because comparing against it is its only job: the
scalar-vs-array equivalence tests (``tests/test_fluid_array.py``,
``tests/test_fluid_routing.py``) pin the vectorized engine's FCTs,
goodput bins, reroute counts and queue trajectories against this
implementation per scheme.  No spec, CLI flag or config key selects it.

Semantics are documented in :mod:`repro.fluid.engine`; the two engines
share :class:`~repro.fluid.engine.FluidFlow` (:class:`ReferenceFlow` adds
the per-step state this engine keeps on it), the adapters, the graph
and the goodput recorder, and differ only in how the five sub-steps of
``_advance`` are executed.  Both admit a flow that starts inside a step
at its offset into it, and both fire each flow's CC adapter once a full
base RTT of its own sending has accumulated (a flow admitted inside a
step fires at that step's end), so their trajectories are bit-identical.

The INT family does not go through the adapters here.  This engine
builds each fire's ``IntHop`` stack from the links' registers and hands
one synthetic ACK to ``Hpcc.on_ack`` (:meth:`ScalarFluidEngine._int_ack`),
so Eqn 2 runs in the packet path's scalar per-hop loop with the
algorithm's own L.  The array engine reduces the same registers over
columns and enters ``NewAck`` through ``Hpcc.on_int_sample``; the
equivalence tests therefore compare the two reductions.

Neither cadence is Algorithm 1's: the replay advances ``snd_nxt``
before its one sample, so ``update_wc`` is true on every fire and
``hpcc``, ``hpcc-perack`` and ``hpcc-perrtt`` all execute the per-RTT
ablation on both fluid engines (ROADMAP item 1).

The per-step scratch registers (``arrival``, ``throttled``, ``scale``)
live in the link objects' ``__dict__``; ``_advance`` sets each one
before it reads it, so nothing initialises them.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.core.base import CcEnv
from repro.core.registry import get_scheme
from repro.sim.ecn import EcnConfig
from repro.sim.flow import FctRecord, FlowSpec
from repro.sim.packet import (
    ACK_SIZE, BASE_HEADER, INT_OVERHEAD, IntHop, Packet, PacketType,
)
from repro.sim.units import MB
from repro.topology.base import Topology
from repro.fluid.adapters import FluidClock, FlowProxy, StepSignals, adapter_for
from repro.fluid.engine import FluidFlow
from repro.fluid.goodput import GoodputRecorder
from repro.fluid.state import FluidGraph, FluidPath, NoRoute

_EPS = 1e-9


class ReferenceFlow(FluidFlow):
    """A :class:`FluidFlow` plus the per-step state only this engine's
    loops keep on the flow: the array engine holds it in its rows."""

    __slots__ = ("req", "achieved", "offset", "send", "load", "qd0")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.req = 0.0                  # requested rate this step
        self.achieved = 0.0             # post-throttle rate this step
        self.offset = 0.0               # ns into the step it starts at
        self.send = 0.0                 # ns it sends for this step
        self.load = 0.0                 # rate it loads its links by
        self.qd0 = 0.0                  # path queueing delay at step start


class ScalarFluidEngine:
    """Flow-level simulation of one topology + CC scheme (scalar loops).

    Mirrors the :class:`~repro.network.Network` surface where it makes
    sense: ``add_flows`` then ``run(deadline)``; results land in
    ``fct_records`` (live :class:`FctRecord` objects, same as the packet
    path's metrics hub would produce).
    """

    def __init__(
        self,
        topology: Topology,
        cc_name: str = "hpcc",
        cc_params: dict | None = None,
        base_rtt: float | None = None,
        mtu: int = 1000,
        buffer_bytes: float = 32 * MB,
        sample_interval: float | None = None,
        probes: dict[str, tuple[int, int]] | None = None,
        goodput_bin: float | None = None,
    ) -> None:
        self.topology = topology
        self.scheme = get_scheme(cc_name)
        self.cc_params = dict(cc_params or {})
        self.mtu = mtu
        self.header = BASE_HEADER + (INT_OVERHEAD if self.scheme.needs_int else 0)
        self.wire_factor = (mtu + self.header) / mtu
        self.base_rtt = (
            base_rtt
            if base_rtt is not None
            else 1.05 * topology.base_rtt_estimate(mtu + self.header)
        )
        # The step is one base RTT, the cadence at which every scheme in
        # the paper reacts to feedback anyway.
        if self.base_rtt <= 0:
            raise ValueError(f"base_rtt must be positive, got {self.base_rtt}")
        self.graph = FluidGraph(topology, float(buffer_bytes))
        self.clock = FluidClock()
        self.now = 0.0
        self.steps = 0
        self.flow_steps = 0             # sum of active flows over steps
        self.completed = False
        self.fct_records: list[FctRecord] = []
        #: Optional control-loop flight recorder, mirroring
        #: ``FluidEngine.decision_tap``; attach before ``add_flows``.
        self.decision_tap = None

        self._starts: list[FluidFlow] = []      # sorted by start_time
        self._next_idx = 0
        self._active: list[FluidFlow] = []
        self._parked: list[FluidFlow] = []      # routeless until a restore
        self._sorted = True
        self._topo_version = 0

        # Min-heap of (time, seq, fn): drivers schedule before the run,
        # and detection-delay callbacks push more mid-run.
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._event_seq = 0

        ecn_policy = self.scheme.default_ecn(self.cc_params)
        self._ecn_policy = ecn_policy
        self._ecn_configs: dict[int, EcnConfig] = {}

        self.sample_interval = sample_interval
        self._last_sample = -float("inf")
        if sample_interval is None or probes is None:
            probes = {}
        self._sample_links = {
            label: self.graph.links[pair] for label, pair in probes.items()
        }
        self.queue_samples: dict[str, dict[str, list[float]]] = {
            label: {"times": [], "qlens": []} for label in probes
        }
        self.goodput_bin = goodput_bin
        self._goodput = (
            GoodputRecorder(goodput_bin) if goodput_bin is not None else None
        )

    # -- flow admission ----------------------------------------------------------

    def add_flow(self, spec: FlowSpec) -> None:
        path = self._route(spec)    # first: rejects unknown endpoints
        line_rate = self.topology.host_rate(spec.src)
        env = CcEnv(
            sim=self.clock, line_rate=line_rate, base_rtt=self.base_rtt,
            mtu=self.mtu, header=self.header,
        )
        adapter = adapter_for(self.scheme, env, self.cc_params)
        proxy = FlowProxy()
        adapter.install(proxy)
        tap = self.decision_tap
        if tap is not None:
            trace = tap.trace(spec.flow_id, self.scheme.name)
            adapter.algo.tap = trace
            trace.record(spec.start_time, "install", None, proxy.rate,
                         proxy.window, proxy.rate, proxy.window, {})
        bottleneck = min(line_rate, self.topology.host_rate(spec.dst))
        flow = ReferenceFlow(
            spec, path, proxy, adapter, line_rate,
            ideal=spec.size * self.wire_factor / bottleneck
            + (path.base_rtt if path is not None else self.base_rtt),
            wire_bytes=spec.size * self.wire_factor,
        )
        flow.topo_version = self._topo_version
        self._starts.append(flow)
        self._sorted = False

    def add_flows(self, specs) -> None:
        for spec in specs:
            self.add_flow(spec)

    def _route(self, spec: FlowSpec) -> FluidPath | None:
        try:
            return self.graph.path(
                spec.flow_id, spec.src, spec.dst,
                mtu_wire=self.mtu + self.header, ack_size=ACK_SIZE,
            )
        except NoRoute:
            return None

    # -- network dynamics --------------------------------------------------------

    def schedule_event(self, at: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at simulated time ``at`` (an exact step boundary).

        Events fire in time order (ties in registration order); like the
        packet path, events beyond the end of the run never fire.
        Scheduling from inside an event callback is allowed — that is how
        detection delays work.
        """
        heapq.heappush(self._events, (at, self._event_seq, fn))
        self._event_seq += 1

    def fail_link(self, a: int, b: int):
        """Cut one member of the pair; capacity pools down immediately.

        Returns ``FluidGraph.fail_link``'s (member, queued bytes flushed
        — the in-flight casualty estimate).  Paths are *not* recomputed — call :meth:`reconverge`
        when routing detects the change.
        """
        return self.graph.fail_link(a, b)

    def restore_link(self, a: int, b: int) -> None:
        self.graph.restore_link(a, b)

    def degrade_link(
        self, a: int, b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> None:
        self.graph.degrade_link(
            a, b, rate_factor=rate_factor, delay_factor=delay_factor
        )

    def reconverge(self) -> int:
        """Recompute every in-flight and pending flow's path.

        The fluid analogue of routing reconvergence: active flows pick up
        their post-change ECMP route (deterministic hash, so a restored
        trunk gets its old flows back), parked flows re-admit if a route
        reappeared, and newly routeless flows park.  Returns the number
        of flows whose path changed (the reroute count).
        """
        self._topo_version += 1
        self.graph.invalidate()
        self._ecn_configs.clear()
        rerouted = 0
        still_active: list[FluidFlow] = []
        parked: list[FluidFlow] = []
        for flow in self._active:
            old_links = None if flow.path is None else flow.path.links
            flow.path = self._route(flow.spec)
            flow.topo_version = self._topo_version
            if flow.path is None:
                parked.append(flow)
                rerouted += 1
            else:
                if old_links is None or flow.path.links != old_links:
                    rerouted += 1
                still_active.append(flow)
        for flow in self._parked:
            flow.path = self._route(flow.spec)
            flow.topo_version = self._topo_version
            if flow.path is None:
                parked.append(flow)
            else:
                rerouted += 1
                still_active.append(flow)
        self._active = still_active
        self._parked = parked
        return rerouted

    # -- the step loop -----------------------------------------------------------

    def run(self, deadline: float) -> bool:
        """Advance until every flow finished or ``deadline`` (ns) hits.

        Returns True when all flows completed.  Steps are one base RTT
        long, shortened only to land exactly on the next scheduled
        dynamics event or the deadline; a flow that starts inside a step
        joins it at its offset.
        """
        if not self._sorted:
            self._starts.sort(key=lambda f: (f.spec.start_time, f.spec.flow_id))
            self._sorted = True
        starts = self._starts
        events = self._events
        while True:
            # Fire dynamics events that are due.
            while events and events[0][0] <= self.now + _EPS:
                heapq.heappop(events)[2]()
            self._admit_starts(self.now)
            if self.now >= deadline - _EPS:
                break
            next_start = (
                starts[self._next_idx].spec.start_time
                if self._next_idx < len(starts) else None
            )
            next_event = events[0][0] if events else None
            if not self._active:
                if not self._parked and self._next_idx >= len(starts):
                    # Every flow finished: stop here, leaving later
                    # timeline events unfired — the packet path's
                    # run_until_done semantics (fired=False accounting).
                    break
                # Idle (or fully parked): fast-forward to whatever can
                # change the world next; nothing left means we are done
                # (parked flows with no pending restore can never finish).
                targets = [t for t in (next_start, next_event) if t is not None]
                if not targets:
                    break
                target = min(targets)
                if target >= deadline:
                    break
                if target > self.now:
                    self.now = target
                    self.clock.now = self.now
                continue
            dt = self.base_rtt
            if next_event is not None:
                dt = min(dt, next_event - self.now)
            dt = min(dt, deadline - self.now)
            if dt <= _EPS:
                dt = _EPS
            self._admit_starts(self.now + dt)
            self._advance(dt)
        self.completed = (
            not self._active and not self._parked
            and self._next_idx >= len(starts)
        )
        return self.completed

    def _admit_starts(self, end: float) -> None:
        """Admit (on the current topology) every flow due now or starting
        before ``end``, at its offset into the step starting now."""
        starts = self._starts
        while self._next_idx < len(starts):
            flow = starts[self._next_idx]
            start = flow.spec.start_time
            if start > self.now + _EPS and start >= end:
                break
            self._next_idx += 1
            if flow.topo_version != self._topo_version:
                flow.path = self._route(flow.spec)
                flow.topo_version = self._topo_version
            if flow.path is None:
                self._parked.append(flow)
            else:
                flow.offset = start - self.now if start > self.now + _EPS \
                    else 0.0
                self._active.append(flow)

    def _throttle(self, active: list[ReferenceFlow]) -> list:
        """Steps 2 and 3 for flows loading their links by ``f.load``;
        returns the links they touch."""
        # 2. per-link offered arrivals -> proportional throttle factors.
        touched: dict[int, object] = {}
        for f in active:
            for link in f.path.links:
                key = id(link)
                if key not in touched:
                    touched[key] = link
                    link.arrival = 0.0
                    link.throttled = 0.0
                link.arrival += f.load
        for link in touched.values():
            link.scale = (
                1.0 if link.arrival <= link.capacity
                else link.capacity / link.arrival
            )
        # 3. cascade the throttle along each path (upstream bottlenecks
        #    shield downstream links) and pin each flow's achieved rate.
        for f in active:
            s = 1.0
            for link in f.path.links:
                link.throttled += f.load * s
                if link.scale < s:
                    s = link.scale
            f.achieved = f.req * s
        return list(touched.values())

    def _advance(self, dt: float) -> None:
        active = self._active
        # 1. requested rates (window-limited schemes pace at W/T), and
        #    the share of the step each flow sends for: all of it, or,
        #    admitted inside it, from its own start.
        for f in active:
            r = f.proxy.rate
            w = f.proxy.window
            if w is not None:
                paced = w / self.base_rtt
                if paced < r:
                    r = paced
            if r > f.line_rate:
                r = f.line_rate
            f.req = r
            f.send = dt - f.offset
            f.load = r if f.offset == 0.0 else r * (f.send / dt)
        touched = self._throttle(active)
        # A flow that finishes inside the step loads its links only while
        # it sends: re-weighted to that share, the throttle runs again.
        short = False
        for f in active:
            if f.achieved > 0 and f.remaining / f.achieved < f.send:
                f.load = f.req * ((f.remaining / f.achieved) / dt)
                short = True
        if short:
            touched = self._throttle(active)
        for f in active:
            if f.achieved * f.send >= f.remaining - 1e-6:
                f.qd0 = f.path.queue_delay()
        # 4. integrate link state.  Only switch egress queues: a host's
        #    own uplink is paced at the source (excess was throttled in
        #    step 2/3), so it never queues or drops — matching the
        #    packet NIC, which contributes no INT hop either.
        for link in touched:
            inflow = link.throttled * dt
            tx = link.queue + inflow
            cap = link.capacity * dt
            if tx > cap:
                tx = cap
            link.tx_bytes += tx
            link.rx_bytes += inflow
            if not link.is_switch_egress:
                continue
            q = link.queue + inflow - tx
            if q > link.buffer_bytes:
                link.dropped_bytes += q - link.buffer_bytes
                q = link.buffer_bytes
            link.queue = q if q > _EPS else 0.0
        # 5. deliver bytes; complete by interpolation (the queueing delay
        #    interpolated between the step's start and end at the
        #    completion instant); accumulate CC signals and fire each
        #    flow's adapter once a full base RTT accumulated.
        t0 = self.now
        self.now = t0 + dt
        self.clock.now = self.now
        goodput = self._goodput
        survivors: list[FluidFlow] = []
        for f in active:
            delivered = f.achieved * f.send
            start_t = t0 + f.offset
            if delivered >= f.remaining - 1e-6:
                t_send = (f.remaining / f.achieved if f.achieved > 0
                          else f.send)
                qd = f.qd0 + (f.path.queue_delay() - f.qd0) * (
                    (f.offset + t_send) / dt)
                finish = start_t + t_send + f.path.base_rtt + qd
                if goodput is not None and f.remaining > 0:
                    goodput.record(
                        f.spec.flow_id, start_t, start_t + t_send,
                        f.remaining / self.wire_factor,
                    )
                f.remaining = 0.0
                f.proxy.done = True
                self.fct_records.append(FctRecord(
                    spec=f.spec, start=f.spec.start_time, finish=finish,
                    ideal=f.ideal,
                ))
            else:
                if goodput is not None and delivered > 0:
                    goodput.record(
                        f.spec.flow_id, start_t, self.now,
                        delivered / self.wire_factor,
                    )
                f.remaining -= delivered
                survivors.append(f)
        self._active = survivors
        for f in survivors:
            delivered = f.achieved * f.send
            first = f.elapsed == 0.0
            f.elapsed += f.send
            f.acc_delivered += delivered
            mark = 0.0
            if self._ecn_policy is not None:
                mark = self._mark_prob(f)
                f.acc_marked += mark * delivered
            # Admitted inside the step, it fires at its end with the flows
            # it joined.
            ripe = f.elapsed + f.offset
            f.offset = 0.0
            if ripe < self.base_rtt - 1e-9:
                continue
            if self.scheme.needs_int:
                self._int_ack(f)
            else:
                if not first:
                    mark = (f.acc_marked / f.acc_delivered
                            if f.acc_delivered > 0.0 else 0.0)
                f.adapter.update(f.proxy, StepSignals(
                    rtt=f.path.base_rtt + f.path.queue_delay(),
                    mark_prob=mark, delivered=f.acc_delivered,
                    now=self.now, dt=f.elapsed,
                ))
            f.elapsed = f.acc_delivered = f.acc_marked = 0.0
        self.steps += 1
        self.flow_steps += len(active)
        if (
            self.sample_interval is not None
            and self.now - self._last_sample >= self.sample_interval
        ):
            self._last_sample = self.now
            for label, link in self._sample_links.items():
                series = self.queue_samples[label]
                series["times"].append(self.now)
                series["qlens"].append(link.queue)

    # -- per-flow feedback -------------------------------------------------------

    def _int_ack(self, f: ReferenceFlow) -> None:
        """The INT family's fire: one synthetic ACK through ``on_ack``."""
        # A capacity-0 link is a cut edge still on this flow's
        # pre-reconvergence path: no ACKs return from beyond a cut, so
        # it contributes no telemetry (and no division by zero).
        hops = [
            IntHop(
                bandwidth=link.capacity, ts=self.now,
                tx_bytes=link.tx_bytes, qlen=link.queue,
                rx_bytes=link.rx_bytes,
            )
            for link in f.path.int_links
            if link.capacity > 0.0
        ]
        f.proxy.snd_nxt += max(1.0, f.acc_delivered)
        ack = Packet(PacketType.ACK, flow_id=f.spec.flow_id, src=0, dst=0)
        ack.seq = f.proxy.snd_nxt
        ack.int_hops = hops
        f.adapter.algo.on_ack(f.proxy, ack, self.now)

    def _mark_prob(self, f: ReferenceFlow) -> float:
        """The probability a packet of ``f`` is marked on its path now."""
        clear = 1.0
        for link in f.path.int_links:
            if link.capacity <= 0.0:
                continue
            key = id(link)
            config = self._ecn_configs.get(key)
            if config is None:
                config = self._ecn_policy.for_rate(link.capacity)
                self._ecn_configs[key] = config
            p = _marking_probability(config, link.queue)
            if p > 0.0:
                clear *= 1.0 - p
        return 1.0 - clear

    # -- results -----------------------------------------------------------------

    @property
    def goodput_bins(self) -> dict[int, dict[int, float]]:
        return self._goodput.bins() if self._goodput is not None else {}

    def goodput_payload(self) -> dict | None:
        """The recorded goodput bins in ``RunRecord.extras`` shape."""
        if self._goodput is None:
            return None
        return self._goodput.payload()

    def dropped_bytes(self) -> float:
        return sum(l.dropped_bytes for l in self.graph.links.values())

    def switch_queued_bytes(self) -> dict[int, float]:
        return self.graph.total_queued_bytes()


def _marking_probability(config: EcnConfig, qlen: float) -> float:
    if qlen <= config.kmin:
        return 0.0
    if qlen >= config.kmax:
        return 1.0
    return config.pmax * (qlen - config.kmin) / (config.kmax - config.kmin)
