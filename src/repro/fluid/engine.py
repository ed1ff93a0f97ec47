"""The fluid fast path: array-native flow-level simulation.

Where the packet engine processes one event per packet/ACK/credit, the
:class:`FluidEngine` advances the whole network one RTT at a time — and
it does so *vectorized*: every active flow lives as a row in a
struct-of-arrays block, every link as a row in
:class:`~repro.fluid.state.LinkArrays`, and the five sub-steps of the
fluid model run as numpy operations over all flows at once.

A step lasts one base RTT T, the cadence HPCC and the other schemes
react at; only a dynamics event or the deadline cuts it short.  A flow
that starts inside a step joins it at the step's start with its
*offset* ``o`` into it: in that step it sends for ``dt - o``, loads its
links by ``(dt - o) / dt`` of its rate, and its RTT window (``elapsed``)
counts from its own start, while its FCT keeps ``spec.start_time``.

The model per step (semantics identical to the scalar test oracle,
``tests/fluid_reference.py``):

1. every active flow requests its CC-controlled rate (window-limited
   schemes request ``min(rate, W/T)``) — one ``np.minimum`` chain;
2. requested rates, each weighted by the share of the step its flow
   sends for, aggregate into per-link arrivals (``np.bincount`` over the
   flows' flattened path-link rows); oversubscribed links throttle
   proportionally;
3. the throttle cascades along each flow's path (an upstream bottleneck
   shields downstream links) — an exclusive per-path prefix-min, run as
   one ``np.minimum`` per hop column.  A flow that finishes inside the
   step (``remaining / achieved < dt - o``) loads its links only while
   it sends: it is re-weighted to that share and steps 2-3 run once
   more, so a flow shorter than T is not charged the whole step's
   contention;
4. link queues integrate ``(arrival - capacity) x dt`` and the
   cumulative ``tx/rx`` byte registers advance — element-wise over the
   links currently touched by live flows (untouched queues freeze,
   exactly as in ``tests/fluid_reference.py``);
5. flows deliver ``achieved_rate x (dt - o)`` bytes and complete
   mid-step by interpolation, at ``t0 + o + remaining / achieved`` plus
   the path's base RTT and its queueing delay interpolated between the
   step's start and end queues at that instant; and — once per
   accumulated RTT — each flow's adapter
   replays one RTT of its scheme's packet events (INT sample, CNP
   stream, RTT echo, ECN marks) against the *real* ``core/`` algorithm,
   producing the next step's rate.  For the INT family, ``_fire`` first
   runs Eqn 2 for every fired flow at once over its row's INT columns
   (:func:`~repro.fluid.adapters.int_samples`: a masked ``argmax``
   along the hop axis) and each adapter passes its flow's reduced
   sample to ``Hpcc.on_int_sample`` — the ``NewAck`` body a packet ACK
   runs.

**Cells and the batch.**  A :class:`FluidEngine` is one *cell*: one
topology, one CC scheme, its own clock, flows, dynamics timeline and
results.  A :class:`FluidBatch` steps K independent cells in lockstep
over one row block and one set of link vectors: cell ``k``'s links are
the slice ``[off_k, off_k + n_k)`` of the batch's vectors, and its
``LinkArrays`` registers are views of that slice.  Every row carries
its cell, and through it the cell's ``T``, fire threshold and step
length ``dt``, gathered per row (and per touched link) on every step.
One tick runs each cell's control loop (dynamics events, admission,
deadline, idle fast-forward) to its next ``dt``, then one ``_advance``
steps every cell at once: a tick pays one cell's numpy dispatches
instead of K cells'.  Cells share no link, so every per-link sum still
adds one cell's own rows in admission order, and every element-wise
operation is the IEEE operation the cell would run alone: a cell's
record is bit-identical whichever batch it runs in.  A batch of one is
no special case: K = 1 runs the same gathers and the same kernels.  A
cell that raises leaves the batch with its exception and the others
step on: ``FluidBatch.run`` yields each cell, with its outcome, as it
leaves, and reads nothing of it afterwards, so the caller collects and
frees it while the rest run.  Every tick's wall time is charged to the
cells it stepped (``FluidBatch.run_s``), whatever K is.
:meth:`FluidEngine.run` steps the engine's own batch of one, kept
across calls; a batch of one keeps its rows at its deadline, so the
hybrid's next epoch resumes it.
``FluidBackend.run_batch`` runs a batch of any K: a sweep
(``SweepRunner(jobs=N)``) deals its uncached fluid ``load``/``flows``
specs, dynamics included, into N work units, each set up in order into
batches that close once their links plus flows reach
:attr:`FluidBatch.CAP`; a cell that reaches it alone (a k=16 FatTree's)
runs alone, in a unit of its own.  Each record is handed back as its
cell leaves, its ``wall_time_s`` its own setup and collect plus its
share of the batch's ticks.  One executor
(``repro.runner.execute.execute_specs``) runs every spec, a single
``execute_spec`` included, and puts each fluid ``load``/``flows`` cell
into such a batch; a hybrid cell's background half is a batch of one,
since hybrid coupling (``ext_rates``/``ext_qlen``) is one-cell by
construction.

Paths are stored as a padded hop matrix: row ``i`` of ``_hopm`` holds
flow ``i``'s link indices, right-padded with a *dummy* link row (index
``L``, one past the batch's links) whose registers are rigged so
padding is arithmetically inert — scale 1.0, queueing delay 0.0, mark
probability 0.0, and arrival contributions land on the dummy row and
are discarded.  The matrix is eight columns wide and grows
(``_resize``) only for a longer path.  The width is part of the
arithmetic, not just the layout: numpy sums a row of eight values
pairwise but a row of seven or fewer left to right, so a narrower
matrix would move the last bit of a path's queueing delay, which
TIMELY reads as RTT.  Padding past eight columns adds exact zeros, so a
path of at most eight hops sums the same at any width; a longer path's
delay is summed at its own cell's width (``FluidEngine._H``), as that
cell would alone.  The flows due in one step are admitted as one block
of rows (``_append_rows``), in start order; no index structures
rebuild.  INT telemetry lives on the same columns: a row's
INT mask (``_intm``) marks its telemetry hops (switch egress with
capacity > 0) on the rows of schemes that read per-hop state, and is
all False on other rows and on padding; ``_last`` holds Algorithm 1's L
per column, the ``(ts, register, qlen)`` of the row's last fire, read
at the masked columns where the row's ``_has_last`` flag is set.  A
fire reads L and overwrites it.  Every row array (``_ROW_ARRAYS``: the
row vectors, flags, hop matrix, mask and L) grows, widens and compacts
in one loop.

A flow is built lazily: ``add_flow`` routes it (which validates its
endpoints and fixes its ideal FCT) but its CC adapter is made when it
is admitted and dropped when it completes, so a batch holds the
adapters of live flows only.

Finished rows stay in place, dead, until they number at least 16 and
an eighth of the block; ``_compact`` then gathers the alive rows to the
front in order — every row array and the flow list — without reading
or writing a flow object.  Dynamics instead re-append a cell's rows
from its flow objects (``_rebuild_rows``), because changed capacities
re-filter the INT mask; L travels through ``FluidFlow.int_last`` in INT
order and is kept when the hop count is unchanged, as Algorithm 1 keeps
it (compared by position, even over new links).

One per-step input is a *row-change invariant*: the touched-link set
(links carrying at least one live flow) with its switch-egress subset
moves only when a flow is admitted, completes or reroutes, so
``_retouch`` recomputes it on those steps alone, from ``_link_load``
(alive rows per real link, kept exact as rows come and go).  The
oversubscription test and the queue integration run on the touched
links only — every other link carries no live flow — and the
touched links' capacities and buffers are gathered per step, not cached
beside the set: at k=16 some flow is admitted or completes on all but a
handful of steps, so a cache would be refreshed every step anyway.
Path queueing delay is summed only for the rows that finish or fire in
a step.  Routing state (the distance rows ``FluidGraph.path`` walks) is
described in :mod:`repro.fluid.state`.

CC adapters fire once per accumulated RTT: event- and deadline-shortened
mini-steps accumulate ``elapsed``/``delivered``/``marked`` per flow, and
the adapter sees one aggregated :class:`StepSignals` when a full base
RTT has elapsed.  A flow admitted inside a step fires at that step's
end, with the flows it joined, over the ``dt - o`` it sent for (an INT
flow's first fire only records L, so its first reaction comes one step
later).  ``tests/fluid_reference.py`` fires at the same cadence, and the
two produce bit-identical trajectories wherever they sum a path's
queueing delay in the same order.  That is *not* Algorithm 1's
cadence — react to every ACK against W^c,
sync W^c once per RTT: ``IntAdapter.update`` advances ``snd_nxt`` before
its one ``on_int_sample`` call, so ``update_wc`` is true on every fire
and fluid ``hpcc``, ``hpcc-perack`` and ``hpcc-perrtt`` all execute the
per-RTT ablation, with bit-identical records.  Algorithm 1's cadence
would call ``on_int_sample`` m times per fire (ROADMAP item 1).

Network dynamics run at *event boundaries*: scheduled timeline events
(link cuts, recoveries, degradations) shorten the step so they fire at
their exact instant, mutate the live
:class:`~repro.fluid.state.FluidGraph` — whose link objects write the
very registers the step kernel reads, so nothing is synchronized — and
rebuild the flow rows.  Routing reconvergence
(:meth:`FluidEngine.reconverge`) recomputes every flow's ECMP path
over the alive subgraph — reroute decisions depend only on topology
and on the ECMP rule the packet switches use too
(:func:`~repro.sim.routing.ecmp_next_hop`), so a flow takes the same
nodes as on the scalar oracle (``tests/fluid_reference.py``) and on the
packet engine.  A flow whose destination became unreachable parks
(zero rate, CC frozen) until a restore re-routes it.

Cost per step is a handful of ``O(live rows x path width)`` numpy
kernels plus ``O(touched links)`` link updates — independent of
bandwidth, flow size and packet count, and amortizing the Python
interpreter across every active flow.  That is what makes
k=16 FatTrees (1024+ hosts) tractable; the ``fluid_large`` workload of
``benchmarks/ledger/`` tracks that tier's wall time.
"""

from __future__ import annotations

import heapq
import time
import weakref
from typing import Callable, Iterator

import numpy as np

from ..core.base import CcEnv
from ..core.registry import get_scheme
from ..sim.ecn import EcnConfig
from ..sim.flow import FctRecord, FlowSpec
from ..sim.packet import ACK_SIZE, BASE_HEADER, INT_OVERHEAD
from ..sim.units import MB
from ..topology.base import Topology
from .adapters import (
    FluidClock, FlowProxy, RateAdapter, StepSignals, adapter_for, int_samples,
)
from .goodput import GoodputRecorder
from .state import FluidGraph, FluidPath, NoRoute

_EPS = 1e-9
_INF = float("inf")
#: ``Hpcc.rate_register`` (an INT hop field) -> its ``LinkArrays`` register.
_LINK_REGISTER = {"tx_bytes": "tx", "rx_bytes": "rx"}
#: The hop-matrix width every cell starts at (see the module docstring).
_WIDTH = 8


class FluidFlow:
    """One flow's fluid state: route, remaining bytes, CC adapter.

    The array engine keeps the *hot* per-step state (remaining bytes,
    rate, accumulators) in its row arrays while the flow is admitted;
    the object fields are the durable home, synchronized whenever rows
    rebuild (dynamics events and reconvergence; compaction moves rows
    without them).  ``int_last`` is the INT family's L — the telemetry
    snapshot of the last fire, one ``(ts, register, qlen)`` row per INT
    hop, in path order —
    so it survives a reroute with the flow, as the algorithm's own L
    does on the packet path.
    """

    __slots__ = (
        "spec", "path", "proxy", "adapter", "line_rate", "ideal",
        "remaining", "topo_version",
        "elapsed", "acc_delivered", "acc_marked", "int_last",
    )

    def __init__(
        self,
        spec: FlowSpec,
        path: FluidPath | None,
        proxy: FlowProxy | None,
        adapter: RateAdapter | None,
        line_rate: float,
        ideal: float,
        wire_bytes: float,
    ) -> None:
        self.spec = spec
        self.path = path                # None while parked (no route)
        self.proxy = proxy              # None until the flow is admitted
        self.adapter = adapter          # admitted and not yet finished
        self.line_rate = line_rate
        self.ideal = ideal              # uncontended FCT, ns
        self.remaining = wire_bytes     # wire bytes still to deliver
        self.topo_version = 0           # graph version the path was built on
        self.elapsed = 0.0              # ns since the last CC adapter fire
        self.acc_delivered = 0.0        # wire bytes since the last fire
        self.acc_marked = 0.0           # mark-weighted bytes since the fire
        self.int_last: np.ndarray | None = None  # L, saved at row rebuilds


class FluidEngine:
    """Vectorized flow-level simulation of one topology + CC scheme.

    Mirrors the :class:`~repro.network.Network` surface where it makes
    sense: ``add_flows`` then ``run(deadline)``; results land in
    ``fct_records`` (live :class:`FctRecord` objects, same as the packet
    path's metrics hub would produce).  The scalar implementation with
    identical semantics, ``tests/fluid_reference.py``, is the oracle the
    equivalence tests compare this engine against.  An engine is one
    cell of a :class:`FluidBatch`: its own batch of one under
    :meth:`run`, or one of K cells a :class:`FluidBatch` steps together.
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
        # The step is one base RTT, the cadence the CC adapters fire at.
        if self.base_rtt <= 0:
            raise ValueError(f"base_rtt must be positive, got {self.base_rtt}")
        self.graph = FluidGraph(topology, float(buffer_bytes))
        #: The graph's link registers (see LinkArrays), which the engine
        #: steps in place; in a multi-cell batch they are views of the
        #: batch's link vectors.
        self.arrays = self.graph.arrays
        self.clock = FluidClock()
        self.now = 0.0
        self.steps = 0
        self.flow_steps = 0             # sum of active flows over steps
        self.completed = False
        self.fct_records: list[FctRecord] = []
        #: Optional :class:`repro.obs.probes.FluidProbe`; when ``None``
        #: (the default) the step loop calls ``_advance`` untimed.
        self.telemetry = None
        #: Optional control-loop flight recorder (a
        #: :class:`~repro.core.base.DecisionTap`), mirroring
        #: ``Network.decision_tap``; attach before ``add_flows``.
        self.decision_tap = None
        #: Optional per-link external (foreground) rates in bytes/ns,
        #: length ``arrays.n``.  When set (only by the hybrid engine's
        #: epoch coupling), every capacity term in ``_advance`` uses the
        #: residual ``capacity - ext_rates``, and the cumulative
        #: external bytes are folded into the INT registers the CC
        #: adapters read, so background flows see the foreground as
        #: cross-traffic.  ``None`` (the default) leaves the pure-fluid
        #: step loop bit-identical.
        self.ext_rates = None
        #: Optional per-link external (foreground) queue depths in
        #: bytes, folded into ECN marking and queueing-delay estimates.
        self.ext_qlen = None

        self._starts: list[FluidFlow] = []      # sorted by start_time
        self._next_idx = 0
        self._parked: list[FluidFlow] = []      # routeless until a restore
        self._sorted = True
        self._topo_version = 0

        # Min-heap of (time, seq, fn): drivers schedule before the run,
        # and detection-delay callbacks push more mid-run.
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._event_seq = 0

        self._needs_int = self.scheme.needs_int
        self._ecn_policy = self.scheme.default_ecn(self.cc_params)
        self._ecn_stale = True
        #: One CcEnv per host line rate (frozen, so every flow of that
        #: rate shares it) and the install-time ``(rate, window)`` an
        #: adapter built on it starts a flow at.
        self._envs: dict[float, CcEnv] = {}
        self._host_rates: dict[int, float] = {}
        self._installs: dict[float, tuple[float, float | None]] = {}
        #: The INT register (``"tx"``/``"rx"``) and decision-tap key of
        #: this cell's scheme, read off its first adapter.
        self._int_register: str | None = None
        self._rate_key: str | None = None

        # -- this cell's place in its batch ----------------------------------
        self._batch: FluidBatch | None = None   # made by the first run
        self._index = 0                 # position in the batch
        self._link_off = 0              # first row of its links in the batch
        self._H = _WIDTH                # hop-matrix width it would use alone
        self._alive_n = 0               # its rows still delivering
        self._t0 = 0.0                  # the current tick's start ...
        self._dt = 0.0                  # ... and length
        self._error: Exception | None = None

        #: Every ``sample_interval``, each probe's queue register is
        #: sampled under its label (``probes``: label -> directed node
        #: pair, as :func:`~repro.runner.harness.sample_probes` resolves
        #: a spec's).
        self.sample_interval = sample_interval
        self._last_sample = -_INF
        if sample_interval is None or probes is None:
            probes = {}
        self.queue_samples: dict[str, dict[str, list[float]]] = {
            label: {"times": [], "qlens": []} for label in probes
        }
        self._sample_idx = np.array(
            [self.graph.links[pair].index for pair in probes.values()],
            dtype=np.int64,
        )
        self._sample_series = list(self.queue_samples.values())
        self.goodput_bin = goodput_bin
        self._goodput = (
            GoodputRecorder(goodput_bin) if goodput_bin is not None else None
        )

    # -- flow admission ----------------------------------------------------------

    def add_flow(self, spec: FlowSpec) -> None:
        # Routing first: it rejects endpoints outside the topology with
        # an error naming the flow.  The CC adapter waits for admission.
        path = self._route(spec)
        line_rate = self._host_rate(spec.src)
        tap = self.decision_tap
        if tap is not None:
            # Same wiring as HostNic.start_flow: the per-flow trace,
            # anchored at the line-rate start state (stamped at the
            # flow's start time — fluid admits flows lazily).
            rate, window = self._install_state(line_rate)
            tap.trace(spec.flow_id, self.scheme.name).record(
                spec.start_time, "install", None, rate, window, rate,
                window, {},
            )
        bottleneck = min(line_rate, self._host_rate(spec.dst))
        flow = FluidFlow(
            spec, path, None, None, line_rate,
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

    def _host_rate(self, host: int) -> float:
        """``topology.host_rate``, read once per host."""
        rate = self._host_rates.get(host)
        if rate is None:
            rate = self._host_rates[host] = self.topology.host_rate(host)
        return rate

    def _route(self, spec: FlowSpec) -> FluidPath | None:
        try:
            return self.graph.path(
                spec.flow_id, spec.src, spec.dst,
                mtu_wire=self.mtu + self.header, ack_size=ACK_SIZE,
            )
        except NoRoute:
            return None

    def _env(self, line_rate: float) -> CcEnv:
        env = self._envs.get(line_rate)
        if env is None:
            env = self._envs[line_rate] = CcEnv(
                sim=self.clock, line_rate=line_rate, base_rtt=self.base_rtt,
                mtu=self.mtu, header=self.header,
            )
        return env

    def _install_state(self, line_rate: float) -> tuple[float, float | None]:
        """The ``(rate, window)`` a flow of ``line_rate`` installs with."""
        state = self._installs.get(line_rate)
        if state is None:
            proxy = FlowProxy()
            adapter_for(self.scheme, self._env(line_rate), self.cc_params) \
                .install(proxy)
            state = self._installs[line_rate] = (proxy.rate, proxy.window)
        return state

    def _admit(self, flows: list[FluidFlow],
               offsets: list[float] | None = None) -> None:
        """Give routed flows their CC state (first time only) and one
        block of rows, in order; flow ``j`` starts sending
        ``offsets[j]`` ns into the coming step (none: at its start)."""
        for flow in flows:
            if flow.proxy is None:
                adapter = adapter_for(
                    self.scheme, self._env(flow.line_rate), self.cc_params
                )
                proxy = FlowProxy()
                adapter.install(proxy)
                if self.decision_tap is not None:
                    adapter.algo.tap = self.decision_tap.trace(
                        flow.spec.flow_id, self.scheme.name
                    )
                if self._needs_int and self._int_register is None:
                    self._int_register = _LINK_REGISTER[
                        adapter.algo.rate_register]
                    self._rate_key = adapter.algo.rate_key
                flow.proxy = proxy
                flow.adapter = adapter
        if flows:
            batch = self._batch or FluidBatch([self])
            batch._append_rows(flows, self._index, offsets)

    @property
    def footprint(self) -> int:
        """Links plus added flows: what this cell brings to a batch's
        per-tick vectors and held populations (see
        :attr:`FluidBatch.CAP`)."""
        return self.arrays.n + len(self._starts)

    def final_windows(self) -> dict[str, float | None]:
        """Each added flow's congestion window by flow id, in start order:
        its last one, or — never admitted (it starts after the deadline,
        or was parked from the start) — the one it would install with."""
        return {
            str(f.spec.flow_id): f.proxy.window if f.proxy is not None
            else self._install_state(f.line_rate)[1]
            for f in self._starts
        }

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

        Returns the member, the outage handle: its ``packets_lost_down``
        is the queued fluid flushed (the in-flight casualty estimate) in
        wire-packet equivalents.  Paths are *not* recomputed — call
        :meth:`reconverge` when routing detects the change.
        """
        member, flushed = self.graph.fail_link(a, b)
        member.packets_lost_down = int(flushed / (self.mtu + self.header))
        self._rebuild_rows()
        self._ecn_stale = True
        return member

    def restore_link(self, a: int, b: int):
        """Pool a failed member back in; returns it (the handle
        :meth:`fail_link` returned)."""
        member = self.graph.restore_link(a, b)
        self._rebuild_rows()
        self._ecn_stale = True
        return member

    def degrade_link(
        self, a: int, b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> dict:
        """Scale the pair's first up member's rate and/or delay, then
        reconverge.

        The hop counts do not change, but paths cache per-link latency
        constants and the ECN configs key off rates: both refresh at
        the event instant.  Returns the accounting fields
        (``detected_at``, ``reroutes``).
        """
        self.graph.degrade_link(
            a, b, rate_factor=rate_factor, delay_factor=delay_factor
        )
        self._rebuild_rows()
        self._ecn_stale = True
        return {"detected_at": self.now, "reroutes": self.reconverge()}

    def _take_rows(self) -> list[FluidFlow]:
        """Remove this cell's alive rows from its batch, synced into
        their flow objects; returns those flows in row order."""
        batch = self._batch
        return batch._take_rows(self._index) if batch is not None else []

    def _rebuild_rows(self) -> None:
        """Re-append the alive rows from their flow objects (after a
        capacity change: the INT rows re-filter on the new capacities)."""
        self._admit(self._take_rows())

    def reconverge(self) -> int:
        """Recompute every in-flight and pending flow's path.

        The fluid analogue of routing reconvergence: active flows pick up
        their post-change ECMP route (deterministic hash, so a restored
        trunk gets its old flows back), parked flows re-admit if a route
        reappeared, and newly routeless flows park.  Returns the number
        of flows whose path changed (the reroute count) — a function of
        topology and the ECMP hash only, hence identical to
        ``tests/fluid_reference.py``'s.
        """
        self._topo_version += 1
        self.graph.invalidate()
        self._ecn_stale = True
        rerouted = 0
        still_active: list[FluidFlow] = []
        parked: list[FluidFlow] = []
        for flow in self._take_rows():
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
        self._parked = parked
        self._admit(still_active)
        return rerouted

    # -- the step loop -----------------------------------------------------------

    def run(self, deadline: float) -> bool:
        """Advance until every flow finished or ``deadline`` (ns) hits.

        Returns True when all flows completed.  Steps are one base RTT
        long, shortened only to land exactly on the next scheduled
        dynamics event or the deadline; a flow that starts inside a step
        joins it at its offset (see the module docstring).
        May be called again with a later deadline (the hybrid's
        per-epoch call): the engine's batch of one, which kept its rows
        at the deadline, resumes.
        """
        batch = self._batch or FluidBatch([self])
        if len(batch.cells) > 1:
            raise RuntimeError(
                "this engine ran as a cell of a multi-cell FluidBatch; "
                "it cannot run again"
            )
        [(_, outcome)] = batch.run([deadline])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _next_dt(self, deadline: float) -> float | None:
        """This cell's control loop up to its next step.

        Fires the dynamics events and admits the flows that are due,
        fast-forwards over idle stretches, and returns the next step's
        length — one base RTT, shortened to land on the next event or
        the deadline — or ``None`` once the cell is done.  A flow that
        starts inside the step is admitted now, at its offset into it.
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
            if not self._alive_n:
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
            return dt
        self.completed = (
            not self._alive_n and not self._parked
            and self._next_idx >= len(starts)
        )
        return None

    def _admit_starts(self, end: float) -> None:
        """Admit (on the current topology) every flow due now or starting
        before ``end``; one that starts inside the step sends from its
        offset into it."""
        starts = self._starts
        now = self.now
        due: list[FluidFlow] = []
        offsets: list[float] = []
        while self._next_idx < len(starts):
            flow = starts[self._next_idx]
            start = flow.spec.start_time
            if start > now + _EPS and start >= end:
                break
            self._next_idx += 1
            if flow.topo_version != self._topo_version:
                flow.path = self._route(flow.spec)
                flow.topo_version = self._topo_version
            if flow.path is None:
                self._parked.append(flow)
            else:
                due.append(flow)
                offsets.append(start - now if start > now + _EPS else 0.0)
        self._admit(due, offsets)

    def _sample(self) -> None:
        """Record the sampled queues if a sample interval has elapsed."""
        if self.now - self._last_sample >= self.sample_interval:
            self._last_sample = self.now
            qv = self.arrays.queue[self._sample_idx].tolist()
            for series, qlen in zip(self._sample_series, qv):
                series["times"].append(self.now)
                series["qlens"].append(qlen)

    @staticmethod
    def _fire(
        batch: "FluidBatch",
        fidx: np.ndarray,
        qdelay: np.ndarray,
        mark_flow: np.ndarray | None,
        first: np.ndarray | None,
        elapsed: np.ndarray,
        dacc: np.ndarray,
        macc: np.ndarray,
    ) -> None:
        """Replay one accumulated RTT through each fired flow's adapter.

        ``fidx`` are the batch rows that fire; ``qdelay`` is per fired
        flow (aligned with ``fidx``), the other vectors per row;
        ``mark_flow`` and ``first`` are ``None`` when no cell of the
        batch has an ECN policy (a cell without one reads an exact 0.0
        mark probability).  ``sig.mark_prob`` is the delivered-weighted
        mean mark probability over the window; for a single-mini-step
        window it is the step's instantaneous value, bit-identical to
        ``tests/fluid_reference.py``'s.

        For INT rows, Eqn 2 runs here over the fired rows' masked hop
        columns (:func:`~repro.fluid.adapters.int_samples`), each row
        against its own cell's clock, ``T`` and rate register, and
        against L, which is then overwritten with this fire's registers.

        Kept on :class:`FluidEngine` although it steps a whole batch:
        the benchmark ledger attributes the CC replay by this name.
        """
        cells = batch.cells
        flows = batch._flows
        fl = fidx.tolist()
        rtt_l = (batch._brtt[fidx] + qdelay).tolist()
        del_l = dacc[fidx].tolist()
        dt_l = elapsed[fidx].tolist()
        if mark_flow is not None:
            fd = dacc[fidx]
            mark_l = np.where(
                first[fidx],
                mark_flow[fidx],
                np.divide(
                    macc[fidx], fd, out=np.zeros(fidx.size), where=fd > 0.0
                ),
            ).tolist()
        else:
            mark_l = None
        # Each fired row's cell, clock and T.
        rc = batch._cell[fidx]
        now = batch._now[rc]
        T = batch._T[fidx]
        needs_int = batch._needs_int
        if needs_int:
            # The fired rows' hop columns; unmasked ones (host links, cut
            # links, padding, other schemes' rows) read a real link's
            # registers (the dummy clipped to the last link), unused.
            hops = batch._hopm[fidx]
            ints = batch._intm[fidx]
            registers = batch._registers
            if len(registers) <= 1:
                reg = getattr(batch, next(iter(registers), "tx"))
                regv = reg.take(hops, mode="clip")
            else:
                # tx- and rx-register schemes fire together: pick each
                # row's register by its cell.
                regv = np.where(batch._rx_cells[rc][:, None],
                                batch.rx.take(hops, mode="clip"),
                                batch.tx.take(hops, mode="clip"))
            qv = batch.queue.take(hops, mode="clip")
            # Hybrid coupling: the adapters' INT view folds the
            # foreground share in, exactly as packet switches fold the
            # background into their stamps — both CC populations then
            # react to the *combined* utilization.
            if batch._ext_bytes is not None:
                regv = regv + batch._ext_bytes.take(hops, mode="clip")
            if batch._extq is not None:
                qv = qv + batch._extq.take(hops, mode="clip")
            tapped = batch._tapped
            now_r = now[:, None]
            u_max, tau, bn = int_samples(
                ints, batch._has_last[fidx], now_r,
                batch.capacity.take(hops, mode="clip"), regv, qv,
                batch._last[fidx], T, taps=any(tapped),
            )
            last = np.empty(hops.shape + (3,))
            last[..., 0] = now_r
            last[..., 1] = regv
            last[..., 2] = qv
            batch._last[fidx] = last
            batch._has_last[fidx] = True
            u_l = u_max.tolist()
            tau_l = tau.tolist()
            bn_l = [None] * len(fl)
            if bn is not None:
                # The bottleneck inputs Hpcc.int_sample gives a tap, in
                # its key order, for the tapped rows with a sample.
                hop_l, bq_l, br_l, n_l = (a.tolist() for a in bn)
                rc_l = rc.tolist()
                for k in np.flatnonzero(u_max >= 0.0).tolist():
                    if tapped[rc_l[k]]:
                        bn_l[k] = {
                            "u_instant": u_l[k], "bottleneck_hop": hop_l[k],
                            "qlen": bq_l[k],
                            cells[rc_l[k]]._rate_key: br_l[k],
                            "n_hops": n_l[k],
                        }
        sig = batch._sig
        now_l = now.tolist()
        for k, i in enumerate(fl):
            flow = flows[i]
            if needs_int:
                sig.u_sample = u_l[k]
                sig.tau = tau_l[k]
                sig.bn = bn_l[k]
            sig.now = now_l[k]
            sig.rtt = rtt_l[k]
            sig.mark_prob = mark_l[k] if mark_l is not None else 0.0
            sig.delivered = del_l[k]
            sig.dt = dt_l[k]
            try:
                flow.adapter.update(flow.proxy, sig)
            except Exception as exc:
                batch._fail(int(batch._cell[i]), exc)
        batch._rate[fidx] = [flows[i].proxy.rate for i in fl]
        batch._window[fidx] = [
            _INF if (w := flows[i].proxy.window) is None else w for i in fl
        ]
        elapsed[fidx] = 0.0
        dacc[fidx] = 0.0
        macc[fidx] = 0.0

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
        """Fluid lost so far: the ``dropped`` registers summed in link
        order, the same float sum as over the object view."""
        return sum(self.arrays.dropped.tolist())

    def switch_queued_bytes(self) -> dict[int, float]:
        """Bytes queued per switch."""
        return self.graph.total_queued_bytes()


class FluidBatch:
    """K independent :class:`FluidEngine` cells stepped in lockstep.

    One row block holds every cell's admitted flows and one set of link
    vectors every cell's links (see the module docstring).  A batch is
    built from cells that have not run yet — a batch of one from any
    engine — and :meth:`run` takes each cell to its own deadline.

    The batch holds its cells weakly and reads nothing of a cell once it
    has left: a caller may drop a finished cell while the others run.
    """

    #: The footprint (:attr:`FluidEngine.footprint`) at which a caller
    #: stops adding cells to a batch, and at which a cell runs alone:
    #: batching pays where one step's fixed numpy dispatch outweighs
    #: its cells' rows and links, and every cell of a batch holds its
    #: population until it runs.
    CAP = 8192

    #: Per-row float state besides the flags and the hop-column arrays.
    _ROW_VECTORS = (
        "_rate",        # CC rate (mirror of proxy)
        "_window",      # CC window (inf if rate-only)
        "_line",        # NIC line rate cap
        "_remaining",   # wire bytes left
        "_brtt",        # path base RTT
        "_T",           # its cell's base RTT: step and CC window
        "_offset",      # ns into its admission step it starts; else 0
        "_elapsed",     # ns since last CC fire
        "_dacc",        # delivered since last fire
        "_macc",        # mark-weighted bytes since
    )
    #: Every per-row array: grown, widened and compacted together.  The
    #: last three are hop-column arrays (second axis: the hop matrix's).
    _ROW_ARRAYS = _ROW_VECTORS + (
        "_alive", "_has_last", "_cell", "_hopm", "_intm", "_last",
    )
    #: The link vectors, shared with the cells' ``LinkArrays``.
    _LINK_VECTORS = ("capacity", "queue", "tx", "rx", "dropped",
                     "egress", "buffer")

    def __init__(self, cells: list[FluidEngine]) -> None:
        if not cells:
            raise ValueError("a batch needs at least one cell")
        if any(c._batch is not None for c in cells):
            raise ValueError("a cell that already ran cannot join a batch")
        if len(cells) > 1 and any(
                c.ext_rates is not None or c.ext_qlen is not None
                for c in cells):
            raise ValueError("a hybrid-coupled cell runs as a batch of one")
        sizes = [c.arrays.n for c in cells]
        offsets = np.cumsum([0] + sizes[:-1]).tolist()
        # One vector per register; each cell's LinkArrays becomes a view
        # of its slice, so its links and dynamics act in place.
        for name in self._LINK_VECTORS:
            joined = np.concatenate([getattr(c.arrays, name) for c in cells])
            setattr(self, name, joined)
            for c, off, n in zip(cells, offsets, sizes):
                setattr(c.arrays, name, joined[off:off + n])
        L = sum(sizes)
        #: Padding target: one row past the real links; scale/queue-delay/
        #: mark lookups are extended with an inert entry at this index.
        self._dummy = L
        K = len(cells)
        self._link_cell = np.repeat(np.arange(K), sizes)
        self._dts = np.zeros(K)         # this tick's dt per cell ...
        self._now = np.zeros(K)         # ... and its clock at the tick's end
        #: Each cell's hop-matrix width (``FluidEngine._H``).
        self._widths = np.array([c._H for c in cells])
        #: The INT registers the cells' schemes read (set at their first
        #: admission) and which cells read ``rx``.
        self._registers: set[str] = set()
        self._rx_cells = np.zeros(K, dtype=bool)
        self._tapped = [c.decision_tap is not None for c in cells]
        #: Wall seconds of the ticks charged to each cell, evenly among
        #: the cells each tick ran.
        self.run_s = [0.0] * K
        for k, (c, off) in enumerate(zip(cells, offsets)):
            c._batch = self
            c._index = k
            c._link_off = off
        # Weakly: an engine owns its batch (its batch of one lives across
        # ``run`` calls), so strong references back would make every
        # engine a cycle that only the cyclic collector frees.
        self.cells = [weakref.proxy(c) for c in cells]
        self._needs_int = any(c._needs_int for c in cells)
        self._marking = any(c._ecn_policy is not None for c in cells)
        if self._marking:
            # A cell without an ECN policy keeps the inert values: its
            # mark probability is an exact 0.0.
            self._ecn_kmin = np.zeros(L)
            self._ecn_kmax = np.full(L, _INF)
            self._ecn_pmax = np.zeros(L)
            self._ecn_span = np.full(L, _INF)
        self._goodput_cells = np.array([c._goodput is not None for c in cells])
        self._any_goodput = bool(self._goodput_cells.any())
        self._sampled = any(c.sample_interval is not None for c in cells)
        self._ext_bytes = None          # cumulative ext_rates integral
        self._extq = None               # this tick's ext_qlen, if any

        # -- flow rows (struct-of-arrays, padded hop matrix) -----------------
        cap = 64
        self._flows: list[FluidFlow] = []       # row -> flow object
        self._n = 0                             # rows in use (incl. dead)
        self._alive_n = 0                       # rows still delivering
        self._alive = np.zeros(cap, dtype=bool)
        for name in self._ROW_VECTORS:
            setattr(self, name, np.zeros(cap))
        self._cell = np.zeros(cap, dtype=np.int64)  # row -> cell index
        self._H = _WIDTH                        # hop-matrix width
        self._one_width = True                  # every cell's width is _H
        self._hopm = np.full((cap, self._H), self._dummy, dtype=np.int64)
        #: Which hop columns are INT telemetry hops (all False on rows of
        #: schemes that read no per-hop state, and on padding).
        self._intm = np.zeros((cap, self._H), dtype=bool)
        #: Algorithm 1's L: the last fire's ``(ts, register, qlen)`` per
        #: hop column, read at the INT columns of the rows whose
        #: ``_has_last`` is set (L exists and has this path's hop count).
        self._last = np.zeros((cap, self._H, 3))
        self._has_last = np.zeros(cap, dtype=bool)
        #: Alive rows per link (padding not counted): the touched set is
        #: its nonzero support.
        self._link_load = np.zeros(L, dtype=np.int64)
        self._touched_idx = np.zeros(0, dtype=np.int64)
        self._touched_eg_idx = np.zeros(0, dtype=np.int64)
        self._touched_eg_mask = np.zeros(0, dtype=bool)
        self._touched_cell = np.zeros(0, dtype=np.int64)
        self._touched_stale = True
        #: Whether some row starts inside the coming step (``_offset``).
        self._offsets = False
        self._sig = StepSignals(
            rtt=0.0, mark_prob=0.0, delivered=0.0, now=0.0, dt=0.0,
        )

    # -- row bookkeeping ---------------------------------------------------------

    def _resize(self, rows: int, width: int) -> None:
        """Regrow every row array to ``rows`` rows and the hop-column
        arrays to ``width`` columns, keeping what they hold.  New hop
        columns are padding: the dummy link, not INT."""
        for name in self._ROW_ARRAYS:
            a = getattr(self, name)
            shape = (rows,) + (width,) + a.shape[2:] if a.ndim > 1 else (rows,)
            b = np.full(shape, self._dummy if name == "_hopm" else 0,
                        dtype=a.dtype)
            b[tuple(map(slice, a.shape))] = a
            setattr(self, name, b)
        self._H = width

    def _append_rows(self, flows: list[FluidFlow], k: int,
                     offsets: list[float] | None = None) -> None:
        """Materialize routed flows of cell ``k`` as one block of rows,
        in order; ``offsets`` (default 0.0) is each row's offset into
        the coming step."""
        n = self._n
        m = len(flows)
        end = n + m
        cell = self.cells[k]
        off = cell._link_off
        L = self._dummy
        links = [[off + l.index for l in flow.path.links] for flow in flows]
        width = max(map(len, links))
        rows = self._alive.shape[0]
        if end > rows or width > self._H:
            grown = rows
            while end > grown:
                grown *= 2
            self._resize(grown, max(width, self._H))
        if width > cell._H:
            cell._H = width
            self._widths[k] = width
            self._one_width = bool((self._widths == self._H).all())
        H = self._H
        self._flows.extend(flows)
        self._alive[n:end] = True
        self._cell[n:end] = k
        self._T[n:end] = cell.base_rtt
        if offsets is not None and max(offsets) > 0.0:
            self._offset[n:end] = offsets
            self._offsets = True
        else:
            self._offset[n:end] = 0.0
        # Each flow's own state, as scalar writes: one slice write per
        # vector costs more than eight scalar ones up to a block of
        # about eight rows, and most blocks are smaller.
        rate, window, line = self._rate, self._window, self._line
        remaining, brtt = self._remaining, self._brtt
        elapsed, dacc, macc = self._elapsed, self._dacc, self._macc
        for i, flow in enumerate(flows, n):
            proxy = flow.proxy
            rate[i] = proxy.rate
            window[i] = _INF if proxy.window is None else proxy.window
            line[i] = flow.line_rate
            remaining[i] = flow.remaining
            brtt[i] = flow.path.base_rtt
            elapsed[i] = flow.elapsed
            dacc[i] = flow.acc_delivered
            macc[i] = flow.acc_marked
        hops = np.array([row + [L] * (H - len(row)) for row in links],
                        dtype=np.int64)
        self._hopm[n:end] = hops
        real = hops < L
        real_hops = hops[real]
        # A path repeats no link; rows of the block may share one.
        np.add.at(self._link_load, real_hops, 1)
        ints = self._intm[n:end]
        ints[:] = False                         # reused slots: clear them
        self._has_last[n:end] = False
        if cell._needs_int:
            register = cell._int_register
            self._registers.add(register)
            if register == "rx":
                self._rx_cells[k] = True
            # Telemetry links: switch egress with capacity > 0 (a cut
            # edge still on this flow's pre-reconvergence path returns
            # no ACKs from beyond the cut — no INT signal).
            ints[real] = (self.egress[real_hops]
                          & (self.capacity[real_hops] > 0.0))
            # L carries over a row rebuild when the hop count is unchanged,
            # compared by position even over new links (Algorithm 1's
            # rule); another count gives no sample until the next fire.
            for j, flow in enumerate(flows):
                last = flow.int_last
                if last is not None and len(last) == ints[j].sum():
                    self._has_last[n + j] = True
                    self._last[n + j, ints[j]] = last
        self._n = end
        self._alive_n += m
        cell._alive_n += m
        self._touched_stale = True

    def _cell_rows(self, k: int) -> np.ndarray:
        """Cell ``k``'s alive rows, in row (admission) order."""
        n = self._n
        return np.flatnonzero(self._alive[:n] & (self._cell[:n] == k))

    def _take_rows(self, k: int) -> list[FluidFlow]:
        """Sync cell ``k``'s alive rows into their flow objects, drop
        the rows, and return the flows in row order."""
        rows = self._cell_rows(k)
        flows = self._flows
        taken = [flows[i] for i in rows.tolist()]
        for flow, rem, ela, dac, mac in zip(
            taken,
            self._remaining[rows].tolist(), self._elapsed[rows].tolist(),
            self._dacc[rows].tolist(), self._macc[rows].tolist(),
        ):
            flow.remaining = rem
            flow.elapsed = ela
            flow.acc_delivered = dac
            flow.acc_marked = mac
        for i, flow in zip(rows.tolist(), taken):
            if self._has_last[i]:
                flow.int_last = self._last[i, self._intm[i]]
        self._drop(rows)
        self.cells[k]._alive_n -= rows.size
        return taken

    def _drop(self, rows: np.ndarray) -> None:
        """Retire ``rows`` without finishing their flows."""
        if not rows.size:
            return
        self._alive[rows] = False
        self._alive_n -= rows.size
        self._unload(self._hopm[rows])
        self._touched_stale = True
        self._compact()

    def _unload(self, hops: np.ndarray) -> None:
        """Take retired rows' hops off the per-link counts."""
        h = hops.ravel()
        np.subtract.at(self._link_load, h[h < self._dummy], 1)

    def _compact(self) -> None:
        """Gather the alive rows to the front, in order, dropping the dead.

        Row state moves as it is — no flow object is read or written —
        and the alive rows keep their hops, so the touched set stays
        valid.
        """
        n = self._n
        keep = self._alive[:n].nonzero()[0]
        m = keep.size
        for name in self._ROW_ARRAYS:
            a = getattr(self, name)
            a[:m] = a[keep]
        self._alive[m:n] = False
        flows = self._flows
        self._flows = [flows[i] for i in keep.tolist()]
        self._n = m

    def _retouch(self) -> None:
        """Recompute the set of links carrying at least one live flow."""
        ti = (self._link_load > 0).nonzero()[0]
        self._touched_idx = ti
        em = self.egress[ti]
        self._touched_eg_mask = em
        self._touched_eg_idx = ti[em]
        self._touched_cell = self._link_cell[ti]
        self._touched_stale = False

    def _refresh_ecn(self, k: int) -> None:
        """Cell ``k``'s per-link RED parameters (rebuilt on capacity
        changes) into its slice of the batch's vectors."""
        cell = self.cells[k]
        count = cell.arrays.n
        kmin = np.zeros(count)
        kmax = np.full(count, _INF)
        pmax = np.zeros(count)
        cache: dict[float, EcnConfig] = {}
        for i, c in enumerate(cell.arrays.capacity.tolist()):
            if c <= 0.0:
                continue
            config = cache.get(c)
            if config is None:
                config = cell._ecn_policy.for_rate(c)
                cache[c] = config
            kmin[i] = config.kmin
            kmax[i] = config.kmax
            pmax[i] = config.pmax
        s = slice(cell._link_off, cell._link_off + count)
        self._ecn_kmin[s] = kmin
        self._ecn_kmax[s] = kmax
        self._ecn_pmax[s] = pmax
        self._ecn_span[s] = kmax - kmin
        cell._ecn_stale = False

    def _externals(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The hybrid coupling's ``ext_rates`` and ``ext_qlen``, each
        ``None`` when unset.  A coupled cell runs only as a batch of one
        (``__init__`` refuses it in a larger batch), so a K-cell batch
        has none."""
        if len(self.cells) > 1:
            return None, None
        cell, L = self.cells[0], self._dummy
        rates, qlen = cell.ext_rates, cell.ext_qlen
        return (None if rates is None else rates[:L],
                None if qlen is None else qlen[:L])

    def _fail(self, k: int, exc: Exception) -> None:
        """Cell ``k`` raised: keep its first exception; it leaves the
        batch after this tick."""
        cell = self.cells[k]
        if cell._error is None:
            cell._error = exc

    def _throttle(self, flat: np.ndarray, load: np.ndarray,
                  cap_t: np.ndarray) -> np.ndarray:
        """Steps 2 and 3 for rows that load their links by ``load``: the
        proportional throttle of every oversubscribed touched link,
        cascaded along each row's path.  Column ``j`` of the result is
        the smallest scale over hops ``0..j``."""
        L = self._dummy
        ti = self._touched_idx
        arrival = np.bincount(flat, weights=load.repeat(self._H),
                              minlength=L + 1)
        # Only touched links can be oversubscribed: every other link's
        # arrival is a sum of dead rows' exact zeros.
        arrival_t = arrival[ti]
        over = arrival_t > cap_t
        scale = np.ones(L + 1)
        scale[ti[over]] = cap_t[over] / arrival_t[over]
        # Upstream bottlenecks shield downstream links: an inclusive
        # prefix-min per row, one column at a time (min is exact, so the
        # order of the comparisons is immaterial).
        sc = scale[self._hopm[:self._n]]
        for j in range(1, self._H):
            np.minimum(sc[:, j - 1], sc[:, j], out=sc[:, j])
        return sc

    def _path_qdelay(self, qdiv: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Each row's path queueing delay, summed at its cell's width."""
        hops = self._hopm[rows]
        if self._one_width:
            return qdiv[hops].sum(axis=1)
        # A longer path widened the batch: sum every row at the width
        # its own cell would have alone (the width is arithmetic).
        out = np.empty(rows.size)
        per_row = self._widths[self._cell[rows]]
        for width in np.unique(per_row).tolist():
            sel = per_row == width
            out[sel] = qdiv[hops[sel, :width]].sum(axis=1)
        return out

    # -- the tick loop -------------------------------------------------------------

    def run(self, deadlines: list[float]
            ) -> Iterator[tuple[int, bool | Exception]]:
        """Step every cell to its own deadline (or completion).

        Yields ``(k, outcome)`` as cell ``k`` leaves: whether all its
        flows completed, or the exception it raised, after which the
        other cells step on.  A left cell's rows are gone, so the caller
        may collect it (and drop it) before resuming the batch; the time
        it takes is charged to no cell's :attr:`run_s`.
        """
        cells = self.cells
        running = list(range(len(cells)))
        timed = any(c.telemetry is not None for c in cells)
        # A batch of one keeps its rows at its deadline: the engine's own
        # batch resumes there on the next ``FluidEngine.run``.
        multi = len(cells) > 1
        while running:
            tick0 = time.perf_counter()
            stepping = []
            left = []
            for k in running:
                cell = cells[k]
                try:
                    dt = cell._next_dt(deadlines[k])
                except Exception as exc:
                    self._fail(k, exc)
                    dt = None
                if cell._error is not None:
                    left.append((k, self._leave(k)))
                elif dt is None:
                    if multi:
                        self._leave(k)
                    left.append((k, cell.completed))
                else:
                    # The tick's clock and step accounting, up front.
                    cell._dt = dt
                    cell._t0 = cell.now
                    cell.now = cell._t0 + dt
                    cell.clock.now = cell.now
                    cell.steps += 1
                    cell.flow_steps += cell._alive_n
                    stepping.append(k)
            if left:
                paused = time.perf_counter()
                yield from left
                tick0 += time.perf_counter() - paused
            if not stepping:
                break
            if not timed:
                self._advance(stepping)
            else:
                kernel_t0 = time.perf_counter()
                self._advance(stepping)
                share = (time.perf_counter() - kernel_t0) / len(stepping)
                for k in stepping:
                    probe = cells[k].telemetry
                    if probe is not None:
                        probe.record_step(cells[k], share)
            share = (time.perf_counter() - tick0) / len(stepping)
            for k in stepping:
                self.run_s[k] += share
            running = []
            for k in stepping:
                if cells[k]._error is not None:
                    yield k, self._leave(k)
                else:
                    running.append(k)

    def _leave(self, k: int) -> Exception | None:
        """Take cell ``k`` out of the stepping for good: drop its rows
        (its own counts stay as they stopped); returns (and clears) the
        exception it raised, if any."""
        cell = self.cells[k]
        self._drop(self._cell_rows(k))
        exc, cell._error = cell._error, None
        return exc

    def _advance(self, stepping: list[int]) -> None:
        if self._touched_stale:
            self._retouch()
        cells = self.cells
        L = self._dummy
        n = self._n
        alive = self._alive[:n]
        hopm = self._hopm[:n]
        remaining = self._remaining[:n]
        # Each row's and each touched link's cell step.
        dts = self._dts
        nows = self._now
        dts[:] = 0.0
        dt_max = 0.0
        for k in stepping:
            dts[k] = cell_dt = cells[k]._dt
            nows[k] = cells[k].now
            if cell_dt > dt_max:
                dt_max = cell_dt
        rc = self._cell[:n]
        dt = dts[rc]
        dt_t = dts[self._touched_cell]
        T = self._T[:n]
        # Each row sends for the whole step, but a row admitted inside it
        # only from its own start, ``_offset`` into the step.
        off = self._offset[:n]
        offsets = self._offsets
        span = dt - off if offsets else dt

        # 1. requested rates (window-limited schemes pace at W/T).
        req = np.minimum(self._rate[:n], self._window[:n] / T)
        np.minimum(req, self._line[:n], out=req)
        req *= alive
        # 2. each row loads its links by its rate times the share of the
        #    step it sends for; oversubscribed links throttle
        #    proportionally.  Row-major ravel order means per-link
        #    accumulation order is flow-major — the same order as the
        #    loops of tests/fluid_reference.py.
        # Effective capacity: pure-fluid runs keep ``capacity`` itself
        # (no cell has ``ext_rates`` — same array object, bit-identical);
        # under hybrid coupling the background half sees only the
        # residual left over by measured foreground rates, floored at 1%
        # of line rate so a saturated link throttles instead of dividing
        # by zero.
        capacity = self.capacity
        ext, extq = self._externals()
        self._extq = extq
        if ext is None:
            cap = capacity
        else:
            cap = np.maximum(capacity - ext, 0.01 * capacity)
            if self._ext_bytes is None:
                self._ext_bytes = np.zeros(L)
            self._ext_bytes += ext * dts[self._link_cell]
        flat = hopm.ravel()
        ti = self._touched_idx
        cap_t = cap[ti]
        if offsets:
            load = req * np.divide(span, dt, out=np.ones(n), where=off > 0.0)
        else:
            load = req.copy()           # req x 1.0: every row's share
        # 3. cascade the throttle along each path and pin each row's
        #    achieved rate.
        sc = self._throttle(flat, load, cap_t)
        achieved = req * sc[:, -1]
        # A row that finishes inside the step loads its links only while
        # it sends: re-weighted to that share, the throttle runs once
        # more (it can only loosen, so every such row still finishes).
        # No row can finish while every alive one holds more than the
        # largest request sends in the longest step (``achieved <= req``
        # and ``span <= dt``); the margin covers the product's rounding.
        rem_min = np.minimum.reduce(remaining, where=alive, initial=_INF)
        reach = np.maximum.reduce(req, initial=0.0) * dt_max
        if not rem_min > reach * (1.0 + 1e-12):
            t_send = np.divide(remaining, achieved, out=np.full(n, _INF),
                               where=achieved > 0.0)
            short = (t_send < span).nonzero()[0]
            if short.size:
                load[short] = req[short] * (t_send[short] / dt[short])
                sc = self._throttle(flat, load, cap_t)
                achieved = req * sc[:, -1]
        w = np.empty_like(sc)
        w[:, 0] = load
        np.multiply(sc[:, :-1], load[:, None], out=w[:, 1:])
        throttled = np.bincount(flat, weights=w.ravel(), minlength=L + 1)
        # 4. integrate link state on the touched subset (untouched queues
        #    freeze, matching tests/fluid_reference.py).  Only switch
        #    egress queues grow: a host's own uplink is paced at the
        #    source, so it never queues or drops — matching the packet
        #    NIC, which contributes no INT hop either.
        te = self._touched_eg_idx
        em = self._touched_eg_mask
        inflow = throttled[ti] * dt_t
        qt = self.queue[ti]
        tx = qt + inflow
        np.minimum(tx, cap_t * dt_t, out=tx)
        self.tx[ti] += tx
        self.rx[ti] += inflow
        q = qt[em] + inflow[em] - tx[em]
        buf = self.buffer[te]
        excess = q - buf
        over_b = excess > 0.0
        if over_b.any():
            self.dropped[te[over_b]] += excess[over_b]
            q[over_b] = buf[over_b]
        q[q <= _EPS] = 0.0
        self.queue[te] = q
        # 5. deliver bytes; complete by interpolation; accumulate CC
        #    signals and fire adapters whose RTT window filled up (the
        #    cells' clocks already read the step's end).
        delivered = achieved * span
        done = delivered >= (remaining - 1e-6)
        done &= alive
        qc = self.queue if extq is None else self.queue + extq
        # Per-link queueing delay, on the touched links only: the rows
        # that read it this step (those finishing or firing) were alive
        # at its start, so their paths lie there; summed along the path
        # only for those rows.
        qdiv = np.zeros(L + 1)
        qdiv[ti] = np.divide(qc[ti], cap_t, out=np.zeros(ti.size),
                             where=cap_t > 0.0)
        flows = self._flows
        any_done = done.any()
        if any_done:
            idxs = done.nonzero()[0]
            # A finishing row's queueing delay is its path's, interpolated
            # between the step's start and end queues at its completion.
            qdiv0 = np.zeros(L + 1)
            q0 = qt if extq is None else qt + extq[ti]
            qdiv0[ti] = np.divide(q0, cap_t, out=np.zeros(ti.size),
                                  where=cap_t > 0.0)
            ach_l = achieved[idxs].tolist()
            rem_l = remaining[idxs].tolist()
            qd0_l = self._path_qdelay(qdiv0, idxs).tolist()
            qd1_l = self._path_qdelay(qdiv, idxs).tolist()
            off_l = off[idxs].tolist()
            brtt_l = self._brtt[idxs].tolist()
            cell_l = self._cell[idxs].tolist()
            for i, k, ach, rem, qd0, qd1, o, brtt in zip(
                idxs.tolist(), cell_l, ach_l, rem_l, qd0_l, qd1_l, off_l,
                brtt_l,
            ):
                cell = cells[k]
                flow = flows[i]
                start_t = cell._t0 + o
                t_send = rem / ach if ach > 0 else cell._dt - o
                qd = qd0 + (qd1 - qd0) * ((o + t_send) / cell._dt)
                goodput = cell._goodput
                if goodput is not None and rem > 0:
                    goodput.record(
                        flow.spec.flow_id, start_t, start_t + t_send,
                        rem / cell.wire_factor,
                    )
                flow.remaining = 0.0
                flow.proxy.done = True
                # Finished: the CC algorithm and route go; the proxy
                # keeps the last window.
                flow.adapter = None
                flow.path = None
                cell.fct_records.append(FctRecord(
                    spec=flow.spec, start=flow.spec.start_time,
                    finish=start_t + t_send + brtt + qd, ideal=flow.ideal,
                ))
                cell._alive_n -= 1
            alive[idxs] = False
            self._alive_n -= idxs.size
            self._unload(hopm[idxs])
            self._touched_stale = True
        remaining -= delivered
        if any_done:
            remaining[idxs] = 0.0
        if self._any_goodput:
            mask = alive & (delivered > 0) & self._goodput_cells[rc]
            rows = np.flatnonzero(mask)
            if rows.size:
                d_l = delivered[rows].tolist()
                k_l = self._cell[rows].tolist()
                o_l = off[rows].tolist()
                for i, k, d, o in zip(rows.tolist(), k_l, d_l, o_l):
                    cell = cells[k]
                    cell._goodput.record(
                        flows[i].spec.flow_id, cell._t0 + o, cell.now,
                        d / cell.wire_factor,
                    )
        # CC accumulators: elapsed time (from each row's own start),
        # delivered and mark-weighted bytes per flow; fire adapters once
        # a full step accumulated.
        elapsed = self._elapsed[:n]
        dacc = self._dacc[:n]
        macc = self._macc[:n]
        marking = self._marking
        # Single-mini-step window so far; only the mark average reads it.
        first = elapsed == 0.0 if marking else None
        elapsed += span
        dacc += delivered
        mark_flow = None
        if marking:
            for k in stepping:
                cell = cells[k]
                if cell._ecn_stale and cell._ecn_policy is not None:
                    self._refresh_ecn(k)
            one_minus = np.ones(L + 1)
            p = np.divide(
                self._ecn_pmax * (qc - self._ecn_kmin), self._ecn_span,
                out=np.zeros(L), where=self._ecn_span > 0.0,
            )
            p[qc <= self._ecn_kmin] = 0.0
            p[qc >= self._ecn_kmax] = 1.0
            np.subtract(1.0, p, out=one_minus[:L])
            # Host links and dead links carry p == 0, so the product
            # over *all* path hops equals tests/fluid_reference.py's
            # product over telemetry links only (1.0 factors are exact).
            mark_flow = 1.0 - one_minus[hopm].prod(axis=1)
            macc += mark_flow * delivered
        # Adapters fire once a full step has accumulated (a row admitted
        # inside the step fires at its end, with the rows it joined); the
        # epsilon absorbs float dust from summing shortened mini-steps.
        fire = alive & ((elapsed + off if offsets else elapsed) >= T - 1e-9)
        if offsets:
            off[:] = 0.0
            self._offsets = False
        fidx = fire.nonzero()[0]
        if fidx.size:
            FluidEngine._fire(
                self, fidx, self._path_qdelay(qdiv, fidx), mark_flow, first,
                elapsed, dacc, macc,
            )
        if self._sampled:
            for k in stepping:
                if cells[k].sample_interval is not None:
                    cells[k]._sample()
        # Compact dead rows away once they are an eighth of the block.
        dead = self._n - self._alive_n
        if dead >= 16 and dead * 8 >= self._n:
            self._compact()
