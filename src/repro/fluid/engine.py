"""The fluid fast path: array-native flow-level simulation.

Where the packet engine processes one event per packet/ACK/credit, the
:class:`FluidEngine` advances the whole network one RTT at a time — and
it does so *vectorized*: every active flow lives as a row in a
struct-of-arrays block, every link as a row in
:class:`~repro.fluid.state.LinkArrays`, and the five sub-steps of the
fluid model run as numpy operations over all flows at once.

The model per step (semantics identical to the scalar test oracle,
``tests/fluid_reference.py``):

1. every active flow requests its CC-controlled rate (window-limited
   schemes request ``min(rate, W/T)``) — one ``np.minimum`` chain;
2. requested rates aggregate into per-link arrivals (``np.bincount``
   over the flows' flattened path-link rows); oversubscribed links
   throttle proportionally;
3. the throttle cascades along each flow's path (an upstream bottleneck
   shields downstream links) — an exclusive per-path prefix-min, run as
   one ``np.minimum`` per hop column;
4. link queues integrate ``(arrival - capacity) x dt`` and the
   cumulative ``tx/rx`` byte registers advance — element-wise over the
   links currently touched by live flows (untouched queues freeze,
   exactly as in ``tests/fluid_reference.py``);
5. flows deliver ``achieved_rate x dt`` bytes, complete mid-step by
   interpolation, and — once per accumulated RTT — each flow's adapter
   replays one RTT of its scheme's packet events (INT sample, CNP
   stream, RTT echo, ECN marks) against the *real* ``core/`` algorithm,
   producing the next step's rate.  For the INT family, ``_fire`` first
   runs Eqn 2 for every fired flow at once over the telemetry columns
   (:func:`~repro.fluid.adapters.int_samples`: one ``np.maximum.reduceat``
   per fire) and each adapter passes its flow's reduced sample to
   ``Hpcc.on_int_sample`` — the ``NewAck`` body a packet ACK runs.

Paths are stored as a padded hop matrix: row ``i`` of ``_hopm`` holds
flow ``i``'s link indices, right-padded with a *dummy* link row (index
``L``) whose registers are rigged so padding is arithmetically inert —
scale 1.0, queueing delay 0.0, mark probability 0.0, and arrival
contributions land on the dummy row and are discarded.  The matrix is
eight columns wide and grows (``_ensure_width``) only for a longer
path.  The width is part of the arithmetic, not just the layout: numpy
sums a row of eight values pairwise but a row of seven or fewer left to
right, so a narrower matrix would move the last bit of a path's
queueing delay, which TIMELY reads as RTT.  Admitting a flow writes one
row; no index structures rebuild.  A small CSR block
(``_il``/``_il_off``) additionally tracks each flow's INT telemetry
links (switch egress with capacity > 0) for schemes that read per-hop
state, and beside it ``_il_last`` holds Algorithm 1's L: each entry's
``(ts, register, qlen)`` at the row's last fire, valid where the row's
``_has_last`` flag is set.  A fire reads L and overwrites it.

Finished rows stay in place, dead, until they number at least 16 and
an eighth of the block; ``_compact`` then gathers the alive rows to the
front in order — row vectors, hop matrix, INT CSR block with its L and
flow list — without reading or writing a flow object.  Dynamics instead
rebuild the rows from the flow objects (``_rebuild_rows``), because
changed capacities re-filter the INT links; L travels through
``FluidFlow.int_last`` and is kept when the hop count is unchanged, as
Algorithm 1 keeps it (compared by position, even over new links).

One per-step input is a *row-change invariant*: the touched-link set
(links carrying at least one live flow) with its switch-egress subset
moves only when a flow is admitted, completes or reroutes, so
``_retouch`` recomputes it, from the alive rows' hops, on those steps
alone.  The oversubscription test and the queue integration run on the
touched links only — every other link carries no live flow — and the
touched links' capacities and buffers are gathered per step, not cached
beside the set: at k=16 some flow is admitted or completes on all but a
handful of steps, so a cache would be refreshed every step anyway.
Path queueing delay is summed only for the rows that finish or fire in
a step.  Routing state (the distance rows ``FluidGraph.path`` walks) is
described in :mod:`repro.fluid.state`.

CC adapters fire once per accumulated RTT: arrival- and
event-shortened mini-steps accumulate ``elapsed``/``delivered``/
``marked`` per flow, and the adapter sees one aggregated
:class:`StepSignals` when a full ``step`` has elapsed
(``tests/fluid_reference.py`` fires on every mini-step; on runs whose
steps are never shortened the two produce bit-identical trajectories).
That is *not* Algorithm 1's cadence — react to every ACK against W^c,
sync W^c once per RTT: ``IntAdapter.update`` advances ``snd_nxt`` before
its one ``on_int_sample`` call, so ``update_wc`` is true on every fire
and fluid ``hpcc``, ``hpcc-perack`` and ``hpcc-perrtt`` all execute the
per-RTT ablation, with bit-identical records.  Algorithm 1's cadence
would call ``on_int_sample`` m times per fire (ROADMAP item 1).

Network dynamics run at *event boundaries*: scheduled timeline events
(link cuts, recoveries, degradations) shorten the step so they fire at
their exact instant, synchronize the array view back into the live
:class:`~repro.fluid.state.FluidGraph` objects (``push``), mutate the
graph, re-``pull``, and rebuild the flow rows.  Routing reconvergence
(:meth:`FluidEngine.reconverge`) recomputes every flow's ECMP path over
the alive subgraph — reroute decisions depend only on topology and the
deterministic ECMP hash, so they are identical across both engines.
A flow whose destination became unreachable parks (zero rate, CC
frozen) until a restore re-routes it.

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
from typing import Callable

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


class FluidFlow:
    """One flow's fluid state: route, remaining bytes, CC adapter.

    The array engine keeps the *hot* per-step state (remaining bytes,
    rate, accumulators) in its row arrays while the flow is admitted;
    the object fields are the durable home, synchronized whenever rows
    rebuild (dynamics events and reconvergence; compaction moves rows
    without them).  ``int_last`` is the INT family's L — the telemetry
    snapshot of the last fire, one ``(ts, register, qlen)`` row per hop —
    so it survives a reroute with the flow, as the algorithm's own L
    does on the packet path.
    """

    __slots__ = (
        "spec", "path", "proxy", "adapter", "line_rate", "ideal",
        "remaining", "req", "achieved", "topo_version",
        "elapsed", "acc_delivered", "acc_marked", "int_last",
    )

    def __init__(
        self,
        spec: FlowSpec,
        path: FluidPath | None,
        proxy: FlowProxy,
        adapter: RateAdapter,
        line_rate: float,
        ideal: float,
        wire_bytes: float,
    ) -> None:
        self.spec = spec
        self.path = path                # None while parked (no route)
        self.proxy = proxy
        self.adapter = adapter
        self.line_rate = line_rate
        self.ideal = ideal              # uncontended FCT, ns
        self.remaining = wire_bytes     # wire bytes still to deliver
        self.req = 0.0                  # requested rate this step
        self.achieved = 0.0             # post-throttle rate this step
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
    equivalence tests compare this engine against.
    """

    #: Per-row float state besides the hop matrix and the INT CSR block.
    _ROW_VECTORS = (
        "_rate",        # CC rate (mirror of proxy)
        "_window",      # CC window (inf if rate-only)
        "_line",        # NIC line rate cap
        "_remaining",   # wire bytes left
        "_brtt",        # path base RTT
        "_elapsed",     # ns since last CC fire
        "_dacc",        # delivered since last fire
        "_macc",        # mark-weighted bytes since
    )

    def __init__(
        self,
        topology: Topology,
        cc_name: str = "hpcc",
        cc_params: dict | None = None,
        base_rtt: float | None = None,
        mtu: int = 1000,
        buffer_bytes: float = 32 * MB,
        step: float | None = None,
        sample_interval: float | None = None,
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
        #: Step length: one base RTT by default — the cadence the CC
        #: adapters fire at (see the module docstring).
        self.step = step if step is not None else self.base_rtt
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        self.graph = FluidGraph(topology, float(buffer_bytes))
        #: Struct-of-arrays link registers (see LinkArrays): the engine
        #: owns these while stepping and push/pulls at event boundaries.
        self.arrays = self.graph.link_arrays()
        self.clock = FluidClock()
        self.now = 0.0
        self.steps = 0
        self.flow_steps = 0             # sum of active flows over steps
        self.completed = False
        self.fct_records: list[FctRecord] = []
        #: Optional :class:`repro.obs.probes.FluidProbe`; when ``None``
        #: (the default) the step loop calls ``_advance`` directly.
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
        self._ext_bytes = None          # cumulative ext_rates integral

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
        self._ecn_kmin = self._ecn_kmax = self._ecn_pmax = None
        self._ecn_span = None

        # -- flow rows (struct-of-arrays, padded hop matrix) -----------------
        cap = 64
        #: Padding target: one row past the real links; scale/queue-delay/
        #: mark lookups are extended with an inert entry at this index.
        self._dummy = self.arrays.n
        self._flows: list[FluidFlow] = []       # row -> flow object
        self._n = 0                             # rows in use (incl. dead)
        self._alive_n = 0                       # rows still delivering
        self._il_nnz = 0                        # CSR telemetry entries in use
        self._alive = np.zeros(cap, dtype=bool)
        for name in self._ROW_VECTORS:
            setattr(self, name, np.zeros(cap))
        self._H = 8                             # hop-matrix width
        self._hopm = np.full((cap, self._H), self._dummy, dtype=np.int64)
        self._il_off = np.zeros(cap + 1, dtype=np.int64)
        self._il = np.zeros(256, dtype=np.int64)
        #: L beside ``_il``: the last fire's ``(ts, register, qlen)`` per
        #: telemetry entry, valid for the rows whose ``_has_last`` is set
        #: (L exists and has this path's hop count).
        self._il_last = np.zeros((256, 3))
        self._has_last = np.zeros(cap, dtype=bool)
        self._touched_idx = np.zeros(0, dtype=np.int64)
        self._touched_eg_idx = np.zeros(0, dtype=np.int64)
        self._touched_eg_mask = np.zeros(0, dtype=bool)
        self._touched_stale = True
        #: Adapters fire when a full step has accumulated; the epsilon
        #: absorbs float dust from summing shortened mini-steps.
        self._fire_at = self.step - 1e-9
        self._sig = StepSignals(
            rtt=0.0, mark_prob=0.0, delivered=0.0, now=0.0, dt=0.0,
        )

        self.sample_interval = sample_interval
        self._last_sample = -_INF
        self._sample_links = (
            self.graph.switch_egress_links() if sample_interval is not None else []
        )
        self.queue_samples: dict[str, dict[str, list[float]]] = {
            link.label: {"times": [], "qlens": []} for link in self._sample_links
        }
        self._sample_idx = np.array(
            [link.index for link in self._sample_links], dtype=np.int64
        )
        self._sample_series = [
            self.queue_samples[link.label] for link in self._sample_links
        ]
        self.goodput_bin = goodput_bin
        self._goodput = (
            GoodputRecorder(goodput_bin) if goodput_bin is not None else None
        )

    # -- flow admission ----------------------------------------------------------

    def add_flow(self, spec: FlowSpec) -> None:
        # Routing first: it rejects endpoints outside the topology with
        # an error naming the flow.
        path = self._route(spec)
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
            # Same wiring as HostNic.start_flow: attach the per-flow
            # trace and anchor it at the line-rate start state (stamped
            # at the flow's start time — fluid admits flows lazily).
            trace = tap.trace(spec.flow_id, self.scheme.name)
            adapter.algo.tap = trace
            trace.record(spec.start_time, "install", None, proxy.rate,
                         proxy.window, proxy.rate, proxy.window, {})
        bottleneck = min(line_rate, self.topology.host_rate(spec.dst))
        flow = FluidFlow(
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

    # -- row bookkeeping ---------------------------------------------------------

    def _ensure_rows(self, need: int) -> None:
        cap = self._rate.shape[0]
        if need <= cap:
            return
        new = max(need, cap * 2)
        for name in self._ROW_VECTORS:
            a = getattr(self, name)
            b = np.zeros(new)
            b[:cap] = a
            setattr(self, name, b)
        alive = np.zeros(new, dtype=bool)
        alive[:cap] = self._alive
        self._alive = alive
        has_last = np.zeros(new, dtype=bool)
        has_last[:cap] = self._has_last
        self._has_last = has_last
        hopm = np.full((new, self._H), self._dummy, dtype=np.int64)
        hopm[:cap] = self._hopm
        self._hopm = hopm
        il_off = np.zeros(new + 1, dtype=np.int64)
        il_off[:cap + 1] = self._il_off
        self._il_off = il_off

    def _ensure_width(self, k: int) -> None:
        if k <= self._H:
            return
        cap = self._hopm.shape[0]
        hopm = np.full((cap, k), self._dummy, dtype=np.int64)
        hopm[:, :self._H] = self._hopm
        self._hopm = hopm
        self._H = k

    def _append_row(self, flow: FluidFlow) -> None:
        """Materialize one routed flow as a row of the hop matrix."""
        n = self._n
        self._ensure_rows(n + 1)
        links = flow.path.links
        k = len(links)
        self._ensure_width(k)
        self._flows.append(flow)
        self._alive[n] = True
        self._rate[n] = flow.proxy.rate
        w = flow.proxy.window
        self._window[n] = _INF if w is None else w
        self._line[n] = flow.line_rate
        self._remaining[n] = flow.remaining
        self._brtt[n] = flow.path.base_rtt
        self._elapsed[n] = flow.elapsed
        self._dacc[n] = flow.acc_delivered
        self._macc[n] = flow.acc_marked
        row = self._hopm[n]
        row[:k] = [l.index for l in links]
        row[k:] = self._dummy
        if self._needs_int:
            # Telemetry links: switch egress with capacity > 0 (a cut
            # edge still on this flow's pre-reconvergence path returns
            # no ACKs from beyond the cut — no INT signal).
            ints = [
                l.index for l in flow.path.int_links if l.capacity > 0.0
            ]
            m = len(ints)
            nnz = self._il_nnz
            il = self._il
            if nnz + m > il.shape[0]:
                size = max(nnz + m, il.shape[0] * 2)
                grown = np.zeros(size, dtype=np.int64)
                grown[:nnz] = il[:nnz]
                self._il = grown
                last = np.zeros((size, 3))
                last[:nnz] = self._il_last[:nnz]
                self._il_last = last
            self._il[nnz:nnz + m] = ints
            # L carries over a row rebuild when the hop count is unchanged,
            # compared by position even over new links (Algorithm 1's
            # rule); another count gives no sample until the next fire.
            last = flow.int_last
            comparable = last is not None and len(last) == m
            self._has_last[n] = comparable
            if comparable:
                self._il_last[nnz:nnz + m] = last
            self._il_nnz = nnz + m
            self._il_off[n + 1] = self._il_nnz
        self._n = n + 1
        self._alive_n += 1

    def _save_rows(self) -> None:
        """Sync hot row state back into the flow objects."""
        n = self._n
        if not n:
            return
        rem = self._remaining[:n].tolist()
        ela = self._elapsed[:n].tolist()
        dac = self._dacc[:n].tolist()
        mac = self._macc[:n].tolist()
        flows = self._flows
        for i, flow in enumerate(flows):
            flow.remaining = rem[i]
            flow.elapsed = ela[i]
            flow.acc_delivered = dac[i]
            flow.acc_marked = mac[i]
        if self._needs_int:
            off = self._il_off
            rows = np.flatnonzero(self._has_last[:n] & self._alive[:n])
            for i in rows.tolist():
                flows[i].int_last = self._il_last[off[i]:off[i + 1]].copy()

    def _set_rows(self, flows: list[FluidFlow]) -> None:
        """Rebuild every row array from scratch for ``flows`` (in order)."""
        self._flows = []
        self._n = 0
        self._alive_n = 0
        self._il_nnz = 0
        self._alive[:] = False
        self._il_off[0] = 0
        for flow in flows:
            self._append_row(flow)
        self._touched_stale = True

    def _rebuild_rows(self) -> None:
        """Save + rebuild the alive rows (after a capacity change: the
        INT rows re-filter on the new capacities)."""
        self._save_rows()
        alive = self._alive
        self._set_rows([f for i, f in enumerate(self._flows) if alive[i]])

    def _compact(self) -> None:
        """Gather the alive rows to the front, in order, dropping the dead.

        Row state moves as it is — no flow object is read or written —
        and the alive rows keep their hops, so the touched set stays
        valid.
        """
        n = self._n
        keep = self._alive[:n].nonzero()[0]
        m = keep.size
        for name in self._ROW_VECTORS:
            a = getattr(self, name)
            a[:m] = a[keep]
        self._hopm[:m] = self._hopm[keep]
        self._alive[:m] = True
        self._alive[m:n] = False
        if self._needs_int:
            off0 = self._il_off[keep]
            cnt = self._il_off[keep + 1] - off0
            ends = cnt.cumsum()
            total = int(ends[-1]) if m else 0
            gather = np.arange(total) + (off0 - ends + cnt).repeat(cnt)
            self._il[:total] = self._il[gather]
            self._il_last[:total] = self._il_last[gather]
            self._il_off[1:m + 1] = ends
            self._il_nnz = total
            self._has_last[:m] = self._has_last[keep]
        flows = self._flows
        self._flows = [flows[i] for i in keep.tolist()]
        self._n = m

    def _retouch(self) -> None:
        """Recompute the set of links carrying at least one live flow."""
        n = self._n
        mask = np.zeros(self._dummy + 1, dtype=bool)
        if n:
            mask[self._hopm[:n][self._alive[:n]].ravel()] = True
        ti = mask[:self._dummy].nonzero()[0]
        self._touched_idx = ti
        em = self.arrays.egress[ti]
        self._touched_eg_mask = em
        self._touched_eg_idx = ti[em]
        self._touched_stale = False

    def _refresh_ecn(self) -> None:
        """Per-link RED parameters as vectors (rebuilt on capacity changes)."""
        count = self.arrays.n
        kmin = np.zeros(count)
        kmax = np.full(count, _INF)
        pmax = np.zeros(count)
        cache: dict[float, EcnConfig] = {}
        for link in self.graph.link_list:
            c = link.capacity
            if c <= 0.0:
                continue
            config = cache.get(c)
            if config is None:
                config = self._ecn_policy.for_rate(c)
                cache[c] = config
            i = link.index
            kmin[i] = config.kmin
            kmax[i] = config.kmax
            pmax[i] = config.pmax
        self._ecn_kmin = kmin
        self._ecn_kmax = kmax
        self._ecn_pmax = pmax
        self._ecn_span = kmax - kmin
        self._ecn_stale = False

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

    def fail_link(self, a: int, b: int) -> float:
        """Cut one member of the pair; capacity pools down immediately.

        Returns the queued bytes flushed (the in-flight casualty
        estimate).  Paths are *not* recomputed — call :meth:`reconverge`
        when routing detects the change.
        """
        self.arrays.push()
        flushed = self.graph.fail_link(a, b)
        self.arrays.pull()
        self._rebuild_rows()
        self._ecn_stale = True
        return flushed

    def restore_link(self, a: int, b: int) -> None:
        self.arrays.push()
        self.graph.restore_link(a, b)
        self.arrays.pull()
        self._rebuild_rows()
        self._ecn_stale = True

    def degrade_link(
        self, a: int, b: int,
        rate_factor: float | None = None,
        delay_factor: float | None = None,
    ) -> None:
        self.arrays.push()
        self.graph.degrade_link(
            a, b, rate_factor=rate_factor, delay_factor=delay_factor
        )
        self.arrays.pull()
        self._rebuild_rows()
        self._ecn_stale = True

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
        self._save_rows()
        rerouted = 0
        still_active: list[FluidFlow] = []
        parked: list[FluidFlow] = []
        alive = self._alive
        for i, flow in enumerate(self._flows):
            if not alive[i]:
                continue
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
        self._set_rows(still_active)
        return rerouted

    # -- the step loop -----------------------------------------------------------

    def run(self, deadline: float) -> bool:
        """Advance until every flow finished or ``deadline`` (ns) hits.

        Returns True when all flows completed.  Steps are ``self.step``
        long, shortened to land exactly on the next flow arrival or the
        next scheduled dynamics event, so both are honoured precisely.
        """
        if not self._sorted:
            self._starts.sort(key=lambda f: (f.spec.start_time, f.spec.flow_id))
            self._sorted = True
        starts = self._starts
        events = self._events
        probe = self.telemetry
        while True:
            # Fire dynamics events that are due.
            while events and events[0][0] <= self.now + _EPS:
                heapq.heappop(events)[2]()
            # Admit flows that are due (on the current topology).
            while (
                self._next_idx < len(starts)
                and starts[self._next_idx].spec.start_time <= self.now + _EPS
            ):
                flow = starts[self._next_idx]
                self._next_idx += 1
                if flow.topo_version != self._topo_version:
                    flow.path = self._route(flow.spec)
                    flow.topo_version = self._topo_version
                if flow.path is None:
                    self._parked.append(flow)
                else:
                    self._append_row(flow)
                    self._touched_stale = True
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
            dt = self.step
            if next_start is not None:
                dt = min(dt, next_start - self.now)
            if next_event is not None:
                dt = min(dt, next_event - self.now)
            dt = min(dt, deadline - self.now)
            if dt <= _EPS:
                dt = _EPS
            if probe is None:
                self._advance(dt)
            else:
                kernel_t0 = time.perf_counter()
                self._advance(dt)
                probe.record_step(self, time.perf_counter() - kernel_t0)
        self.completed = (
            not self._alive_n and not self._parked
            and self._next_idx >= len(starts)
        )
        self.arrays.push()
        return self.completed

    def _advance(self, dt: float) -> None:
        if self._touched_stale:
            self._retouch()
        A = self.arrays
        L = self._dummy
        n = self._n
        alive = self._alive[:n]
        hopm = self._hopm[:n]
        remaining = self._remaining[:n]
        n_active = self._alive_n

        # 1. requested rates (window-limited schemes pace at W/T).
        req = np.minimum(self._rate[:n], self._window[:n] / self.base_rtt)
        np.minimum(req, self._line[:n], out=req)
        req *= alive
        # 2. per-link offered arrivals -> proportional throttle factors.
        #    Row-major ravel order means per-link accumulation order is
        #    flow-major — the same order as the loops of
        #    tests/fluid_reference.py.
        # Effective capacity: pure-fluid runs keep ``A.capacity`` itself
        # (``ext_rates is None`` — same array object, bit-identical);
        # under hybrid coupling the background half sees only the
        # residual left over by measured foreground rates, floored at 1%
        # of line rate so a saturated link throttles instead of dividing
        # by zero.
        ext = self.ext_rates
        if ext is None:
            cap = A.capacity
        else:
            cap = np.maximum(A.capacity - ext[:L], 0.01 * A.capacity)
            if self._ext_bytes is None:
                self._ext_bytes = np.zeros(L)
            self._ext_bytes += ext[:L] * dt
        H = self._H
        flat = hopm.ravel()
        arrival = np.bincount(flat, weights=req.repeat(H), minlength=L + 1)
        # Only touched links can be oversubscribed: every other link's
        # arrival is a sum of dead rows' exact zeros.
        ti = self._touched_idx
        cap_t = cap[ti]
        arrival_t = arrival[ti]
        over = arrival_t > cap_t
        scale = np.ones(L + 1)
        scale[ti[over]] = cap_t[over] / arrival_t[over]
        # 3. cascade the throttle along each path (upstream bottlenecks
        #    shield downstream links): an exclusive prefix-min per row,
        #    one column at a time (min is exact, so the order of the
        #    comparisons is immaterial).
        sc = scale[hopm]
        for j in range(1, H):
            np.minimum(sc[:, j - 1], sc[:, j], out=sc[:, j])
        w = np.empty_like(sc)
        w[:, 0] = req
        np.multiply(sc[:, :-1], req[:, None], out=w[:, 1:])
        achieved = req * sc[:, -1]
        throttled = np.bincount(flat, weights=w.ravel(), minlength=L + 1)
        # 4. integrate link state on the touched subset (untouched queues
        #    freeze, matching tests/fluid_reference.py).  Only switch
        #    egress queues grow: a host's own uplink is paced at the
        #    source, so it never queues or drops — matching the packet
        #    NIC, which contributes no INT hop either.
        te = self._touched_eg_idx
        em = self._touched_eg_mask
        inflow = throttled[ti] * dt
        qt = A.queue[ti]
        tx = qt + inflow
        np.minimum(tx, cap_t * dt, out=tx)
        A.tx[ti] += tx
        A.rx[ti] += inflow
        q = qt[em] + inflow[em] - tx[em]
        buf = A.buffer[te]
        excess = q - buf
        over_b = excess > 0.0
        if over_b.any():
            A.dropped[te[over_b]] += excess[over_b]
            q[over_b] = buf[over_b]
        q[q <= _EPS] = 0.0
        A.queue[te] = q
        # 5. deliver bytes; complete by interpolation; accumulate CC
        #    signals and fire adapters whose RTT window filled up.
        start_t = self.now
        self.now = start_t + dt
        self.clock.now = self.now
        delivered = achieved * dt
        done = delivered >= (remaining - 1e-6)
        done &= alive
        extq = self.ext_qlen
        qc = A.queue if extq is None else A.queue + extq[:L]
        # Per-link queueing delay; summed along the path only for the
        # rows that need it this step (those finishing or firing).
        qdiv = np.zeros(L + 1)
        np.divide(qc, cap, out=qdiv[:L], where=cap > 0.0)
        goodput = self._goodput
        flows = self._flows
        any_done = done.any()
        if any_done:
            idxs = done.nonzero()[0]
            ach_l = achieved[idxs].tolist()
            rem_l = remaining[idxs].tolist()
            qd_l = qdiv[hopm[idxs]].sum(axis=1).tolist()
            brtt_l = self._brtt[idxs].tolist()
            for i, ach, rem, qd, brtt in zip(
                idxs.tolist(), ach_l, rem_l, qd_l, brtt_l
            ):
                flow = flows[i]
                t_send = rem / ach if ach > 0 else dt
                if goodput is not None and rem > 0:
                    goodput.record(
                        flow.spec.flow_id, start_t, start_t + t_send,
                        rem / self.wire_factor,
                    )
                flow.remaining = 0.0
                flow.proxy.done = True
                self.fct_records.append(FctRecord(
                    spec=flow.spec, start=flow.spec.start_time,
                    finish=start_t + t_send + brtt + qd, ideal=flow.ideal,
                ))
            alive[idxs] = False
            self._alive_n -= idxs.size
            self._touched_stale = True
        remaining -= delivered
        if any_done:
            remaining[idxs] = 0.0
        if goodput is not None:
            rows = np.flatnonzero(alive & (delivered > 0))
            if rows.size:
                d_l = delivered[rows].tolist()
                for i, d in zip(rows.tolist(), d_l):
                    goodput.record(
                        flows[i].spec.flow_id, start_t, self.now,
                        d / self.wire_factor,
                    )
        # CC accumulators: elapsed time, delivered and mark-weighted
        # bytes per flow; fire adapters once a full step accumulated.
        elapsed = self._elapsed[:n]
        dacc = self._dacc[:n]
        macc = self._macc[:n]
        marking = self._ecn_policy is not None
        # Single-mini-step window so far; only the mark average reads it.
        first = elapsed == 0.0 if marking else None
        elapsed += dt
        dacc += delivered
        mark_flow = None
        if marking:
            if self._ecn_stale:
                self._refresh_ecn()
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
        fire = alive & (elapsed >= self._fire_at)
        if fire.any():
            fidx = np.flatnonzero(fire)
            self._fire(
                fidx, qdiv[hopm[fidx]].sum(axis=1), mark_flow, first,
                elapsed, dacc, macc,
            )
        self.steps += 1
        self.flow_steps += n_active
        if (
            self.sample_interval is not None
            and self.now - self._last_sample >= self.sample_interval
        ):
            self._last_sample = self.now
            qv = A.queue[self._sample_idx].tolist()
            for series, qlen in zip(self._sample_series, qv):
                series["times"].append(self.now)
                series["qlens"].append(qlen)
        # Compact dead rows away once they are an eighth of the block.
        dead = self._n - self._alive_n
        if dead >= 16 and dead * 8 >= self._n:
            self._compact()

    def _fire(
        self,
        fidx: np.ndarray,
        qdelay: np.ndarray,
        mark_flow: np.ndarray | None,
        first: np.ndarray | None,
        elapsed: np.ndarray,
        dacc: np.ndarray,
        macc: np.ndarray,
    ) -> None:
        """Replay one accumulated RTT through each fired flow's adapter.

        ``qdelay`` is per fired flow (aligned with ``fidx``), the other
        vectors per row; ``mark_flow`` and ``first`` are ``None`` for a
        scheme without an ECN policy.  ``sig.mark_prob`` is the
        delivered-weighted mean mark probability over the window; for a
        single-mini-step window it is the step's instantaneous value,
        bit-identical to ``tests/fluid_reference.py``'s.

        For an INT scheme, Eqn 2 runs here over the fired rows'
        telemetry columns (:func:`~repro.fluid.adapters.int_samples`)
        against L, which is then overwritten with this fire's registers.
        """
        A = self.arrays
        flows = self._flows
        now = self.now
        fl = fidx.tolist()
        rtt_l = (self._brtt[fidx] + qdelay).tolist()
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
        needs_int = self._needs_int
        if needs_int:
            # Gather only the fired flows' telemetry links (the full CSR
            # block also spans dead and not-yet-firing rows).
            off0 = self._il_off[fidx]
            cnt = self._il_off[fidx + 1] - off0
            bases = np.cumsum(cnt) - cnt
            total = int(cnt.sum())
            pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(bases, cnt) + np.repeat(off0, cnt)
            )
            ilv = self._il[pos]
            algo = flows[fl[0]].adapter.algo
            regv = getattr(A, _LINK_REGISTER[algo.rate_register])[ilv]
            qv = A.queue[ilv]
            # Hybrid coupling: the adapters' INT view folds the
            # foreground share in, exactly as packet switches fold the
            # background into their stamps — both CC populations then
            # react to the *combined* utilization.
            if self._ext_bytes is not None:
                regv = regv + self._ext_bytes[ilv]
            if self.ext_qlen is not None:
                qv = qv + self.ext_qlen[ilv]
            u_max, tau, bn = int_samples(
                cnt, self._has_last[fidx], now, A.capacity[ilv], regv, qv,
                self._il_last[pos], self.base_rtt,
                taps=self.decision_tap is not None,
            )
            last = np.empty((total, 3))
            last[:, 0] = now
            last[:, 1] = regv
            last[:, 2] = qv
            self._il_last[pos] = last
            self._has_last[fidx] = True
            u_l = u_max.tolist()
            tau_l = tau.tolist()
            bn_l = [None] * len(fl)
            if bn is not None:
                # The bottleneck inputs Hpcc.int_sample gives a tap, in
                # its key order, for the rows with a sample.
                key = algo.rate_key
                hop_l, bq_l, br_l = (a.tolist() for a in bn)
                n_l = cnt.tolist()
                for k in np.flatnonzero(u_max >= 0.0).tolist():
                    bn_l[k] = {
                        "u_instant": u_l[k], "bottleneck_hop": hop_l[k],
                        "qlen": bq_l[k], key: br_l[k], "n_hops": n_l[k],
                    }
        sig = self._sig
        sig.now = now
        for k, i in enumerate(fl):
            flow = flows[i]
            if needs_int:
                sig.u_sample = u_l[k]
                sig.tau = tau_l[k]
                sig.bn = bn_l[k]
            sig.rtt = rtt_l[k]
            sig.mark_prob = mark_l[k] if mark_l is not None else 0.0
            sig.delivered = del_l[k]
            sig.dt = dt_l[k]
            flow.adapter.update(flow.proxy, sig)
        self._rate[fidx] = [flows[i].proxy.rate for i in fl]
        self._window[fidx] = [
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
        """Bytes queued per switch, read off the object view (``run``
        pushes the arrays into it before returning)."""
        return self.graph.total_queued_bytes()
