"""Array engine vs scalar reference: numerical equivalence contracts.

The vectorized :class:`~repro.fluid.FluidEngine` and the loop-per-flow
:class:`tests.fluid_reference.ScalarFluidEngine` (the oracle, which
lives beside these tests) implement the same fluid model;
this module pins *how* equal they must stay:

* **Bit-exact** when steps are never shortened (simultaneous starts, no
  dynamics): the array kernels were built to replay the scalar
  arithmetic operation-for-operation (flow-major accumulation order,
  matching division/branch structure), so every scheme's FCTs and
  goodput bins must match to the last bit.
* **Pinned tolerances** when arrivals shorten steps: the engines then
  fire CC at different cadences (the reference fires every mini-step,
  the array engine once per accumulated RTT), so trajectories drift by
  a bounded, *pinned* amount.
  A tolerance regression here means the engines diverged beyond the
  documented cadence effect.
* **Identical dynamics decisions**: fail/restore + reconvergence must
  produce the same reroute counts and parked-flow behaviour — routing
  is topology + deterministic ECMP hash, never numerical.

Plus regression tests for the supporting cast: the O(1) goodput
recorder against a brute-force bin fill across thousands of bins, the
cached link labels/egress list, and the k-ary FatTree builder.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import CcEnv, DecisionTap
from repro.core.hpcc import Hpcc
from repro.core.hpcc_variants import HpccRxRate
from repro.fluid import FluidBatch, FluidEngine, GoodputRecorder
from repro.fluid.adapters import int_samples
from repro.fluid.programs import FluidBackend
from repro.runner import ScenarioSpec
from repro.sim.flow import FlowSpec
from repro.sim.packet import IntHop
from repro.sim.units import US
from repro.topology import dumbbell, parking_lot, star
from repro.topology.fattree import bench_fattree, fattree_k

from tests.fluid_reference import ScalarFluidEngine

BASE_RTT = 9 * US
DEADLINE = 200e6

ALL_SCHEMES = (
    "hpcc", "hpcc-perack", "hpcc-perrtt", "hpcc-rxrate",
    "dcqcn", "dcqcn+win", "timely", "timely+win", "dctcp",
)

#: Max per-flow relative FCT difference with *staggered* arrivals, per
#: scheme, on the workload below.  Staggering shortens steps at every
#: arrival, so the reference's per-mini-step CC fires diverge from the
#: array engine's per-RTT fires; these bounds pin that cadence effect
#: (measured worst cases ~0.06 for HPCC, ~0.44 for the rxrate ablation
#: whose window is hypersensitive to fire timing, ~0.02 TIMELY, ~0.11
#: DCTCP; DCQCN's trajectory is cadence-insensitive and stays exact).
STAGGER_TOLERANCE = {
    "hpcc": 0.10, "hpcc-perack": 0.10, "hpcc-perrtt": 0.10,
    "hpcc-rxrate": 0.50,
    "dcqcn": 0.0, "dcqcn+win": 0.0,
    "timely": 0.05, "timely+win": 0.05,
    "dctcp": 0.15,
}


def _fattree_flows(n: int = 12, stagger_ns: float = 0.0) -> list[FlowSpec]:
    rng = random.Random(7)
    hosts = bench_fattree().hosts
    return [
        FlowSpec(
            flow_id=i, src=(pair := rng.sample(hosts, 2))[0], dst=pair[1],
            size=rng.randint(20_000, 400_000), start_time=i * stagger_ns,
        )
        for i in range(n)
    ]


def _run(engine_cls, cc: str, flows: list[FlowSpec], **kwargs):
    engine = engine_cls(bench_fattree(), cc_name=cc, **kwargs)
    engine.add_flows(flows)
    assert engine.run(deadline=DEADLINE)
    return engine


class TestBitExactEquivalence:
    """Unshortened steps: the two engines are the same computation."""

    @pytest.mark.parametrize("cc", ALL_SCHEMES)
    def test_fcts_bit_identical_on_simultaneous_starts(self, cc):
        flows = _fattree_flows()
        array = _run(FluidEngine, cc, flows)
        scalar = _run(ScalarFluidEngine, cc, flows)
        array_fct = {r.spec.flow_id: r.finish for r in array.fct_records}
        scalar_fct = {r.spec.flow_id: r.finish for r in scalar.fct_records}
        assert array_fct == scalar_fct       # == : bit-exact, no tolerance

    def test_goodput_bins_bit_identical(self):
        flows = _fattree_flows()
        array = _run(FluidEngine, "hpcc", flows, goodput_bin=10_000.0)
        scalar = _run(ScalarFluidEngine, "hpcc", flows, goodput_bin=10_000.0)
        assert array.goodput_bins == scalar.goodput_bins
        assert array.goodput_payload() == scalar.goodput_payload()


class TestStaggeredTolerance:
    @pytest.mark.parametrize("cc", ALL_SCHEMES)
    def test_staggered_arrivals_within_pinned_tolerance(self, cc):
        flows = _fattree_flows(stagger_ns=2_500.0)
        array = _run(FluidEngine, cc, flows)
        scalar = _run(ScalarFluidEngine, cc, flows)
        array_fct = {r.spec.flow_id: r.finish for r in array.fct_records}
        scalar_fct = {r.spec.flow_id: r.finish for r in scalar.fct_records}
        assert array_fct.keys() == scalar_fct.keys()
        tol = STAGGER_TOLERANCE[cc]
        if tol == 0.0:
            assert array_fct == scalar_fct
        else:
            worst = max(
                abs(array_fct[fid] - scalar_fct[fid]) / scalar_fct[fid]
                for fid in scalar_fct
            )
            assert worst <= tol, f"{cc}: worst rel diff {worst:.3e} > {tol}"


class TestDynamicsEquivalence:
    """Fail + restore: same reroutes, same parking, both engines."""

    @staticmethod
    def _run_dynamics(engine_cls, cc: str):
        engine = engine_cls(
            star(n_hosts=5, host_rate="10Gbps", link_delay="1us"),
            cc_name=cc, base_rtt=BASE_RTT,
        )
        engine.add_flows([
            FlowSpec(1, 0, 4, 2_000_000, 0.0),
            FlowSpec(2, 1, 4, 2_000_000, 0.0),
            FlowSpec(3, 0, 3, 1_500_000, 0.0),
        ])
        reroutes = []
        parked_during_cut = []

        def fail():
            engine.fail_link(5, 4)
            reroutes.append(engine.reconverge())
            parked_during_cut.append(len(engine._parked))

        def restore():
            engine.restore_link(5, 4)
            reroutes.append(engine.reconverge())
            parked_during_cut.append(len(engine._parked))

        engine.schedule_event(0.5e6, fail)
        engine.schedule_event(1.5e6, restore)
        assert engine.run(deadline=DEADLINE)
        return (
            reroutes, parked_during_cut,
            {r.spec.flow_id: r.finish for r in engine.fct_records},
        )

    @pytest.mark.parametrize("cc", ["hpcc", "dcqcn"])
    def test_fail_restore_identical_reroutes_and_parking(self, cc):
        a_routes, a_parked, a_fct = self._run_dynamics(FluidEngine, cc)
        s_routes, s_parked, s_fct = self._run_dynamics(ScalarFluidEngine, cc)
        # Both flows to host 4 park at the cut and re-admit at restore.
        assert a_routes == s_routes == [2, 2]
        assert a_parked == s_parked == [2, 0]
        assert a_fct.keys() == s_fct.keys() == {1, 2, 3}
        for fid in s_fct:
            assert a_fct[fid] == pytest.approx(s_fct[fid], rel=1e-2)

    def test_engine_state_consistent_after_dynamics(self):
        _, _, fct = self._run_dynamics(FluidEngine, "hpcc")
        # The cut stalls the parked flows for ~1ms; the untouched flow
        # must finish well before them.
        assert fct[3] < fct[1] and fct[3] < fct[2]


class TestGoodputRecorder:
    def _reference_fill(self, segments, bin_ns):
        """The old per-bin Python loop, kept as the oracle."""
        bins: dict[int, float] = {}
        for t0, t1, payload in segments:
            if t1 <= t0:
                bins[int(t0 // bin_ns)] = (
                    bins.get(int(t0 // bin_ns), 0.0) + payload
                )
                continue
            i0, i1 = int(t0 // bin_ns), int(t1 // bin_ns)
            if i0 == i1:
                bins[i0] = bins.get(i0, 0.0) + payload
                continue
            rate = payload / (t1 - t0)
            for idx in range(i0, i1 + 1):
                lo = max(t0, idx * bin_ns)
                hi = min(t1, (idx + 1) * bin_ns)
                if hi > lo:
                    bins[idx] = bins.get(idx, 0.0) + rate * (hi - lo)
        return bins

    def test_multi_thousand_bin_segment_matches_reference(self):
        rec = GoodputRecorder(bin_ns=1_000.0)
        rng = random.Random(11)
        segments = []
        # One segment spanning ~5000 bins plus a pile of short and
        # degenerate ones, overlapping arbitrarily.
        segments.append((123.0, 5_000_456.0, 9e6))
        for _ in range(200):
            t0 = rng.uniform(0, 4e6)
            t1 = t0 + rng.uniform(0, 50_000)
            segments.append((t0, t1, rng.uniform(1, 1e5)))
        segments.append((777.0, 777.0, 1234.0))      # zero-width
        for seg in segments:
            rec.record(42, *seg)
        [(flow_id, got)] = rec.bins().items()
        expect = self._reference_fill(segments, 1_000.0)
        assert flow_id == 42
        assert got.keys() == expect.keys()
        for idx in expect:
            assert got[idx] == pytest.approx(expect[idx], rel=1e-12)

    def test_recording_is_constant_size_per_call(self):
        rec = GoodputRecorder(bin_ns=1.0)
        # A million-bin span records as ONE stored segment, not 1e6 dict
        # entries — the regression the recorder exists to prevent.
        rec.record(1, 0.0, 1_000_000.0, 5.0)
        assert len(rec._segments[1]) == 1
        assert len(rec.bins()[1]) == 1_000_000

    def test_single_bin_segment_credits_payload_exactly(self):
        rec = GoodputRecorder(bin_ns=1_000.0)
        rec.record(7, 100.0, 900.0, 0.1 + 0.2)       # float-dust payload
        assert rec.bins()[7] == {0: 0.1 + 0.2}       # exact, no rate trip


class TestStateCaches:
    def test_link_labels_precomputed_and_stable(self):
        engine = FluidEngine(bench_fattree(), cc_name="hpcc")
        for link in engine.graph.link_list:
            assert link.label == f"sw{link.a}->{link.b}"

    def test_switch_egress_links_cached(self):
        engine = FluidEngine(bench_fattree(), cc_name="hpcc")
        first = engine.graph.switch_egress_links()
        assert engine.graph.switch_egress_links() is first
        assert all(l.is_switch_egress for l in first)

    def test_link_indices_match_arrays(self):
        engine = FluidEngine(bench_fattree(), cc_name="hpcc")
        arrays = engine.arrays
        for i, link in enumerate(engine.graph.link_list):
            assert link.index == i
            assert arrays.capacity[i] == link.capacity


class TestFatTreeK:
    def test_k16_has_1024_hosts(self):
        topo = fattree_k(16)
        assert topo.n_hosts == 16 ** 3 // 4 == 1024
        assert topo.n_switches == 16 * 8 + 16 * 8 + 64

    def test_k4_structure(self):
        topo = fattree_k(4)
        assert topo.n_hosts == 16
        assert topo.n_switches == 8 + 8 + 4
        # Classic k-ary: every agg has k/2 core uplinks, every pod
        # reaches the whole core layer.
        engine = FluidEngine(topo, cc_name="hpcc")
        path = engine.graph.path(1, 0, 15, mtu_wire=1048, ack_size=60)
        assert len(path.links) == 6              # host-tor-agg-core-agg-tor-host

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError, match="even"):
            fattree_k(5)


class TestEngineSelection:
    def _spec(self, **config) -> ScenarioSpec:
        return ScenarioSpec(
            program="load", topology="star",
            topology_params={"n_hosts": 4},
            workload={"cdf": "fbhadoop", "load": 0.3, "n_flows": 5},
            config=config, backend="fluid",
        )

    def test_default_is_array_engine(self):
        backend = FluidBackend(self._spec(base_rtt=BASE_RTT), star(n_hosts=4))
        assert type(backend.engine) is FluidEngine

    def test_retired_knob_selects_nothing_and_is_reported(self):
        backend = FluidBackend(
            self._spec(base_rtt=BASE_RTT, fluid_engine="scalar"),
            star(n_hosts=4),
        )
        assert type(backend.engine) is FluidEngine
        assert backend.ignored == ["fluid_engine"]  # -> fluid_ignored_config


def _small_or_wide(small: tuple, lo: float, hi: float):
    """A value from a small set (so equal queues and tied u' are common)
    or from a wide range."""
    return st.sampled_from(small) | st.floats(lo, hi)


#: One hop's INT fields: ``reg``/``q_last`` in L, ``sent`` and ``q`` now,
#: ``fold``/``fold_sent``/``q_fold`` the hybrid coupling's foreground
#: bytes and queue folded into the registers, ``dt`` the ts advance.
_HOP = st.fixed_dictionaries({
    "cap": _small_or_wide((1.25, 12.5, 50.0), 0.01, 100.0),
    "dt": _small_or_wide((-500.0, 0.0, 1_000.0, 9_000.0, 40_000.0),
                         -1e4, 1e5).map(lambda dt: round(dt, 3)),
    "reg": _small_or_wide((0.0, 4e6), 0.0, 1e12),
    "sent": _small_or_wide((0.0, 12_500.0, 112_500.0), 0.0, 1e7),
    "fold": _small_or_wide((0.0, 3.3e9), 0.0, 1e13),
    "fold_sent": _small_or_wide((0.0, 12_500.0), 0.0, 1e7),
    "q": _small_or_wide((0.0, 5_000.0, 60_000.0), 0.0, 1e7),
    "q_last": _small_or_wide((0.0, 5_000.0, 60_000.0), 0.0, 1e7),
    "q_fold": st.sampled_from((0.0, 7_000.0)),
})
_FLOW = st.fixed_dictionaries({
    "hops": st.lists(_HOP, max_size=6),
    "tied": st.booleans(),                  # every hop a copy of the first
    "last": st.sampled_from(("same", "none", "other")),   # L's hop count
})


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


class TestIntSampleColumns:
    """The array engine's Eqn 2 (``int_samples``) against the scalar
    per-hop loop the packet path and the oracle run
    (``Hpcc.int_sample``): the same ``u_max``, tau and bottleneck hop,
    queue and rate, bit for bit, for both rate registers."""

    @pytest.mark.parametrize("cls", [Hpcc, HpccRxRate])
    @settings(max_examples=150, deadline=None)
    @given(flows=st.lists(_FLOW, min_size=1, max_size=6),
           ts_last=st.sampled_from((0.0, 123_456.5)))
    def test_columns_match_scalar_loop(self, cls, flows, ts_last):
        T = 9 * US
        env = CcEnv(sim=None, line_rate=12.5, base_rtt=T, mtu=1000,
                    header=90)
        other = "rx_bytes" if cls.rate_register == "tx_bytes" else "tx_bytes"
        counts, comparable, rows, expected = [], [], [], []
        for f in flows:
            hops = f["hops"]
            if f["tied"]:
                hops = hops[:1] * len(hops)
            stack, last = [], []
            for h in hops:
                ts_now = ts_last + h["dt"]
                reg_now = (h["reg"] + h["sent"]) + (h["fold"] + h["fold_sent"])
                reg_last = h["reg"] + h["fold"]
                q_now = h["q"] + h["q_fold"]
                for record, ts, reg, q in ((stack, ts_now, reg_now, q_now),
                                           (last, ts_last, reg_last,
                                            h["q_last"])):
                    hop = IntHop(h["cap"], ts, 0, q)
                    setattr(hop, cls.rate_register, reg)
                    setattr(hop, other, 3.0 * reg + 7.0)    # must go unread
                    record.append(hop)
                rows.append((ts_now, h["cap"], reg_now, q_now,
                             ts_last, reg_last, h["q_last"]))
            cc = cls(env)
            cc.tap = DecisionTap().trace(0, "hpcc")
            cc.last_hops = {"same": last, "none": None,
                            "other": last + [IntHop(1.0, 0.0, 0, 0)]}[f["last"]]
            expected.append(cc.int_sample(stack))
            counts.append(len(hops))
            comparable.append(f["last"] == "same")
        c = np.array(rows, dtype=float).reshape(-1, 7)
        u_max, tau, (hop, qlen, rate) = int_samples(
            np.array(counts, dtype=np.int64), np.array(comparable),
            c[:, 0], c[:, 1], c[:, 2], c[:, 3], c[:, 4:], T, taps=True,
        )
        for k, (u, t, inputs) in enumerate(expected):
            assert (_bits(u_max[k]), _bits(tau[k])) == (_bits(u), _bits(t))
            if inputs is None:
                assert u < 0
                continue
            assert inputs == {
                "u_instant": u, "bottleneck_hop": hop[k], "qlen": qlen[k],
                cls.rate_key: rate[k], "n_hops": counts[k],
            }
            assert (_bits(qlen[k]), _bits(rate[k])) \
                == (_bits(inputs["qlen"]), _bits(inputs[cls.rate_key]))


class TestArrayInternals:
    """Spot checks of the struct-of-arrays invariants."""

    def test_hop_matrix_pads_with_dummy(self):
        engine = _run(FluidEngine, "hpcc", _fattree_flows(n=4))
        block = engine._batch
        dummy = block._dummy
        assert dummy == engine.arrays.n
        hopm = block._hopm[:block._n]
        lens = (hopm != dummy).sum(axis=1)
        assert (lens >= 2).all()                 # every path has >= 2 links
        # Padding is contiguous on the right.
        for row, k in zip(hopm, lens):
            assert (row[int(k):] == dummy).all()

    def test_dead_rows_compact_away(self, monkeypatch):
        flows = [
            FlowSpec(i, src=i % 8, dst=8 + (i % 8), size=2_000,
                     start_time=i * 40_000.0)
            for i in range(300)
        ]
        engine = FluidEngine(bench_fattree(), cc_name="dcqcn")
        engine.add_flows(flows)

        def bounded(block):
            # The compaction rule: a step never ends with 16 or more
            # dead rows making up an eighth of the block or more.
            dead = block._n - block._alive_n
            assert dead < 16 or dead * 8 < block._n

        after_each_step(monkeypatch, bounded)
        assert engine.run(deadline=DEADLINE)
        # Short staggered flows die continuously: the block never holds
        # more than 15 dead rows beside the one live flow.
        assert engine._batch._n < 16
        assert len(engine.fct_records) == 300

    def test_arrays_synced_back_after_run(self):
        engine = _run(FluidEngine, "dcqcn", _fattree_flows(), goodput_bin=None)
        arrays = engine.arrays
        for i, link in enumerate(engine.graph.link_list):
            assert link.queue == arrays.queue[i]
            assert link.tx_bytes == arrays.tx[i]


# -- step-kernel goldens ---------------------------------------------------------
#
# Four scenarios that drive the row bookkeeping of the array engine
# (compaction, the INT CSR block, row rebuilds under dynamics, hybrid
# residual capacities) and its path sums (queueing delay in series)
# through many steps.  Their values were captured on the engine
# *before* the step kernel was cut down to live rows and touched links;
# any drift in step count, a finish time or a link register is a change
# of model, not of speed.

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fct_digest(records) -> str:
    """Full-precision digest of (flow, start, finish) per FCT record."""
    rows = sorted(records, key=lambda r: r.spec.flow_id)
    return _digest(";".join(
        f"{r.spec.flow_id}:{r.start!r}:{r.finish!r}" for r in rows
    ).encode())


def arrays_digest(arrays) -> str:
    """Digest of every link's queue/tx/rx/dropped register, bit for bit."""
    return _digest(b"".join(
        a.tobytes() for a in (arrays.queue, arrays.tx, arrays.rx,
                              arrays.dropped)
    ))


def compaction_run() -> FluidEngine:
    """Fluid DCQCN on a k=4 FatTree: 400 short flows, 1.2 us apart, into
    four receivers behind 60 KB buffers — rows die continuously, queues
    mark and overflow."""
    rng = random.Random(25)
    sinks = (0, 5, 10, 15)
    flows = []
    for i in range(400):
        dst = sinks[i % 4]
        src = rng.choice([h for h in range(16) if h != dst])
        flows.append(FlowSpec(i, src, dst, rng.randint(2_000, 60_000),
                              start_time=i * 1_200.0))
    engine = FluidEngine(fattree_k(4), cc_name="dcqcn", buffer_bytes=60_000)
    engine.add_flows(flows)
    assert engine.run(deadline=DEADLINE)
    return engine


def reconverge_run() -> FluidEngine:
    """Fluid HPCC: an 8-sender incast into host 0 over short background
    flows, ToR 16's uplink to agg 24 cut and restored mid-incast (each
    followed by a reconvergence), after the background rows compacted."""
    rng = random.Random(26)
    flows = [FlowSpec(i, 4 + i, 0, 400_000, 0.0) for i in range(8)]
    for i in range(8, 208):
        src, dst = rng.sample(range(1, 16), 2)
        flows.append(FlowSpec(i, src, dst, rng.randint(2_000, 30_000),
                              start_time=(i - 8) * 800.0))
    engine = FluidEngine(fattree_k(4), cc_name="hpcc")
    engine.add_flows(flows)

    def fail():
        engine.fail_link(16, 24)
        engine.schedule_event(engine.now + 5_000.0, engine.reconverge)

    def restore():
        engine.restore_link(16, 24)
        engine.reconverge()

    engine.schedule_event(120_000.0, fail)
    engine.schedule_event(220_000.0, restore)
    assert engine.run(deadline=DEADLINE)
    return engine


def hybrid_run(monkeypatch):
    """One mixed hybrid cell (bench fig11, 10 % packet foreground): the
    fluid half throttles against ``capacity - ext_rates``.  Returns the
    merged record and the fluid half's engine."""
    from repro.experiments import figure11
    from repro.runner import CcChoice, execute_spec

    engines = []
    run_to = FluidEngine.run_to

    def spy(self, deadline):
        engines.append(self)
        return run_to(self, deadline)

    monkeypatch.setattr(FluidEngine, "run_to", spy)
    [spec] = figure11.scenarios(
        scale="bench", cases=("50%",),
        schemes=(CcChoice("hpcc", label="HPCC"),),
        overrides={"n_flows": 80},
    )
    record = execute_spec(spec.replaced(**{
        "backend": "hybrid", "workload.foreground": {"kind": "frac", "x": 0.1},
    }))
    assert record.extras["hybrid_mode"] == "mixed"
    return record, engines[0]


def parking_lot_run() -> FluidEngine:
    """Fluid TIMELY on a five-switch parking lot: one end-to-end flow over
    all four trunks, each trunk also carrying three staggered local
    flows, so several hops of one path queue at once.  TIMELY reads the
    summed path queueing delay as RTT, and that sum rounds differently
    if the hop matrix is narrower than eight columns."""
    rng = random.Random(30)
    segments = 5
    end_a, end_b = 2 * segments, 2 * segments + 1
    flows = [FlowSpec(0, end_a, end_b, 2_000_000, 0.0)]
    for i in range(segments - 1):
        for burst in range(3):
            flows.append(FlowSpec(
                len(flows), 2 * i, 2 * (i + 1) + 1,
                rng.randint(100_000, 400_000),
                start_time=burst * 30_000.0 + rng.random() * 5_000,
            ))
    engine = FluidEngine(parking_lot(segments), cc_name="timely")
    engine.add_flows(flows)
    assert engine.run(deadline=DEADLINE)
    return engine


def rxrate_incast_run() -> FluidEngine:
    """Fluid HPCC-rxRate on a k=4 FatTree: eight staggered senders from
    three pods into host 0, so Eqn 2 differences the ``rx`` register
    while the last hop's arrivals exceed its capacity."""
    flows = [FlowSpec(i, 2 + 2 * i - (i > 3), 0, 300_000 + 20_000 * i,
                      start_time=i * 1_000.0)
             for i in range(8)]
    engine = FluidEngine(fattree_k(4), cc_name="hpcc-rxrate")
    engine.add_flows(flows)
    assert engine.run(deadline=DEADLINE)
    return engine


def traced_incast_run() -> tuple[FluidEngine, DecisionTap]:
    """Fluid HPCC with a decision tap on a 4x2 dumbbell: four staggered
    senders into host 4 over two INT hops (trunk, then the last hop),
    plus one flow sharing only the trunk.  While no queue stands the
    two hops carry the same bytes, so their u' tie exactly and the
    bottleneck is the first of them."""
    tap = DecisionTap()
    engine = FluidEngine(dumbbell(4, 2), cc_name="hpcc")
    engine.decision_tap = tap
    flows = [FlowSpec(i, i, 4, 400_000, start_time=i * 3_000.0)
             for i in range(4)]
    flows.append(FlowSpec(4, 3, 5, 300_000, start_time=20_000.0))
    engine.add_flows(flows)
    assert engine.run(deadline=DEADLINE)
    return engine, tap


def reroute_samples_run() -> FluidEngine:
    """Fluid HPCC on a k=4 FatTree, ToR 16's uplink to agg 24 cut at
    20 us, rerouted 15 us later and restored (then rerouted) at 90 us.

    Flows 0 and 3 cross the cut: it drops one telemetry hop from their
    stacks until the reroute, so a fire sees a different INT-hop count.
    Flows 4 and 5 start on the detour and move back at the restore with
    the same count over different links, so their next fire compares
    the new links against the old ones by position.  Flow 1 never
    moves; flow 2 shares host 0's last hop with flow 4."""
    flows = [
        FlowSpec(0, 0, 9, 2_000_000, 0.0),
        FlowSpec(1, 1, 12, 1_500_000, 0.0),
        FlowSpec(2, 4, 0, 1_500_000, 0.0),
        FlowSpec(3, 8, 1, 2_000_000, 0.0),
        FlowSpec(4, 13, 0, 1_000_000, 45_000.0),
        FlowSpec(5, 6, 1, 1_000_000, 45_000.0),
    ]
    engine = FluidEngine(fattree_k(4), cc_name="hpcc")
    engine.add_flows(flows)

    def fail():
        engine.fail_link(16, 24)
        engine.schedule_event(engine.now + 15_000.0, engine.reconverge)

    def restore():
        engine.restore_link(16, 24)
        engine.reconverge()

    engine.schedule_event(20_000.0, fail)
    engine.schedule_event(90_000.0, restore)
    assert engine.run(deadline=DEADLINE)
    return engine


#: Captured on the engine whose step ran over every row, a fixed
#: eight-column hop matrix and every link (commit ca15eb1).
GOLDEN_COMPACTION = (400, "fadda7f5faa1db79", "1537979ada9c9dcc")
GOLDEN_RECONVERGE = (228, "88a420c481336c96", "edfe2cc56c7ae43e")
GOLDEN_HYBRID = (154, "2c1362125f716ce8", "e2454500e72328e7")
GOLDEN_PARKING_LOT = (92, "49dd78542b648e6f", "099c59a3c4010c2a")
#: Captured on the engine that replayed one synthetic INT ACK per fire
#: through ``Hpcc.on_ack`` (commit 080a027).
GOLDEN_RXRATE_INCAST = (48, "81cd0a1ab976b3aa", "186fa9da9b9a86a8")
GOLDEN_TRACED_INCAST = (
    44, "b5e744552bd32bc8", "ff888564354b0aab", "6444b510411512e3",
)
GOLDEN_REROUTE_SAMPLES = (35, "e247d467a4482e2a", "a806f2246365f433")


class TestStepGoldens:
    """(fluid steps, FCT digest, link-register digest) per scenario."""

    def test_compaction_golden(self):
        engine = compaction_run()
        assert (engine.steps, fct_digest(engine.fct_records),
                arrays_digest(engine.arrays)) == GOLDEN_COMPACTION

    def test_reconverge_golden(self):
        engine = reconverge_run()
        assert (engine.steps, fct_digest(engine.fct_records),
                arrays_digest(engine.arrays)) == GOLDEN_RECONVERGE

    def test_hybrid_golden(self, monkeypatch):
        record, engine = hybrid_run(monkeypatch)
        fct = _digest(json.dumps(record.fct, sort_keys=True).encode())
        assert (record.extras["fluid_steps"], fct,
                arrays_digest(engine.arrays)) == GOLDEN_HYBRID

    def test_parking_lot_golden(self):
        engine = parking_lot_run()
        assert (engine.steps, fct_digest(engine.fct_records),
                arrays_digest(engine.arrays)) == GOLDEN_PARKING_LOT

    def test_rxrate_incast_golden(self):
        engine = rxrate_incast_run()
        assert (engine.steps, fct_digest(engine.fct_records),
                arrays_digest(engine.arrays)) == GOLDEN_RXRATE_INCAST

    def test_traced_incast_golden(self):
        """The decision stream, bottleneck attribution included, is
        pinned byte for byte (plus the usual three digests)."""
        engine, tap = traced_incast_run()
        stream = _digest(json.dumps(tap.decisions()).encode())
        assert (engine.steps, fct_digest(engine.fct_records),
                arrays_digest(engine.arrays), stream) == GOLDEN_TRACED_INCAST

    def test_reroute_samples_golden(self):
        engine = reroute_samples_run()
        assert (engine.steps, fct_digest(engine.fct_records),
                arrays_digest(engine.arrays)) == GOLDEN_REROUTE_SAMPLES


def after_each_step(monkeypatch, check) -> None:
    """Call ``check(batch)`` after every ``FluidBatch._advance``."""
    advance = FluidBatch._advance

    def checked(self, stepping):
        advance(self, stepping)
        check(self)

    monkeypatch.setattr(FluidBatch, "_advance", checked)


class TestStepInvariants:
    """The incremental row bookkeeping agrees with a from-scratch
    recomputation after every step of every golden scenario."""

    @pytest.fixture
    def watched(self, monkeypatch):
        appended = {}                   # id(flow) -> (latest append, flow)
        order = itertools.count()
        append = FluidBatch._append_row
        compact = FluidBatch._compact
        compacted_at = []

        def spy(self, flow, k):
            appended[id(flow)] = (next(order), flow)
            append(self, flow, k)

        def compact_spy(self):
            compacted_at.append(self.cells[0].now)
            compact(self)

        def check(block):
            n, L = block._n, block._dummy
            alive = block._alive[:n]
            # A touched set not flagged stale still covers exactly the
            # alive rows' links (compaction moves rows without a flag).
            if not block._touched_stale:
                mask = np.zeros(L + 1, dtype=bool)
                mask[block._hopm[:n][alive].ravel()] = True
                assert np.array_equal(block._touched_idx,
                                      np.flatnonzero(mask[:L]))
            # The per-link alive counts are exact: padding counts on no
            # link (the dummy included).
            hops = block._hopm[:n][alive].ravel()
            assert np.array_equal(block._link_load,
                                  np.bincount(hops, minlength=L + 1)[:L])
            assert block._link_load.min(initial=0) >= 0
            # Rows [0, n) hold the alive flows in admission order, and a
            # dead row is a finished flow.
            assert len(block._flows) == n
            assert block._alive_n == int(alive.sum())
            assert [f.proxy.done for f in block._flows] == (~alive).tolist()
            parked = {id(f) for f in block.cells[0]._parked}
            expect = [f for _, f in sorted(appended.values(),
                                           key=lambda e: e[0])
                      if not f.proxy.done and id(f) not in parked]
            rows = [f for f, a in zip(block._flows, alive) if a]
            assert [id(f) for f in rows] == [id(f) for f in expect]

        monkeypatch.setattr(FluidBatch, "_append_row", spy)
        monkeypatch.setattr(FluidBatch, "_compact", compact_spy)
        after_each_step(monkeypatch, check)
        return compacted_at

    def test_compaction_run(self, watched):
        engine = compaction_run()
        assert engine.steps == GOLDEN_COMPACTION[0]
        assert len(watched) >= 3

    def test_reconverge_run(self, watched):
        engine = reconverge_run()
        assert engine.steps == GOLDEN_RECONVERGE[0]
        assert watched and watched[0] < 120_000.0      # before the cut

    def test_hybrid_run(self, watched, monkeypatch):
        record, _ = hybrid_run(monkeypatch)
        assert record.extras["fluid_steps"] == GOLDEN_HYBRID[0]
