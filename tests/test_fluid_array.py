"""Array engine vs scalar reference: numerical equivalence contracts.

The vectorized :class:`~repro.fluid.FluidEngine` and the loop-per-flow
:class:`tests.fluid_reference.ScalarFluidEngine` (the oracle, which
lives beside these tests) implement the same fluid model;
this module pins *how* equal they must stay:

* **Bit-exact**, with simultaneous or staggered starts: the array
  kernels were built to replay the scalar arithmetic
  operation-for-operation (flow-major accumulation order, matching
  division/branch structure), and both engines admit a flow that starts
  inside a step at its offset into it and fire CC once per accumulated
  RTT, so every scheme's FCTs and goodput bins must match to the last
  bit.
* **Identical dynamics**: fail/restore + reconvergence must produce the
  same reroute counts, parked-flow behaviour and FCTs — routing is
  topology + deterministic ECMP hash, never numerical.
* **In-step admission** keeps a flow's own clock: on an idle path it
  finishes at its ideal FCT, and no flow delivers less than its bytes
  or finishes faster than its line rate allows.

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
from hypothesis import example, given, settings, strategies as st

from repro.core.base import CcEnv, DecisionTap
from repro.core.hpcc import Hpcc
from repro.core.hpcc_variants import HpccRxRate
from repro.core.registry import get_scheme
from repro.fluid import FluidBatch, FluidEngine, GoodputRecorder
from repro.fluid.adapters import int_samples
from repro.fluid.programs import FluidBackend
from repro.runner import ScenarioSpec
from repro.runner.harness import sample_probes
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
    """The two engines are the same computation."""

    @pytest.mark.parametrize("cc", ALL_SCHEMES)
    def test_fcts_bit_identical_on_simultaneous_starts(self, cc):
        flows = _fattree_flows()
        array = _run(FluidEngine, cc, flows)
        scalar = _run(ScalarFluidEngine, cc, flows)
        array_fct = {r.spec.flow_id: r.finish for r in array.fct_records}
        scalar_fct = {r.spec.flow_id: r.finish for r in scalar.fct_records}
        assert array_fct == scalar_fct       # == : bit-exact, no tolerance

    @pytest.mark.parametrize("cc", ALL_SCHEMES)
    def test_fcts_bit_identical_on_staggered_starts(self, cc):
        """Arrivals 2.5 us apart join steps at their offsets on both
        engines, so the two stay exact."""
        flows = _fattree_flows(stagger_ns=2_500.0)
        array = _run(FluidEngine, cc, flows)
        scalar = _run(ScalarFluidEngine, cc, flows)
        array_fct = {r.spec.flow_id: r.finish for r in array.fct_records}
        scalar_fct = {r.spec.flow_id: r.finish for r in scalar.fct_records}
        assert array_fct == scalar_fct
        assert array.steps == scalar.steps

    def test_goodput_bins_bit_identical(self):
        flows = _fattree_flows()
        array = _run(FluidEngine, "hpcc", flows, goodput_bin=10_000.0)
        scalar = _run(ScalarFluidEngine, "hpcc", flows, goodput_bin=10_000.0)
        assert array.goodput_bins == scalar.goodput_bins
        assert array.goodput_payload() == scalar.goodput_payload()

    def test_queue_samples_bit_identical(self):
        """Both engines sample one probe map: every switch egress by
        default, then the busiest one declared under its own label."""
        flows = _fattree_flows()
        declared = None
        for _ in range(2):
            probes = sample_probes(bench_fattree(), declared)
            array = _run(FluidEngine, "dcqcn", flows,
                         sample_interval=BASE_RTT, probes=probes)
            scalar = _run(ScalarFluidEngine, "dcqcn", flows,
                          sample_interval=BASE_RTT, probes=probes)
            assert list(array.queue_samples) == list(probes)
            assert array.queue_samples == scalar.queue_samples
            busiest = max(probes, key=lambda label: max(
                array.queue_samples[label]["qlens"]))
            assert max(array.queue_samples[busiest]["qlens"]) > 0.0
            declared = [["bneck", "between", *probes[busiest]]]
        assert list(array.queue_samples) == ["bneck"]


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
        assert a_fct == s_fct

    def test_engine_state_consistent_after_dynamics(self):
        _, _, fct = self._run_dynamics(FluidEngine, "hpcc")
        # The cut stalls the parked flows for ~1ms; the untouched flow
        # must finish well before them.
        assert fct[3] < fct[1] and fct[3] < fct[2]


class TestInStepAdmission:
    """A flow starting inside a step joins it at its offset: the step is
    not cut, and the flow still runs on its own clock."""

    @staticmethod
    def _star_run(engine_cls, cc: str, extra: list[FlowSpec]):
        engine = engine_cls(star(n_hosts=4), cc_name=cc, base_rtt=BASE_RTT)
        engine.add_flows([FlowSpec(0, 0, 1, 2_000_000, 0.0), *extra])
        assert engine.run(deadline=DEADLINE)
        return engine

    @pytest.mark.parametrize("engine_cls", [FluidEngine, ScalarFluidEngine])
    @pytest.mark.parametrize("cc", ALL_SCHEMES)
    def test_mid_step_arrival_on_an_idle_path_finishes_at_its_ideal(
            self, engine_cls, cc):
        """Flow 0 keeps steps running; flow 1 starts 3.7 us into one, on
        a path nobody else uses, and finishes inside it.  Flow 2 spans
        several steps on another idle path (rate-based schemes only:
        HPCC's eta target slows a lone flow after its first window)."""
        extra = [FlowSpec(1, 2, 3, 20_000, 3_700.0)]
        if not get_scheme(cc).needs_int:
            extra.append(FlowSpec(2, 3, 2, 300_000, 4_100.5))
        engine = self._star_run(engine_cls, cc, extra)
        alone = self._star_run(engine_cls, cc, [])
        assert engine.steps == alone.steps          # no step was cut
        records = {r.spec.flow_id: r for r in engine.fct_records}
        for spec in extra:
            r = records[spec.flow_id]
            assert r.start == spec.start_time
            assert (r.finish - r.start) / r.ideal == 1.0

    @settings(deadline=None, max_examples=25)
    @given(
        flows=st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 15),
                      st.integers(1, 300_000),
                      st.floats(0.0, 60_000.0, allow_nan=False)),
            min_size=1, max_size=12,
        ),
        cc=st.sampled_from(ALL_SCHEMES),
    )
    @example(flows=[(0, 1, 300_000, 0.0), (2, 15, 1, 1_234.5),
                    (4, 1, 50_000, 8_999.0)], cc="hpcc")
    def test_every_flow_delivers_its_bytes_no_faster_than_line_rate(
            self, flows, cc):
        specs = [FlowSpec(i, src, (src + hop) % 16, size, start)
                 for i, (src, hop, size, start) in enumerate(flows)]
        topo = fattree_k(4)
        for engine_cls in (FluidEngine, ScalarFluidEngine):
            engine = engine_cls(topo, cc_name=cc, goodput_bin=1_000.0)
            engine.add_flows(specs)
            assert engine.run(deadline=DEADLINE)
            bins = engine.goodput_bins
            assert len(engine.fct_records) == len(specs)
            for r in engine.fct_records:
                spec = r.spec
                wire = spec.size * engine.wire_factor
                line = topo.host_rate(spec.src)
                assert r.start == spec.start_time
                assert r.finish - r.start >= wire / line * (1 - 1e-12)
                got = bins[spec.flow_id]
                assert sum(got.values()) == pytest.approx(spec.size,
                                                          rel=1e-9)
                assert min(got) >= int(spec.start_time // 1_000.0)


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
    "gap": st.booleans(),   # a cut, non-INT column precedes this hop
})
_FLOW = st.fixed_dictionaries({
    "hops": st.lists(_HOP, max_size=6),
    "tied": st.booleans(),                  # every hop a copy of the first
    "last": st.sampled_from(("same", "none", "other")),   # L's hop count
})


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


def _hop(cap, dt, reg, sent, q, q_last, gap=False) -> dict:
    """One ``_HOP`` drawn by hand, without foreground folds."""
    return {"cap": cap, "dt": dt, "reg": reg, "sent": sent, "fold": 0.0,
            "fold_sent": 0.0, "q": q, "q_last": q_last, "q_fold": 0.0,
            "gap": gap}


class TestIntSampleColumns:
    """The array engine's Eqn 2 (``int_samples``, one row of hop-matrix
    columns per flow) against the scalar per-hop loop the packet path
    and the oracle run (``Hpcc.int_sample``): the same ``u_max``, tau
    and bottleneck hop, queue and rate, bit for bit, for both rate
    registers.

    A hop with ``gap`` set follows an unmasked zero-capacity column (a
    cut link mid-path), and every row ends in at least ``pad`` unmasked
    padding columns.  Unmasked columns advance no ts and have no
    capacity, so an unguarded division by either raises."""

    @pytest.mark.parametrize("cls", [Hpcc, HpccRxRate])
    @settings(max_examples=150, deadline=None)
    @given(flows=st.lists(_FLOW, min_size=1, max_size=6),
           ts_last=st.sampled_from((0.0, 123_456.5)),
           pad=st.integers(0, 3))
    # A zero-capacity link between two INT hops, the bottleneck after it.
    @example(flows=[{"hops": [_hop(12.5, 9e3, 4e6, 12_500.0, 0.0, 0.0),
                              _hop(12.5, 9e3, 4e6, 112_500.0, 5e3, 6e3,
                                   gap=True)],
                     "tied": False, "last": "same"}], ts_last=0.0, pad=0)
    # Rows shorter than the matrix, one with no INT hop at all.
    @example(flows=[{"hops": hops, "tied": False, "last": "same"}
                    for hops in ([_hop(50.0, 1e3, 0.0, 12_500.0, 6e4, 5e3)]
                                 * 3, [_hop(50.0, 1e3, 0.0, 0.0, 0.0, 0.0)],
                                 [])], ts_last=0.0, pad=2)
    def test_columns_match_scalar_loop(self, cls, flows, ts_last, pad):
        T = 9 * US
        env = CcEnv(sim=None, line_rate=12.5, base_rtt=T, mtu=1000,
                    header=90)
        other = "rx_bytes" if cls.rate_register == "tx_bytes" else "tx_bytes"
        unmasked = (False, ts_last, 0.0, 5e6, 3e4, ts_last, 7e6, 2e4)
        rows, expected = [], []
        for f in flows:
            hops = f["hops"]
            if f["tied"]:
                hops = hops[:1] * len(hops)
            stack, last, cols = [], [], []
            for h in hops:
                if h["gap"]:
                    cols.append(unmasked)
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
                cols.append((True, ts_now, h["cap"], reg_now, q_now,
                             ts_last, reg_last, h["q_last"]))
            rows.append(cols)
            cc = cls(env)
            cc.tap = DecisionTap().trace(0, "hpcc")
            cc.last_hops = {"same": last, "none": None,
                            "other": last + [IntHop(1.0, 0.0, 0, 0)]}[f["last"]]
            expected.append(cc.int_sample(stack))
        width = max(max(map(len, rows)) + pad, 1)     # a row has a column
        c = np.array(
            [cols + [unmasked] * (width - len(cols)) for cols in rows],
            dtype=float,
        ).reshape(len(rows), width, 8)
        comparable = np.array([f["last"] == "same" for f in flows])
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            u_max, tau, (hop, qlen, rate, n_hops) = int_samples(
                c[..., 0] > 0.0, comparable, c[..., 1], c[..., 2], c[..., 3],
                c[..., 4], c[..., 5:], T, taps=True,
            )
        for k, (u, t, inputs) in enumerate(expected):
            assert (_bits(u_max[k]), _bits(tau[k])) == (_bits(u), _bits(t))
            assert n_hops[k] == len(flows[k]["hops"])
            if inputs is None:
                assert u < 0 and hop[k] == -1
                continue
            assert inputs == {
                "u_instant": u, "bottleneck_hop": hop[k], "qlen": qlen[k],
                cls.rate_key: rate[k], "n_hops": n_hops[k],
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

    #: FluidLink register -> the LinkArrays vector it reads and writes.
    REGISTERS = (("capacity", "capacity"), ("queue", "queue"),
                 ("tx_bytes", "tx"), ("rx_bytes", "rx"),
                 ("dropped_bytes", "dropped"))

    @classmethod
    def _assert_links_read_registers(cls, engine):
        arrays = engine.arrays
        for i, link in enumerate(engine.graph.link_list):
            for name, vector in cls.REGISTERS:
                value = getattr(link, name)
                assert type(value) is float, (link, name)
                assert value == getattr(arrays, vector)[i], (link, name)

    def _dynamics_cell(self, checked: list[str]) -> FluidEngine:
        """A DCQCN incast whose most-queued egress is cut, restored and
        degraded mid-run, checking every link's registers after each."""
        engine = FluidEngine(bench_fattree(), cc_name="dcqcn")
        engine.add_flows([FlowSpec(i, i, 15, 400_000, 0.0) for i in range(8)])
        cut = []

        def fail():
            link = max(engine.graph.link_list, key=lambda l: l.queue)
            cut.append((link.a, link.b))
            engine.fail_link(*cut[0])
            assert link.capacity == 0.0 and link.dropped_bytes > 0.0
            self._assert_links_read_registers(engine)
            checked.append("fail")

        def restore():
            engine.restore_link(*cut[0])
            self._assert_links_read_registers(engine)
            checked.append("restore")

        def degrade():
            engine.degrade_link(*cut[0], rate_factor=0.5)
            self._assert_links_read_registers(engine)
            checked.append("degrade")

        engine.schedule_event(20_000.0, fail)
        engine.schedule_event(40_000.0, restore)
        engine.schedule_event(60_000.0, degrade)
        return engine

    def test_arrays_synced_back_after_run(self):
        engine = _run(FluidEngine, "dcqcn", _fattree_flows(), goodput_bin=None)
        self._assert_links_read_registers(engine)
        # Under dynamics, solo ...
        checked = []
        engine = self._dynamics_cell(checked)
        assert engine.run(deadline=DEADLINE)
        assert checked == ["fail", "restore", "degrade"]
        self._assert_links_read_registers(engine)
        # ... and as the second cell of a two-cell batch, whose links
        # read and write the batch's vectors.
        checked = []
        engine = self._dynamics_cell(checked)
        other = FluidEngine(bench_fattree(), cc_name="hpcc")
        other.add_flows(_fattree_flows())
        batch = FluidBatch([other, engine])
        assert dict(batch.run([DEADLINE, DEADLINE])) == {0: True, 1: True}
        assert checked == ["fail", "restore", "degrade"]
        off = engine._link_off
        assert off == other.arrays.n
        for _, vector in self.REGISTERS:
            view = getattr(engine.arrays, vector)
            assert np.shares_memory(view, getattr(batch, vector))
            assert (view == getattr(batch, vector)[off:off + view.size]).all()
        self._assert_links_read_registers(engine)
        self._assert_links_read_registers(other)


# -- step-kernel goldens ---------------------------------------------------------
#
# Four scenarios that drive the row bookkeeping of the array engine
# (compaction, the INT mask and L, row rebuilds under dynamics, hybrid
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
    run = FluidEngine.run

    def spy(self, deadline):
        engines.append(self)
        return run(self, deadline)

    monkeypatch.setattr(FluidEngine, "run", spy)
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


#: Captured once arrivals joined a step at their offset instead of
#: cutting it.  Every scenario's FCTs but the parking lot's (whose path
#: delays the oracle sums left to right) then equal
#: tests/fluid_reference.py's bit for bit.
GOLDEN_COMPACTION = (37, "3ab0c01f90bb8016", "5e447e9f4d180575")
GOLDEN_RECONVERGE = (41, "1d324f3ecc579b62", "774534f8f3a15fa9")
GOLDEN_HYBRID = (83, "34af807794e2bdb1", "856b8388c13923cb")
GOLDEN_PARKING_LOT = (75, "673657223a947694", "b7f84d233a9d35dc")
GOLDEN_RXRATE_INCAST = (39, "54f33b97494c6ef0", "a890612023442989")
GOLDEN_TRACED_INCAST = (
    39, "41707356b42d5bc5", "043faa954faa4e0b", "f141c97584967f4d",
)
GOLDEN_REROUTE_SAMPLES = (33, "2fd4ab33b2d38b0a", "eebe86c0150659f3")


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
        append = FluidBatch._append_rows
        compact = FluidBatch._compact
        compacted_at = []

        def spy(self, flows, k, offsets=None):
            for flow in flows:
                appended[id(flow)] = (next(order), flow)
            append(self, flows, k, offsets)

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
            parked = {id(f) for c in block.cells for f in c._parked}
            expect = [f for _, f in sorted(appended.values(),
                                           key=lambda e: e[0])
                      if not f.proxy.done and id(f) not in parked]
            rows = [f for f, a in zip(block._flows, alive) if a]
            assert [id(f) for f in rows] == [id(f) for f in expect]
            # Each alive row's INT mask is the telemetry filter over
            # its real hops (switch egress, capacity > 0) on an INT
            # cell's row, and all False on padding and on other rows.
            hopm = block._hopm[:n][alive]
            cells = block._cell[:n][alive]
            needs_int = np.array([c._needs_int for c in block.cells])
            egress = np.append(block.egress, False)       # the dummy
            capacity = np.append(block.capacity, 0.0)
            expect = egress[hopm] & (capacity[hopm] > 0.0)
            expect &= needs_int[cells][:, None]
            assert np.array_equal(block._intm[:n][alive], expect)

        monkeypatch.setattr(FluidBatch, "_append_rows", spy)
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

    def test_mixed_batch_run(self, watched):
        """An HPCC cell and a DCQCN cell in one batch: compaction hands
        each cell's new rows slots the other cell's rows held."""
        cells = []
        for cc, seed in (("hpcc", 27), ("dcqcn", 28)):
            rng = random.Random(seed)
            engine = FluidEngine(fattree_k(4), cc_name=cc)
            engine.add_flows(
                FlowSpec(i, *rng.sample(range(16), 2),
                         rng.randint(2_000, 60_000), start_time=i * 1_500.0)
                for i in range(200)
            )
            cells.append(engine)
        outcomes = dict(FluidBatch(cells).run([DEADLINE, DEADLINE]))
        assert outcomes == {0: True, 1: True}
        assert len(watched) >= 3

    def test_hybrid_run(self, watched, monkeypatch):
        record, _ = hybrid_run(monkeypatch)
        assert record.extras["fluid_steps"] == GOLDEN_HYBRID[0]
