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

import random

import numpy as np
import pytest

from repro.fluid import FluidEngine, GoodputRecorder
from repro.fluid.programs import FluidBackend
from repro.runner import ScenarioSpec
from repro.sim.flow import FlowSpec
from repro.sim.units import US
from repro.topology import star
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


class TestArrayInternals:
    """Spot checks of the struct-of-arrays invariants."""

    def test_hop_matrix_pads_with_dummy(self):
        engine = _run(FluidEngine, "hpcc", _fattree_flows(n=4))
        dummy = engine._dummy
        assert dummy == engine.arrays.n
        hopm = engine._hopm[:engine._n]
        lens = (hopm != dummy).sum(axis=1)
        assert (lens >= 2).all()                 # every path has >= 2 links
        # Padding is contiguous on the right.
        for row, k in zip(hopm, lens):
            assert (row[int(k):] == dummy).all()

    def test_dead_rows_compact_away(self):
        flows = [
            FlowSpec(i, src=i % 8, dst=8 + (i % 8), size=2_000,
                     start_time=i * 40_000.0)
            for i in range(300)
        ]
        engine = FluidEngine(bench_fattree(), cc_name="dcqcn")
        engine.add_flows(flows)
        assert engine.run(deadline=DEADLINE)
        # Short staggered flows die continuously; compaction keeps the
        # live row block from growing monotonically to 300.
        assert engine._n < 200
        assert len(engine.fct_records) == 300

    def test_arrays_synced_back_after_run(self):
        engine = _run(FluidEngine, "dcqcn", _fattree_flows(), goodput_bin=None)
        arrays = engine.arrays
        for i, link in enumerate(engine.graph.link_list):
            assert link.queue == arrays.queue[i]
            assert link.tx_bytes == arrays.tx[i]
