"""Block admission: the flows due in one step join as one block of rows.

``FluidEngine._admit_starts`` collects a step's due flows and
``FluidBatch._append_rows`` writes them in one vectorised append.  These
tests hold that block to the one-row-at-a-time append it replaced (byte
for byte) and to the scalar oracle, ``tests/fluid_reference.py``, on a
two-cell batch where many flows start inside one step, some at its
start and some at offsets into it, and some park behind a cut link.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fluid import FluidBatch, FluidEngine
from repro.fluid.adapters import (
    CnpAdapter, EcnAdapter, IntAdapter, RttAdapter, adapter_for,
)
from repro.core.registry import get_scheme
from repro.sim.flow import FlowSpec
from repro.sim.units import US
from repro.topology import star
from repro.topology.fattree import bench_fattree
from tests.fluid_reference import ScalarFluidEngine

BASE_RTT = 9 * US
DEADLINE = 50e6
#: The cut (with reconvergence) lands on a step boundary; the block of
#: starts follows it inside the next step, which lasts one base RTT.
CUT, RESTORE = 15 * US, 60 * US
#: Host 4's only link: flows to it park while it is down.
CUT_LINK = (6, 4)


def block_flows() -> list[FlowSpec]:
    """Two early flows, then fourteen starting in the step after the
    cut: two at its start, twelve at offsets into it, every third one
    towards the cut host."""
    flows = [FlowSpec(0, 0, 1, 1_500_000, 0.0),
             FlowSpec(1, 5, 3, 800_000, 4_000.0)]
    starts = [CUT, CUT] + [CUT + 300.0 + 600.0 * j for j in range(12)]
    for j, start in enumerate(starts):
        dst = 4 if j % 3 == 1 else 1 + j % 3
        flows.append(FlowSpec(2 + j, 0 if j % 2 else 5, dst,
                              20_000 + 37_000 * j, start))
    return flows


def build(engine_cls, cc: str):
    engine = engine_cls(star(n_hosts=6, host_rate="10Gbps", link_delay="1us"),
                        cc_name=cc, base_rtt=BASE_RTT)
    engine.add_flows(block_flows())
    parked = []

    def cut():
        engine.fail_link(*CUT_LINK)
        engine.reconverge()

    def restore():
        parked.append(len(engine._parked))
        engine.restore_link(*CUT_LINK)
        engine.reconverge()

    engine.schedule_event(CUT, cut)
    engine.schedule_event(RESTORE, restore)
    return engine, parked


def finishes(engine) -> dict[int, float]:
    return {r.spec.flow_id: r.finish for r in engine.fct_records}


class TestBlockAdmission:
    @pytest.mark.parametrize("schemes", [("hpcc", "dcqcn"),
                                         ("timely", "hpcc-rxrate")])
    def test_two_cell_batch_matches_the_oracle(self, schemes, monkeypatch):
        blocks = []
        append = FluidBatch._append_rows

        def spy(self, flows, k, offsets=None):
            blocks.append((k, len(flows), offsets))
            append(self, flows, k, offsets)

        monkeypatch.setattr(FluidBatch, "_append_rows", spy)
        cells = [build(FluidEngine, cc) for cc in schemes]
        engines = [engine for engine, _ in cells]
        outcomes = dict(FluidBatch(engines).run([DEADLINE] * 2))
        assert outcomes == {0: True, 1: True}
        for (engine, parked), cc in zip(cells, schemes):
            oracle, oracle_parked = build(ScalarFluidEngine, cc)
            assert oracle.run(DEADLINE)
            assert finishes(engine) == finishes(oracle)     # bit-exact
            assert engine.steps == oracle.steps
            assert parked == oracle_parked == [5]
            assert not engine._parked
        # Each cell admitted the step after the cut in two blocks: the
        # flow due at its start, then the eight starting inside it at
        # their offsets; the five flows to the cut host parked until the
        # restore re-admitted them with the rows it rebuilt.
        for k in (0, 1):
            admitted = [(n, offsets) for c, n, offsets in blocks
                        if c == k and offsets is not None]
            assert (1, [0.0]) in admitted
            assert (8, [300.0 + 600.0 * (j - 2)
                        for j in (2, 3, 5, 6, 8, 9, 11, 12)]) in admitted

    def test_block_rows_equal_row_by_row_appends(self):
        """One block append writes the same bytes as appending its flows
        one at a time, resizes and the INT masks included."""

        def batch_with(append_block: bool) -> FluidBatch:
            engine = FluidEngine(bench_fattree(), cc_name="hpcc",
                                 base_rtt=BASE_RTT)
            hosts = engine.topology.hosts
            assert len(hosts) == 16
            engine.add_flows(FlowSpec(i, hosts[i % 16],
                                      hosts[(5 * i + 3) % 16],
                                      50_000 + i, 0.0) for i in range(70))
            batch = FluidBatch([engine])
            flows = engine._starts
            engine._admit([])                   # no flows: no rows
            if append_block:
                engine._admit(flows, [0.0] * 3 + [100.0] * 67)
            else:
                for j, flow in enumerate(flows):
                    engine._admit([flow], [0.0 if j < 3 else 100.0])
            return batch

        block, single = batch_with(True), batch_with(False)
        assert block._n == single._n == 70
        assert block._alive.shape == single._alive.shape == (128,)
        for name in FluidBatch._ROW_ARRAYS:
            a, b = getattr(block, name)[:70], getattr(single, name)[:70]
            assert a.tobytes() == b.tobytes(), name
        assert np.array_equal(block._link_load, single._link_load)
        assert block._intm[:70].any()
        assert block._offsets and single._offsets
        assert block._registers == single._registers == {"tx"}


class TestSyntheticAcks:
    """Only the adapters that send ACKs build one."""

    @pytest.mark.parametrize("scheme, family, acks", [
        ("hpcc", IntAdapter, False), ("dcqcn", CnpAdapter, False),
        ("timely", RttAdapter, True), ("dctcp", EcnAdapter, True),
    ])
    def test_ack_packet_only_where_sent(self, scheme, family, acks):
        engine = FluidEngine(star(n_hosts=2), cc_name=scheme)
        adapter = adapter_for(get_scheme(scheme), engine._env(12.5), {})
        assert type(adapter) is family
        assert hasattr(adapter, "_ack_pkt") is acks
