"""HPCC design-choice variants: per-ACK, per-RTT, rxRate."""

import pytest

from repro.core.hpcc import Hpcc
from repro.core.hpcc_variants import HpccPerAck, HpccPerRtt, HpccRxRate
from repro.sim.units import gbps

from tests.helpers import FakeFlow, make_int_ack


def install(cls, env, **kw):
    cc = cls(env, **kw)
    flow = FakeFlow()
    cc.install(flow)
    return cc, flow


def congested_ack(env, seq, ts, tx):
    """An ACK reporting a BDP-deep queue at full txRate."""
    return make_int_ack(seq, [(gbps(100), ts, tx, int(env.bdp))])


class TestPerAck:
    @staticmethod
    def _run_congested_acks(cls, env, n_acks=6):
        cc, flow = install(cls, env, wai=0.0)
        flow.snd_nxt = 1_000_000        # all ACKs fall inside one RTT round
        cc.on_ack(flow, make_int_ack(0, [(gbps(100), 0.0, 0, 0)]), now=0.0)
        for k in range(1, n_acks + 1):
            cc.on_ack(flow, congested_ack(env, 1000 * k, 1000.0 * k,
                                          12_500 * k), now=1000.0 * k)
        return flow.window

    def test_reactions_compound_vs_baseline(self, env):
        """Per-ACK reacts to every ACK against a moving base, so ACKs
        describing the same queue compound (the Figure 5 overreaction);
        baseline HPCC holds its reference window for the round."""
        per_ack = self._run_congested_acks(HpccPerAck, env)
        baseline = self._run_congested_acks(Hpcc, env)
        assert per_ack < 0.8 * baseline

    def test_each_ack_moves_reference(self, env):
        cc, flow = install(HpccPerAck, env, wai=0.0)
        flow.snd_nxt = 1_000_000
        cc.on_ack(flow, make_int_ack(0, [(gbps(100), 0.0, 0, 0)]), now=0.0)
        cc.on_ack(flow, congested_ack(env, 1000, 1000.0, 12_500), now=1000.0)
        wc1 = cc.wc
        cc.on_ack(flow, congested_ack(env, 2000, 2000.0, 25_000), now=2000.0)
        assert cc.wc < wc1


class TestOneNewAck:
    """The three classes share ``Hpcc.on_ack``; the tap shows which ACKs
    each reacts to and on which it syncs W^c."""

    class Tap:
        def __init__(self):
            self.synced = []

        def record(self, now, kind, branch, rate0, win0, rate, window, inputs):
            self.synced.append(inputs["wc_synced"])

    @pytest.mark.parametrize("cls, synced", [
        (Hpcc, [1, 0, 0, 0]),           # every ACK reacts, the first syncs
        (HpccPerAck, [1, 1, 1, 1]),     # every ACK reacts and syncs
        (HpccPerRtt, [1]),              # only the syncing ACK reacts
    ])
    def test_reactions_and_syncs_within_one_round(self, env, cls, synced):
        cc, flow = install(cls, env, wai=0.0)
        cc.tap = tap = self.Tap()
        flow.snd_nxt = 1_000_000        # all ACKs fall inside one RTT round
        cc.on_ack(flow, make_int_ack(0, [(gbps(100), 0.0, 0, 0)]), now=0.0)
        for k in range(1, 5):
            cc.on_ack(flow, congested_ack(env, 1000 * k, 1000.0 * k,
                                          12_500 * k), now=1000.0 * k)
        assert tap.synced == synced
        assert HpccPerAck.on_ack is HpccPerRtt.on_ack is Hpcc.on_ack
        # One Eqn 2 loop too: rxRate swaps the register it reads, not the
        # loop, and NewAck's sample-fed entry is the same for all four.
        for name in ("measure_inflight", "int_sample", "on_int_sample"):
            fn = getattr(Hpcc, name)
            assert all(getattr(c, name) is fn
                       for c in (HpccPerAck, HpccPerRtt, HpccRxRate))


class TestPerRtt:
    def test_mid_rtt_acks_ignored(self, env):
        cc, flow = install(HpccPerRtt, env, wai=0.0)
        flow.snd_nxt = 100_000
        # Priming ACK (seq 0 is not > lastUpdateSeq 0: no W update).
        cc.on_ack(flow, make_int_ack(0, [(gbps(100), 0.0, 0, 0)]), now=0.0)
        # Boundary ACK: seq 1000 > 0 -> reacts, lastUpdateSeq = 100000.
        cc.on_ack(flow, congested_ack(env, 1000, 1000.0, 12_500), now=1000.0)
        w1 = flow.window
        # Mid-RTT ACKs (seq < 100000) must not move the window at all.
        cc.on_ack(flow, congested_ack(env, 2000, 2000.0, 25_000), now=2000.0)
        cc.on_ack(flow, congested_ack(env, 3000, 3000.0, 37_500), now=3000.0)
        assert flow.window == w1

    def test_next_rtt_boundary_reacts(self, env):
        cc, flow = install(HpccPerRtt, env, wai=0.0)
        flow.snd_nxt = 5_000
        cc.on_ack(flow, make_int_ack(0, [(gbps(100), 0.0, 0, 0)]), now=0.0)
        cc.on_ack(flow, congested_ack(env, 1000, 1000.0, 12_500), now=1000.0)
        w1 = flow.window
        # seq 6000 > lastUpdateSeq 5000: new round, reacts again.
        flow.snd_nxt = 50_000
        cc.on_ack(flow, congested_ack(env, 6000, 2000.0, 25_000), now=2000.0)
        assert flow.window < w1


class TestRxRate:
    def test_uses_rx_counter(self, env):
        cc, flow = install(HpccRxRate, env)
        b = gbps(100)
        flow.snd_nxt = 50_000
        # tx says idle (no bytes moved), rx says saturated.
        first = make_int_ack(0, [(b, 0.0, 0, 0)], rx_bytes=[0])
        cc.on_ack(flow, first, now=0.0)
        second = make_int_ack(1000, [(b, 1000.0, 0, 0)], rx_bytes=[12_500])
        u = cc.measure_inflight(second)
        tau = 1000.0 / env.base_rtt
        assert u == pytest.approx((1 - tau) * 1.0 + tau * 1.0)

    def test_double_counts_congestion(self, env):
        """With a standing queue AND arrivals above capacity, rxRate sees
        both signals (Section 3.4's point: they overlap)."""
        tx_cc, tx_flow = install(Hpcc, env, wai=0.0)
        rx_cc, rx_flow = install(HpccRxRate, env, wai=0.0)
        b = gbps(100)
        q = int(env.bdp)
        for cc, flow in ((tx_cc, tx_flow), (rx_cc, rx_flow)):
            flow.snd_nxt = 100_000
            prime = make_int_ack(0, [(b, 0.0, 0, q)], rx_bytes=[0])
            cc.on_ack(flow, prime, now=0.0)
            # tx moved 12.5KB (rate 1.0B), rx absorbed 25KB (rate 2.0B).
            ack = make_int_ack(1000, [(b, 1000.0, 12_500, q)],
                               rx_bytes=[25_000])
            cc.on_ack(flow, ack, now=1000.0)
        assert rx_flow.window < tx_flow.window


class TestVariantsShareCore:
    def test_all_need_int(self, env):
        for cls in (HpccPerAck, HpccPerRtt, HpccRxRate):
            assert cls(env).needs_int

    def test_all_start_at_line_rate(self, env):
        for cls in (HpccPerAck, HpccPerRtt, HpccRxRate):
            cc, flow = install(cls, env)
            assert flow.rate == pytest.approx(env.line_rate)
            assert flow.window == pytest.approx(env.bdp)
