"""HPCC Algorithm 1, line by line."""

import pytest

from repro.core.hpcc import Hpcc, default_wai
from repro.sim.units import US, gbps

from tests.helpers import FakeFlow, make_int_ack, plain_ack


def make_hpcc(env, **kw):
    cc = Hpcc(env, **kw)
    flow = FakeFlow()
    cc.install(flow)
    return cc, flow


class TestInstall:
    def test_line_rate_start(self, env):
        cc, flow = make_hpcc(env)
        assert flow.window == pytest.approx(env.bdp)       # Winit = B x T
        assert flow.rate == pytest.approx(env.line_rate)

    def test_default_wai_rule_of_thumb(self, env):
        # WAI = Winit x (1 - eta) / N  (Section 3.3).
        assert default_wai(env, 0.95, 100) == pytest.approx(
            env.bdp * 0.05 / 100
        )

    def test_parameter_validation(self, env):
        with pytest.raises(ValueError):
            Hpcc(env, eta=0.0)
        with pytest.raises(ValueError):
            Hpcc(env, max_stage=-1)


class TestMeasureInflight:
    def test_first_ack_yields_no_sample(self, env):
        cc, flow = make_hpcc(env)
        ack = make_int_ack(0, [(gbps(100), 100.0, 10_000, 0)])
        assert cc.measure_inflight(ack) is None

    def test_txrate_and_qlen_terms(self, env):
        cc, _ = make_hpcc(env)
        b = gbps(100)
        T = env.base_rtt
        cc.last_hops = make_int_ack(0, [(b, 0.0, 0, 50_000)]).int_hops
        # 1000ns later the port sent 12_500B (full rate) with 50KB queued.
        ack = make_int_ack(1000, [(b, 1000.0, 12_500, 50_000)])
        u = cc.measure_inflight(ack)
        expected_u_prime = 50_000 / (b * T) + 1.0
        tau = min(1000.0, T)
        expected = (1 - tau / T) * 1.0 + (tau / T) * expected_u_prime
        assert u == pytest.approx(expected)

    def test_min_qlen_noise_filter(self, env):
        # Line 5 uses min(ack.qlen, L.qlen) to filter transient spikes.
        cc, _ = make_hpcc(env)
        b = gbps(100)
        cc.last_hops = make_int_ack(0, [(b, 0.0, 0, 0)]).int_hops
        ack = make_int_ack(1000, [(b, 1000.0, 12_500, 1_000_000)])
        u = cc.measure_inflight(ack)
        # qlen term must use min(1MB, 0B) = 0.
        tau = 1000.0 / env.base_rtt
        assert u == pytest.approx((1 - tau) * 1.0 + tau * 1.0)

    def test_max_hop_selected(self, env):
        cc, _ = make_hpcc(env)
        b = gbps(100)
        cc.last_hops = make_int_ack(
            0, [(b, 0.0, 0, 0), (b, 0.0, 0, 0)]
        ).int_hops
        # Hop 0 at 40% utilization, hop 1 at 90%: hop 1 must drive U.
        ack = make_int_ack(1000, [
            (b, 1000.0, 5_000, 0),
            (b, 1000.0, 11_250, 0),
        ])
        u = cc.measure_inflight(ack)
        tau = 1000.0 / env.base_rtt
        assert u == pytest.approx((1 - tau) * 1.0 + tau * 0.9)

    def test_zero_dt_hop_skipped(self, env):
        cc, _ = make_hpcc(env)
        b = gbps(100)
        cc.last_hops = make_int_ack(0, [(b, 5.0, 100, 0)]).int_hops
        ack = make_int_ack(1000, [(b, 5.0, 100, 0)])       # same timestamp
        assert cc.measure_inflight(ack) is None

    def test_hop_count_change_resets(self, env):
        # Path change (Figure 7's pathID check): stack length differs.
        cc, _ = make_hpcc(env)
        b = gbps(100)
        cc.last_hops = make_int_ack(0, [(b, 0.0, 0, 0)]).int_hops
        ack = make_int_ack(1000, [(b, 1.0, 0, 0), (b, 1.0, 0, 0)])
        assert cc.measure_inflight(ack) is None

    def test_ewma_weight_capped_at_one(self, env):
        cc, _ = make_hpcc(env)
        b = gbps(100)
        cc.last_hops = make_int_ack(0, [(b, 0.0, 0, 0)]).int_hops
        # dt of 5T: tau must clamp to T, fully replacing U.
        dt = 5 * env.base_rtt
        ack = make_int_ack(1000, [(b, dt, int(b * dt * 0.5), 0)])
        u = cc.measure_inflight(ack)
        assert u == pytest.approx(0.5)


class TestComputeWind:
    def test_md_branch_above_eta(self, env):
        cc, _ = make_hpcc(env, wai=0.0)
        w = cc.compute_wind(1.9, update_wc=False)
        # W = Wc / (U/eta): halve at U = 1.9 with eta 0.95.
        assert w == pytest.approx(cc.wc / 2.0)

    def test_mi_branch_below_eta_after_max_stage(self, env):
        cc, _ = make_hpcc(env, wai=0.0)
        cc.inc_stage = cc.max_stage
        w = cc.compute_wind(0.475, update_wc=False)
        assert w == pytest.approx(cc.wc * 2.0)

    def test_ai_branch_below_eta(self, env):
        cc, _ = make_hpcc(env, wai=500.0)
        w = cc.compute_wind(0.5, update_wc=False)
        assert w == pytest.approx(cc.wc + 500.0)

    def test_wai_added_in_md_branch_too(self, env):
        cc, _ = make_hpcc(env, wai=500.0)
        w = cc.compute_wind(1.9, update_wc=False)
        assert w == pytest.approx(cc.wc / 2.0 + 500.0)

    def test_inc_stage_advances_only_on_wc_update(self, env):
        cc, _ = make_hpcc(env, wai=100.0)
        cc.compute_wind(0.5, update_wc=False)
        assert cc.inc_stage == 0
        cc.compute_wind(0.5, update_wc=True)
        assert cc.inc_stage == 1

    def test_md_resets_inc_stage(self, env):
        cc, _ = make_hpcc(env, wai=100.0)
        cc.inc_stage = 3
        cc.compute_wind(1.5, update_wc=True)
        assert cc.inc_stage == 0

    def test_wc_only_updated_when_flagged(self, env):
        cc, _ = make_hpcc(env, wai=100.0)
        wc0 = cc.wc
        cc.compute_wind(1.5, update_wc=False)
        assert cc.wc == wc0


class TestNewAck:
    def _two_acks(self, env, cc, flow, u_queue=200_000):
        """Prime L with one ACK, then deliver a congested second ACK."""
        b = gbps(100)
        flow.snd_nxt = 50_000
        cc.on_ack(flow, make_int_ack(0, [(b, 0.0, 0, u_queue)]), now=0.0)
        ack = make_int_ack(1000, [(b, 1000.0, 12_500, u_queue)])
        cc.on_ack(flow, ack, now=1000.0)

    def test_window_reduced_under_congestion(self, env):
        cc, flow = make_hpcc(env)
        w0 = flow.window
        self._two_acks(env, cc, flow)
        assert flow.window < w0

    def test_rate_follows_window(self, env):
        cc, flow = make_hpcc(env)
        self._two_acks(env, cc, flow)
        assert flow.rate == pytest.approx(flow.window / env.base_rtt)

    def test_reference_window_gating(self, env):
        # Per Figure 5: two ACKs for the same Wc must not compound.
        cc, flow = make_hpcc(env, wai=0.0)
        b = gbps(100)
        flow.snd_nxt = 100_000
        cc.on_ack(flow, make_int_ack(0, [(b, 0.0, 0, 0)]), now=0.0)
        # First congested ACK: seq 1000 > lastUpdateSeq 0 -> Wc syncs, and
        # lastUpdateSeq becomes snd_nxt = 100000.
        q = int(env.bdp)
        cc.on_ack(flow, make_int_ack(
            1000, [(b, 1000.0, 12_500, q)]), now=1000.0)
        w1 = flow.window
        wc1 = cc.wc
        # Second congested ACK with seq < lastUpdateSeq: reacts against the
        # same Wc, so the window must not halve again.
        cc.on_ack(flow, make_int_ack(
            2000, [(b, 2000.0, 25_000, q)]), now=2000.0)
        assert cc.wc == wc1
        assert flow.window > 0.6 * w1

    def test_sample_entry_matches_ack_entry(self, env):
        """on_int_sample on the reduced sample is what on_ack runs."""
        by_ack, ack_flow = make_hpcc(env)
        by_sample, sample_flow = make_hpcc(env)
        b = gbps(100)
        for flow in (ack_flow, sample_flow):
            flow.snd_nxt = 50_000
        by_ack.on_ack(ack_flow, make_int_ack(
            0, [(b, 0.0, 0, 200_000)]), now=0.0)
        by_ack.on_ack(ack_flow, make_int_ack(
            1000, [(b, 1000.0, 12_500, 200_000)]), now=1000.0)
        by_sample.on_int_sample(sample_flow, 0, -1.0, 0.0, now=0.0)
        u_prime = 200_000 / (b * env.base_rtt) + 12_500 / 1000.0 / b
        by_sample.on_int_sample(sample_flow, 1000, u_prime, 1000.0, now=1000.0)
        assert (sample_flow.window, sample_flow.rate) \
            == (ack_flow.window, ack_flow.rate)
        assert (by_sample.u, by_sample.wc, by_sample.last_update_seq) \
            == (by_ack.u, by_ack.wc, by_ack.last_update_seq)

    def test_no_sample_still_closes_the_round(self, env):
        cc, flow = make_hpcc(env)
        w0 = flow.window
        flow.snd_nxt = 5_000
        cc.on_int_sample(flow, 1000, -1.0, 0.0, now=0.0)
        assert flow.window == w0 and cc.u == 1.0
        assert cc.last_update_seq == 5_000

    def test_ack_without_int_ignored(self, env):
        cc, flow = make_hpcc(env)
        w0 = flow.window
        cc.on_ack(flow, plain_ack(0, 1000), now=0.0)
        assert flow.window == w0

    def test_window_clamped_to_winit(self, env):
        cc, flow = make_hpcc(env, wai=50_000.0)
        b = gbps(100)
        flow.snd_nxt = 10_000
        cc.on_ack(flow, make_int_ack(0, [(b, 0.0, 0, 0)]), now=0.0)
        for k in range(1, 10):
            cc.on_ack(flow, make_int_ack(
                1000 * k, [(b, 1000.0 * k, 1250 * k, 0)]), now=1000.0 * k)
        assert flow.window <= env.bdp + 1e-6

    def test_window_floor_is_mtu(self, env):
        cc, flow = make_hpcc(env, wai=0.0)
        b = gbps(100)
        flow.snd_nxt = 10_000
        cc.on_ack(flow, make_int_ack(0, [(b, 0.0, 0, 10**7)]), now=0.0)
        for k in range(1, 30):
            cc.on_ack(flow, make_int_ack(
                1000 * k, [(b, 1000.0 * k, 12_500 * k, 10**7)]),
                now=1000.0 * k)
            flow.snd_nxt += 1000
        assert flow.window >= env.mtu


class TestConvergenceShape:
    def test_single_sender_converges_to_eta(self, env):
        """Feed self-consistent feedback: window W -> txRate W/T; HPCC
        should settle the utilization at eta."""
        cc, flow = make_hpcc(env)
        b = gbps(100)
        T = env.base_rtt
        tx_total = 0
        cc.on_ack(flow, make_int_ack(0, [(b, 0.0, 0, 0)]), now=0.0)
        for k in range(1, 200):
            now = k * 1000.0
            flow.snd_nxt += 1000
            tx = flow.window / T * 1000.0       # bytes sent in 1000ns
            tx_total += int(tx)
            ack = make_int_ack(int(flow.snd_nxt), [(b, now, tx_total, 0)])
            cc.on_ack(flow, ack, now=now)
        final_util = flow.window / T / b
        assert final_util == pytest.approx(0.95, rel=0.1)
