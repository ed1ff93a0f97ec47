"""Experiment drivers: smoke tests at miniature parameters.

These verify the drivers run end to end and produce the paper's *shape*
(orderings, not magnitudes) with tiny workloads; the benchmarks run the
real bench-scale versions.
"""

import pytest

from repro.experiments import appendix_a
from repro.experiments.common import require_scale
from repro.experiments.figure06 import run_figure06
from repro.experiments.figure13 import run_figure13
from repro.experiments.figure14 import run_figure14
from repro.runner import ScenarioSpec, execute_spec
from repro.sim.units import MS, US


class TestCommon:
    def test_require_scale(self):
        assert require_scale("bench") == "bench"
        with pytest.raises(ValueError):
            require_scale("huge")

    @staticmethod
    def load_spec(n_hosts, n_flows, incast=None):
        return ScenarioSpec(
            program="load",
            topology="star",
            topology_params={"n_hosts": n_hosts, "host_rate": "10Gbps"},
            workload={"cdf": "fbhadoop", "size_scale": 0.1, "load": 0.2,
                      "n_flows": n_flows, "incast": incast},
            config={"base_rtt": 9 * US},
            seed=2,
        )

    def test_load_experiment_runs(self):
        record = execute_spec(self.load_spec(4, 20))
        assert record.fct
        assert record.duration_ns > 0

    def test_load_experiment_with_incast(self):
        record = execute_spec(self.load_spec(
            6, 15, incast={"fan_in": 3, "flow_size": 20_000, "load": 0.02}))
        tags = {r["tag"] for r in record.fct}
        assert "incast" in tags


class TestFigure6Smoke:
    def test_both_variants_converge(self):
        result = run_figure06(params={
            "flow_size": 2_000_000, "duration": 0.5 * MS,
        })
        for label in ("HPCC (txRate)", "HPCC-rxRate"):
            assert result.steady_mean[label] < 20_000
            assert result.peak[label] > 0


class TestFigure13Smoke:
    def test_per_ack_overreacts_and_per_rtt_lags(self):
        result = run_figure13(params={
            "fan_in": 8, "flow_size": 600_000, "duration": 300 * US,
        })
        # per-ACK's post-start throughput floor is the lowest of the three.
        assert result.min_throughput_after_start["per-ACK"] <= \
            result.min_throughput_after_start["HPCC"]
        # HPCC drains no slower than per-RTT.
        assert result.drain_time["HPCC"] <= \
            result.drain_time["per-RTT"] + 50 * US


class TestFigure14Smoke:
    def test_oversized_wai_builds_queue(self):
        result = run_figure14(params={
            "fan_in": 8, "flow_size": 4_000_000, "duration": 2 * MS,
            "wai_values": (25.0, 600.0),
        })
        assert result.queue_p95[600.0] > result.queue_p95[25.0]
        assert result.fairness[25.0] > 0.9


class TestAppendixSmoke:
    def test_a1_numbers(self):
        a1 = appendix_a.run_a1(n_sources=20, rho=0.95)
        assert a1.simulated_mean < 5
        assert a1.simulated_tail <= 0.01

    def test_a2_lemma_counts(self):
        a2 = appendix_a.run_a2(n_trials=10, seed=3)
        assert a2.feasible_after_one == 10
        assert a2.monotone == 10
        assert a2.pareto_asymptotic >= 8
