"""Appendix A: the theory experiments.

* A.1 — sumDi/D/1 queueing: 50 paced sources at 95% load hold ~3 packets
  on average and essentially never exceed 20.
* A.2 — recursions (5)-(6): feasible after one step, monotone, Pareto.
* A.4 — 64-to-1 line-rate incast: window limits drain the root queue and
  leave senders at ~1/65 of Winit, with no PFC.
"""

from repro.experiments import appendix_a

from conftest import run_figure


def test_appendix_a1_queueing(benchmark):
    fig = run_figure(
        benchmark, appendix_a,
        scenarios=lambda: [appendix_a.a1_scenario(n_sources=50, rho=0.95)],
    )
    _, analytic_mean_full_load = fig.panel("a1-queueing").series[0].y

    assert fig.stats["a1_sim_mean"] < analytic_mean_full_load + 1
    assert fig.stats["a1_sim_tail"] < 1e-3
    assert fig.stats["a1_analytic_tail"] < 1e-7


def test_appendix_a2_convergence(benchmark):
    stats = run_figure(
        benchmark, appendix_a,
        scenarios=lambda: [appendix_a.a2_scenario(n_trials=50)],
    ).stats

    assert stats["a2_feasible_frac"] == 1.0
    assert stats["a2_monotone_frac"] == 1.0
    assert stats["a2_pareto_within_i_frac"] >= 0.7
    assert stats["a2_pareto_frac"] >= 0.8


def test_appendix_a4_window_limits(benchmark):
    stats = run_figure(
        benchmark, appendix_a,
        scenarios=lambda: [appendix_a.a4_scenario()],
    ).stats
    print(f"theory: final window 1/65 = {1 / 65:.3f} x Winit")

    # The initial burst queues ~63 x BDP, then drains without PFC.
    assert stats["a4_peak_queue_kb"] > 1_000_000 / 1000
    assert stats["a4_drain_us"] < 2_000
    # Senders settle near the theoretical 1/65 of Winit.
    assert stats["a4_window_frac"] < 3.0 / 65
    assert stats["a4_pfc_pauses"] == 0
