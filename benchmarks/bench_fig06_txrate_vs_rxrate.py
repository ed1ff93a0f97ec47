"""Figure 6: txRate versus rxRate feedback in a 2-to-1 scenario.

Paper: txRate converges gracefully; rxRate oscillates before converging.
Reproduction note (``figure06``'s docstring): under Algorithm 1's min-qlen
filter, EWMA and reference window, the rxRate variant also converges here;
the bench asserts convergence for both and records the transient difference
(rxRate over-cuts because queue and arrival rate double-count).
"""

from repro.experiments import figure06

from conftest import run_figure

TX = "HPCC (txRate)"
RX = "HPCC-rxRate"


def test_fig06_feedback_signal(benchmark):
    stats = run_figure(benchmark, figure06, scale="bench").stats

    # Both settle to (near-)empty queues after the line-rate transient.
    assert stats[f"steady_mean_kb/{TX}"] < 5_000 / 1000
    assert stats[f"steady_mean_kb/{RX}"] < 5_000 / 1000
    # rxRate's double-counted congestion makes its startup cut at least as
    # deep: its transient peak queue cannot exceed txRate's.
    assert stats[f"peak_kb/{RX}"] <= stats[f"peak_kb/{TX}"] * 1.1
