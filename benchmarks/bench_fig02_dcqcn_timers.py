"""Figure 2: DCQCN timer trade-off (throughput vs stability).

Paper: aggressive timers (Ti=55,Td=50) give the best large-flow FCT but
the most/longest PFC pauses; conservative timers (Ti=900,Td=4) the
opposite.
"""

from repro.experiments import figure02

from conftest import run_figure

AGGRESSIVE = "Ti=55,Td=50"
CONSERVATIVE = "Ti=900,Td=4"


def test_fig02_timer_tradeoff(benchmark):
    fig = run_figure(benchmark, figure02, scale="bench")

    # 2a shape: aggressive timers serve large flows far better.
    def large_flow_p95(label):
        return fig.panel("p95-buckets").series_named(label).y[-1]

    assert large_flow_p95(AGGRESSIVE) < large_flow_p95(CONSERVATIVE)

    # 2b shape: aggressive timers pay with more pause time.
    assert fig.stats[f"pause_frac/{AGGRESSIVE}"] > \
        fig.stats[f"pause_frac/{CONSERVATIVE}"]
    assert fig.stats[f"pause_frac/{AGGRESSIVE}"] > 0.001
