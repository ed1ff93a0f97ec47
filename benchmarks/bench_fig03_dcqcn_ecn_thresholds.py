"""Figure 3: DCQCN ECN-threshold trade-off (bandwidth vs latency).

Paper: low Kmin/Kmax favour short (latency-sensitive) flows and hurt
large (bandwidth-sensitive) flows; high thresholds do the reverse; the
tension worsens at 50% load.
"""

from repro.experiments import figure03

from conftest import run_figure

HIGH = "Kmin=400K,Kmax=1600K"
LOW = "Kmin=12K,Kmax=50K"


def test_fig03_ecn_tradeoff(benchmark):
    fig = run_figure(benchmark, figure03, scale="bench", loads=(0.30, 0.50))

    # Shape at 50% load: low thresholds beat high thresholds for short
    # flows; high thresholds beat low for the large-flow tail
    # (``figure03.short_vs_long_p95`` defines the two summaries).
    stats = fig.stats
    assert stats[f"short_p95/0.50/{LOW}"] < stats[f"short_p95/0.50/{HIGH}"]
    assert stats[f"long_p95/0.50/{HIGH}"] < stats[f"long_p95/0.50/{LOW}"]
