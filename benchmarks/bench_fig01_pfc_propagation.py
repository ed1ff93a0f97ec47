"""Figure 1: PFC pause propagation depth and suppressed bandwidth.

Paper (production data): ~10% of pause events propagate 3 hops; the worst
events suppress up to 25% of network capacity.  Here: DCQCN + incast on a
synthetic PoD (the substitution ``figure01``'s docstring describes).
"""

from repro.experiments import figure01

from conftest import run_figure


def test_fig01_pause_trees(benchmark):
    fig = run_figure(benchmark, figure01, scale="bench")
    ccdf = fig.panel("depth-ccdf").series[0]
    depth_ccdf = dict(zip(ccdf.x, ccdf.y))

    # Shape: pauses happen, a meaningful share propagates multiple hops,
    # and the worst event silences a double-digit share of host capacity.
    assert fig.stats["pause_events"] > 10
    assert depth_ccdf.get(1, 0) == 1.0
    assert fig.stats["depth2_frac"] > 0.05
    assert fig.stats["worst_suppressed_pct"] > 0.10 * 100
