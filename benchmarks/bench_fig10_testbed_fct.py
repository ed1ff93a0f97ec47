"""Figure 10: testbed WebSearch loads — FCT slowdowns and queue CDFs.

Paper headline: at 50% load HPCC cuts the 99th-percentile slowdown of
short flows by 95% (53.9 -> 2.70) and keeps p99 queues at 22.9KB versus
DCQCN's 2.1MB.
"""

from repro.experiments import figure10

from conftest import run_figure


def test_fig10_websearch_loads(benchmark):
    fig = run_figure(benchmark, figure10, scale="bench", loads=(0.30, 0.50))

    for load in (0.30, 0.50):
        panel = fig.panel(f"p99-{load:.0%}".replace("%", ""))
        hpcc = panel.series_named("HPCC").y
        dcqcn = panel.series_named("DCQCN").y
        # Short flows (first decile bucket, which has enough samples for a
        # stable p99): HPCC's tail is a small multiple of ideal; DCQCN's
        # is substantially worse (95% reduction at full scale).
        assert hpcc[0] < 3.0
        assert dcqcn[0] > 1.3 * hpcc[0]
        # HPCC wins the p99 of every size bucket.
        for h, d in zip(hpcc, dcqcn):
            assert h <= d * 1.05
        # Queues: both median ~0; HPCC's p99 much smaller than DCQCN's.
        assert fig.stats[f"queue_p50_kb/{load:.2f}/HPCC"] == 0
        assert fig.stats[f"queue_p99_kb/{load:.2f}/HPCC"] < \
            0.25 * fig.stats[f"queue_p99_kb/{load:.2f}/DCQCN"]
