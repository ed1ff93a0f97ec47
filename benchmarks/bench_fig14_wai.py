"""Figure 14: tuning WAI for 16 flows on 100Gbps.

Paper: any WAI within the rule-of-thumb cap (<=150B here) keeps the p95
queue tiny (<=4KB); WAI=300B exceeds the headroom and builds ~13KB —
graceful degradation, still only ~1us of queueing.
"""

from repro.experiments import figure14

from conftest import run_figure


def test_fig14_wai_tuning(benchmark):
    stats = run_figure(benchmark, figure14, scale="bench").stats

    # Within the stability bound: near-zero queues (paper: <=4KB).
    for wai in (25, 75, 150):
        assert stats[f"queue_p95_kb/{wai}"] < 5_000 / 1000
    # Beyond the bound: a visible but graceful queue (paper: ~13KB).
    assert stats["queue_p95_kb/300"] > 2 * stats["queue_p95_kb/25"]
    assert stats["queue_p95_kb/300"] < 40_000 / 1000
    # Fairness is good across the board for symmetric flows.
    for wai in (25, 75, 150, 300):
        assert stats[f"fairness/{wai}"] > 0.9
