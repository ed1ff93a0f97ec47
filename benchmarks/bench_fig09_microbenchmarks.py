"""Figure 9: the four testbed micro-benchmarks, HPCC versus DCQCN."""

from repro.experiments import figure09

from conftest import run_figure


def test_fig09ab_long_short_recovery(benchmark):
    """9a/9b: HPCC recovers the long flow immediately; DCQCN does not
    recover within the window (paper: >350 RTTs)."""
    stats = run_figure(benchmark, figure09,
                       scenarios=figure09.long_short_scenarios).stats

    assert stats["recovery_gbps/HPCC"] > 18       # ~line rate (25G - eta/hdr)
    assert stats["recovery_gbps/DCQCN"] < 0.5 * stats["recovery_gbps/HPCC"]


def test_fig09cd_incast_queue(benchmark):
    """9c/9d: HPCC drains the incast queue in ~1 RTT; DCQCN piles up
    hundreds of KB (paper: 550KB)."""
    stats = run_figure(benchmark, figure09,
                       scenarios=figure09.incast_scenarios).stats

    assert stats["incast_peak_kb/HPCC"] < 0.25 * stats["incast_peak_kb/DCQCN"]
    assert stats["incast_settled_kb/HPCC"] < \
        0.25 * stats["incast_settled_kb/DCQCN"]


def test_fig09ef_elephant_mice_latency(benchmark):
    """9e/9f: mice latency ~base RTT under HPCC; DCQCN's standing queue
    (around the ECN threshold) multiplies the tail latency."""
    stats = run_figure(benchmark, figure09,
                       scenarios=figure09.elephant_mice_scenarios).stats

    assert stats["mice_p95_us/HPCC"] < 15             # ~8.5us base RTT
    assert stats["mice_p95_us/DCQCN"] > 2 * stats["mice_p95_us/HPCC"]
    assert stats["queue_p95_kb/HPCC"] < 5_000 / 1000
    assert stats["queue_p95_kb/DCQCN"] > 20_000 / 1000


def test_fig09gh_fairness(benchmark):
    """9g/9h: HPCC shares fairly at full utilization even on short
    timescales."""
    stats = run_figure(benchmark, figure09,
                       scenarios=figure09.fairness_scenarios).stats

    assert stats["jain/HPCC"] > 0.95
    # DCQCN's slow recovery
    assert stats["total_gbps/HPCC"] > 2 * stats["total_gbps/DCQCN"]
