"""Figure 13: fast reaction without overreaction (16-to-1 incast).

Paper: per-ACK reaction collapses throughput to ~0 and oscillates;
per-RTT reaction leaves the startup queue standing far longer; HPCC's
reference-window design drains fast at high throughput.
"""

from repro.experiments import figure13

from conftest import run_figure


def test_fig13_reaction_strategies(benchmark):
    stats = run_figure(benchmark, figure13, scale="bench").stats

    # Overreaction: per-ACK's throughput floor collapses far below HPCC's.
    assert stats["min_tput/per-ACK"] < 0.5 * stats["min_tput/HPCC"]
    # Slow reaction: per-RTT holds the startup queue longest.
    assert stats["drain_us/per-RTT"] > stats["drain_us/HPCC"]
    assert stats["drain_us/per-RTT"] > stats["drain_us/per-ACK"]
    # HPCC: no collapse and a fast drain.
    assert stats["min_tput/HPCC"] > 40
