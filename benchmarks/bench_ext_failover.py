"""Extension: link failure and rerouting (Section 2.3's allusion).

One of two parallel 50G trunks is cut mid-run.  Asserts that every
scheme re-converges onto the surviving trunk, that HPCC recovers quickly
(it resets per-hop INT state on a path change), and that the fabric does
not melt down (bounded packet loss, no stuck flows).
"""

from repro.experiments import failover

from conftest import run_figure


def test_failover_recovery(benchmark):
    stats = run_figure(benchmark, failover).stats

    surviving_payload = 50 * (1000 / 1090)     # ~45.9G max after the cut
    for scheme in ("HPCC", "DCQCN", "DCTCP"):
        # Everyone must re-converge onto the surviving trunk.
        assert stats[f"after_gbps/{scheme}"] > 0.7 * surviving_payload
        assert stats[f"drained/{scheme}"]
    # HPCC: fast recovery, minimal loss (the window caps the damage; at
    # most ~1 BDP of packets can be in flight into the cut).
    assert stats["recovery_us/HPCC"] < 1_000
    assert stats["lost_packets/HPCC"] < 100
    # Nobody keeps blasting into the cut indefinitely after reroute.
    for scheme in ("HPCC", "DCQCN", "DCTCP"):
        assert stats[f"lost_packets/{scheme}"] < 5_000, scheme
