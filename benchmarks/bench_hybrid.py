"""Hybrid co-simulation vs pure packet: the thin-foreground speedup.

The acceptance bar for the hybrid backend: with at most 10% of the flow
population in the packet foreground (the regime the backend exists
for — a handful of studied flows inside a large modeled background),
the same Figure-11-style FatTree cell must complete at least 5x faster
than running the whole population packet-level.  The packet half still
simulates every foreground byte, so the speedup comes entirely from the
background flows stepping at RTT granularity instead of per packet.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_hybrid.py
"""

from __future__ import annotations

import time

from conftest import run_once
from repro.experiments import figure11
from repro.runner import CcChoice, SweepRunner

#: The foreground fraction the >=5x gate is defined at.
FOREGROUND_FRAC = 0.1

SCHEMES = (CcChoice("hpcc", label="HPCC"),)
CASES = ("30%+incast",)


def grid():
    return figure11.scenarios(scale="bench", cases=CASES, schemes=SCHEMES)


def run_comparison() -> dict:
    specs = grid()
    started = time.perf_counter()
    packet_records = SweepRunner().run(specs)
    packet_s = time.perf_counter() - started

    hybrid_specs = [
        spec.replaced(
            backend="hybrid",
            **{"workload.foreground": {"kind": "frac", "x": FOREGROUND_FRAC}},
        )
        for spec in specs
    ]
    started = time.perf_counter()
    hybrid_records = SweepRunner().run(hybrid_specs)
    hybrid_s = time.perf_counter() - started

    return {
        "n_specs": len(specs),
        "packet_s": packet_s,
        "hybrid_s": hybrid_s,
        "speedup": packet_s / hybrid_s,
        "packet_flows": [len(r.fct_table) for r in packet_records],
        "hybrid_flows": [len(r.fct_table) for r in hybrid_records],
        "foreground": [r.extras.get("foreground_flows")
                       for r in hybrid_records],
        "background": [r.extras.get("background_flows")
                       for r in hybrid_records],
        "packet_events": sum(r.events_processed for r in packet_records),
        "hybrid_events": sum(r.events_processed for r in hybrid_records),
    }


def test_hybrid_at_least_5x_faster_at_thin_foreground(benchmark):
    result = run_once(benchmark, run_comparison)
    assert result["speedup"] >= 5.0, (
        f"hybrid backend only {result['speedup']:.1f}x faster "
        f"({result['packet_s']:.2f}s packet vs "
        f"{result['hybrid_s']:.2f}s hybrid)"
    )
    # The gate is defined at <=10% foreground; make sure the partition
    # actually honoured that (otherwise the speedup means nothing).
    for n_fg, n_bg in zip(result["foreground"], result["background"]):
        assert n_fg <= FOREGROUND_FRAC * (n_fg + n_bg) + 1
    # Both backends simulated the same seeded population: within a few
    # deadline-straggler flows of each other on every cell.
    for packet_n, hybrid_n in zip(result["packet_flows"],
                                  result["hybrid_flows"]):
        assert abs(packet_n - hybrid_n) <= 0.1 * max(packet_n, hybrid_n)


def main() -> None:
    result = run_comparison()
    print(f"Figure-11-style FatTree cell, {result['n_specs']} scenario(s) "
          f"({', '.join(c.display for c in SCHEMES)}; {CASES[0]}; "
          f"{FOREGROUND_FRAC:.0%} foreground):")
    print(f"  packet backend: {result['packet_s']:8.2f}s "
          f"({result['packet_events']:,} events)")
    print(f"  hybrid backend: {result['hybrid_s']:8.2f}s "
          f"({result['hybrid_events']:,} events+steps, "
          f"{result['foreground'][0]} fg / {result['background'][0]} bg)")
    print(f"  speedup:        {result['speedup']:8.1f}x")


if __name__ == "__main__":
    main()
