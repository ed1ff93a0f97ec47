#!/usr/bin/env python3
"""Quickstart: declare a scenario, run HPCC, inspect the results.

Declares a 4-host star (one switch) with two 1MB flows into the same
receiver under HPCC as a :class:`~repro.runner.ScenarioSpec`, runs it
through :class:`~repro.runner.SweepRunner`, and prints flow completion
times, slowdowns and the bottleneck queue profile from the
:class:`~repro.runner.RunRecord`.  Then the same spec runs on the
flow-level fluid backend.  Everything here is public API.

Run:  python examples/quickstart.py
"""

from repro.metrics import percentile
from repro.metrics.reporter import ascii_series, format_table
from repro.runner import CcChoice, ScenarioSpec, SweepRunner
from repro.sim.units import MS, US

# 1. The scenario, as data: 4 hosts x 100Gbps on one switch, 1us links,
#    HPCC (eta=95%, maxStage=5 — the paper defaults), two 1MB flows into
#    host 3 that must share its 100Gbps, and the bottleneck watched: the
#    switch port (node 4) toward the receiver, sampled every 1us.
SPEC = ScenarioSpec(
    program="flows",
    topology="star",
    topology_params={"n_hosts": 4, "host_rate": "100Gbps",
                     "link_delay": "1us"},
    cc=CcChoice("hpcc"),
    workload={"flows": [[0, 3, 1_000_000], [1, 3, 1_000_000]],
              "deadline": 10 * MS},
    config={"base_rtt": 9 * US},
    measure={"sample_interval": 1 * US,
             "sample_ports": [["to-receiver", "between", 4, 3]]},
    label="quickstart",
)


def main() -> None:
    # 2. Run it; the record is plain data (cacheable, picklable).
    [record] = SweepRunner().run([SPEC])
    assert record.completed, "flows did not finish"

    rows = [
        (r.spec.flow_id, f"{r.spec.size:,}", f"{r.fct / US:.1f}",
         f"{r.ideal / US:.1f}", f"{r.slowdown:.2f}")
        for r in sorted(record.fct_records(), key=lambda r: r.spec.flow_id)
    ]
    print(format_table(
        ["flow", "bytes", "FCT (us)", "ideal (us)", "slowdown"],
        rows, title="Two flows sharing a 100Gbps bottleneck under HPCC",
    ))
    print()
    times, qlens = record.queue_series("to-receiver")
    print(ascii_series(
        times, [q / 1000 for q in qlens],
        label="bottleneck queue (KB) — HPCC keeps it near zero",
        t_unit=US,
    ))
    print()
    print(f"queue p95: {percentile(qlens, 95) / 1000:.1f}KB, "
          f"peak: {max(qlens) / 1000:.1f}KB, "
          f"drops: {record.extras['drops']}")

    # 3. The same scenario on the flow-level fluid backend: no packets,
    #    RTT-granularity steps, the same HPCC control law — use it
    #    (`hpcc-repro sweep --backend fluid`) when sweeping scenarios too
    #    big for packet simulation.
    [fluid] = SweepRunner().run([SPEC.replaced(backend="fluid")])
    print()
    for r in sorted(fluid.fct_records(), key=lambda r: r.spec.flow_id):
        print(f"fluid backend: flow {r.spec.flow_id} "
              f"FCT {r.fct / US:.1f}us (slowdown {r.slowdown:.2f}) "
              f"in {fluid.events_processed} RTT steps instead of "
              f"{record.events_processed:,} packet events")


if __name__ == "__main__":
    main()
