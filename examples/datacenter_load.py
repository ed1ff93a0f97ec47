#!/usr/bin/env python3
"""A day in the datacenter: realistic load on a FatTree.

Replays the WebSearch flow-size distribution (scaled 10x down for speed)
at 30% average load on a scaled FatTree and prints the per-size-bucket FCT
slowdown table for HPCC and DCQCN side by side — a miniature Figure 10.
The cells are ``load`` specs (the program behind Figures 10 and 11), run
through :class:`~repro.runner.SweepRunner`.

Run:  python examples/datacenter_load.py
"""

from repro.metrics import percentile, slowdown_by_bucket
from repro.metrics.reporter import format_bucket_table, format_table
from repro.runner import CcChoice, ScenarioGrid, ScenarioSpec, SweepRunner, \
    cc_axis, workload_cdf
from repro.sim.units import US

LOAD = 0.30
N_FLOWS = 200
SIZE_SCALE = 0.1

# bench_fattree(): 2 pods x 2 ToRs x 4 hosts at 10/40Gbps.
DAY = ScenarioSpec(
    program="load",
    topology="fattree",
    topology_params={"n_pods": 2, "tors_per_pod": 2, "aggs_per_pod": 2,
                     "n_core": 2, "hosts_per_tor": 4,
                     "host_rate": "10Gbps", "fabric_rate": "40Gbps"},
    workload={"cdf": "websearch", "size_scale": SIZE_SCALE, "load": LOAD,
              "n_flows": N_FLOWS, "deadline_factor": 3.0},
    config={"base_rtt": 13 * US},
    seed=42,
)


def main() -> None:
    cdf = workload_cdf(DAY.workload)
    edges = [0] + [int(d) for d in cdf.deciles()]
    grid = ScenarioGrid(DAY, cc_axis(
        [CcChoice("hpcc", label="HPCC"), CcChoice("dcqcn", label="DCQCN")]))
    tables = {}
    summary_rows = []
    for record in SweepRunner().run(grid.expand()):
        fcts = record.fct_records()
        tables[record.label] = slowdown_by_bucket(fcts, edges)
        slowdowns = [r.slowdown for r in fcts]
        summary_rows.append((
            record.label, len(fcts),
            f"{percentile(slowdowns, 50):.2f}",
            f"{percentile(slowdowns, 95):.2f}",
            f"{percentile(slowdowns, 99):.2f}",
        ))
    print(format_table(
        ["scheme", "flows", "p50", "p95", "p99"],
        summary_rows,
        title=f"WebSearch (x{SIZE_SCALE:g}) at {LOAD:.0%} load on a scaled FatTree",
    ))
    print()
    print(format_bucket_table(
        tables, "p95", title="p95 FCT slowdown per flow-size bucket",
    ))


if __name__ == "__main__":
    main()
