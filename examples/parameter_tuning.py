#!/usr/bin/env python3
"""HPCC's three parameters, swept (Section 3.3).

* eta       — utilization target: trades a little bandwidth for queues;
* maxStage  — additive stages before a multiplicative jump;
* WAI       — additive increase: fairness speed vs queue floor.

Each setting is one cell of a spec grid: the same 8-to-1 incast plus a
late-joining flow, with the setting as the cell's ``cc`` params.  The
grid runs through :class:`~repro.runner.SweepRunner`, which computes the
three "default" rows once (they are one spec) and reports utilization,
queueing and how fast the newcomer converges to its fair share.

Run:  python examples/parameter_tuning.py
"""

from repro.metrics import percentile
from repro.metrics.reporter import format_table
from repro.runner import CcChoice, ScenarioGrid, ScenarioSpec, SweepRunner
from repro.sim.units import MS, US

SETTINGS = [
    ("eta=0.90", {"eta": 0.90}),
    ("eta=0.95 (default)", {}),
    ("eta=0.98", {"eta": 0.98}),
    ("maxStage=0", {"max_stage": 0}),
    ("maxStage=5 (default)", {}),
    ("WAI x10", {"n_flows_for_wai": 10}),
    ("WAI default (N=100)", {}),
]

# Seven 12MB flows into host 8 from t=0, the late joiner (flow 8) at 2ms.
INCAST = ScenarioSpec(
    program="flows",
    topology="star",
    topology_params={"n_hosts": 9, "host_rate": "100Gbps",
                     "link_delay": "1us"},
    workload={"flows": [[s, 8, 12_000_000] for s in range(7)]
              + [[7, 8, 12_000_000, 2 * MS]],
              "deadline": 12 * MS},
    config={"base_rtt": 9 * US, "goodput_bin": 100 * US},
    measure={"sample_interval": 2 * US,
             "sample_ports": [["b", "between", 9, 8]]},
)
LATE = 8


def main() -> None:
    # Labels stay off the CcChoice: it is part of the spec's identity,
    # and the three default rows should be one spec.
    grid = ScenarioGrid(INCAST, [
        {"cc": CcChoice("hpcc", params=params), "label": label}
        for label, params in SETTINGS
    ])
    rows = []
    for record in SweepRunner().run(grid.expand()):
        goodput = record.goodput()
        rates = {flow_id: goodput.mean_gbps(flow_id, 3 * MS, 5 * MS)
                 for flow_id in record.flow_ids("bg")}
        total = sum(rates.values())
        _, qlens = record.queue_series("b")
        rows.append((
            record.label, f"{percentile(qlens, 95) / 1000:.1f}",
            f"{total:.1f}",
            f"{rates[LATE] / (total / 8) if total else 0.0:.2f}",
        ))
    print(format_table(
        ["setting", "queue p95 (KB)", "utilization (Gbps)",
         "late flow / fair share"],
        rows,
        title="HPCC parameter sweeps: 8-to-1 on 100Gbps, late joiner at 2ms",
    ))


if __name__ == "__main__":
    main()
