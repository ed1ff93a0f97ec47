#!/usr/bin/env python3
"""Incast showdown: HPCC versus DCQCN under a 16-to-1 burst.

The scenario behind the paper's Case-1 war story: many senders burst at
line rate into one receiver.  HPCC's inflight-byte cap stops the queue
almost immediately; DCQCN (rate-only control) buffers megabytes and leans
on PFC.  One spec per scheme, run through
:class:`~repro.runner.SweepRunner`.

Run:  python examples/incast_showdown.py
"""

from repro.metrics.reporter import ascii_series, format_table
from repro.runner import CcChoice, ScenarioGrid, ScenarioSpec, SweepRunner, \
    cc_axis
from repro.sim.units import MS, US

FAN_IN = 16
FLOW_SIZE = 1_000_000
RECEIVER = FAN_IN
SWITCH = FAN_IN + 1

INCAST = ScenarioSpec(
    program="flows",
    topology="star",
    topology_params={"n_hosts": FAN_IN + 1, "host_rate": "100Gbps",
                     "link_delay": "1us"},
    workload={"flows": [[sender, RECEIVER, FLOW_SIZE]
                        for sender in range(FAN_IN)],
              "deadline": 10 * MS},
    config={"base_rtt": 9 * US, "buffer_bytes": 16_000_000},
    measure={"sample_interval": 2 * US,
             "sample_ports": [["bneck", "between", SWITCH, RECEIVER]]},
)


def main() -> None:
    grid = ScenarioGrid(INCAST, cc_axis(
        [CcChoice("hpcc"), CcChoice("dcqcn")]))
    records = SweepRunner().run(grid.expand())
    rows = []
    for record in records:
        fcts = sorted(r.fct / US for r in record.fct_records())
        _, qlens = record.queue_series("bneck")
        rows.append((
            record.label, f"{max(qlens) / 1000:.0f}",
            f"{len(fcts)}/{FAN_IN}",
            f"{fcts[-1]:.0f}" if fcts else "nan",
            record.extras["pause_count"],
        ))
    print(format_table(
        ["scheme", "peak queue (KB)", "flows done", "last FCT (us)", "PFC pauses"],
        rows, title=f"{FAN_IN}-to-1 incast, 1MB each, 100Gbps fabric",
    ))
    for record in records:
        print()
        t, q = record.queue_series("bneck")
        print(ascii_series(
            t[:400], [v / 1000 for v in q[:400]],
            label=f"{record.label} bottleneck queue (KB)", t_unit=US,
        ))


if __name__ == "__main__":
    main()
