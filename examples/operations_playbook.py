#!/usr/bin/env python3
"""Operations playbook: failure injection, run telemetry, result files.

The workflow a network operator would run against the simulator: start a
loaded fabric, cut a trunk mid-run (a ``FailLink`` on the spec's
dynamics timeline), watch the CC re-converge, and leave with
machine-readable artifacts for offline analysis:

* ``<spec_hash>.json`` — the full :class:`~repro.runner.RunRecord`
  (FCTs, every switch port's queue series, goodput bins, PFC pause
  intervals, link-event accounting), as the sweep's cache stores it;
* ``summary.csv`` — one row per cell (:func:`~repro.runner.write_records_csv`);
* ``telemetry.jsonl`` — the run's phase spans and engine probes
  (``hpcc-repro tele summarize`` reads it).

Run:  python examples/operations_playbook.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro.dynamics import FailLink, Timeline
from repro.metrics.reporter import format_table
from repro.obs import JsonlSink, Telemetry
from repro.runner import RunCache, ScenarioSpec, SweepRunner, \
    write_records_csv
from repro.sim.units import MS, US

N_PAIRS = 4
SW_A, SW_B = 2 * N_PAIRS, 2 * N_PAIRS + 1      # the two ToRs

# A 2-rack fabric with two parallel 50G trunks, HPCC everywhere: four
# rack-to-rack transfers, and one trunk dies at 2ms.
FAILOVER = ScenarioSpec(
    program="flows",
    topology="dual_trunk",
    topology_params={"n_pairs": N_PAIRS},
    workload={"flows": [[i, N_PAIRS + i, 10_000_000]
                        for i in range(N_PAIRS)],
              "deadline": 20 * MS},
    config={"base_rtt": 9 * US, "goodput_bin": 100 * US},
    measure={"sample_interval": 10 * US, "pause_intervals": True},
    dynamics=Timeline([FailLink(at=2 * MS, a=SW_A, b=SW_B)]),
    label="trunk-failover",
)


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="hpcc-ops-"))
    out_dir.mkdir(parents=True, exist_ok=True)

    telemetry = Telemetry(run_id="operations-playbook",
                          sink=JsonlSink(out_dir / "telemetry.jsonl"))
    cache = RunCache(out_dir)
    try:
        [record] = SweepRunner(cache=cache, telemetry=telemetry).run(
            [FAILOVER])
    finally:
        telemetry.close()

    rows = [
        (r.spec.flow_id, f"{r.fct / MS:.2f}", f"{r.slowdown:.2f}")
        for r in sorted(record.fct_records(), key=lambda r: r.spec.flow_id)
    ]
    print(format_table(
        ["flow", "FCT (ms)", "slowdown"],
        rows, title="Transfers across a mid-run trunk failure (HPCC)",
    ))
    lost = sum(e["packets_lost_down"] for e in record.link_events()
               if e["type"] == "fail_link")
    print(f"\nall flows finished: {record.completed}; "
          f"packets lost to the cut: {lost}; "
          f"drops at switches: {record.extras['drops']}")

    n_rows = write_records_csv([record], out_dir / "summary.csv")
    samples = sum(len(q["qlens"]) for q in record.queues.values())
    print(f"\nwrote to {out_dir}:")
    print(f"  {cache.path_for(FAILOVER).name} ({len(record.fct)} flows, "
          f"{samples} queue samples, "
          f"{len(record.pause_tracker().intervals)} pause intervals), "
          f"summary.csv ({n_rows} row), telemetry.jsonl")


if __name__ == "__main__":
    main()
