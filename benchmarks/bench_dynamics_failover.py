"""Network-dynamics benchmark: FatTree failure sweep, fluid vs packet.

The acceptance bar for the dynamics subsystem's fluid path: the same
FatTree-scale link-failure sweep (same topology, same seeded Poisson
workload, same fail/restore timeline with a detection delay) must
complete at least 10x faster flow-level than packet-level.  This is the
scenario class that motivated fluid failover support — "sweep every
plausible fabric failure" is interactive on fluid and an overnight batch
on packet.

Also times the dual-trunk failover extension on both backends (the
cross-validated scenario of ``tests/test_fluid.py``), which is the
``dynamics_failover`` smoke entry in ``benchmarks/run_all.py``.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_dynamics_failover.py
"""

from __future__ import annotations

import time

from conftest import run_once
from repro.experiments import failover, linkfail
from repro.runner import CcChoice, SweepRunner

# One scheme keeps the packet side's wall time tolerable; the sweep still
# covers both failure classes (ToR-Agg and Agg-Core cuts) with fail,
# detection delay and restore on a three-tier fabric under load.
SCHEMES = (CcChoice("hpcc", label="HPCC"),)


def run_failure_sweep_comparison() -> dict:
    packet_specs = [spec.replaced(backend="packet")
                    for spec in linkfail.scenarios(schemes=SCHEMES)]
    started = time.perf_counter()
    packet_records = SweepRunner().run(packet_specs)
    packet_s = time.perf_counter() - started

    fluid_specs = linkfail.scenarios(schemes=SCHEMES)
    started = time.perf_counter()
    fluid_records = SweepRunner().run(fluid_specs)
    fluid_s = time.perf_counter() - started

    return {
        "n_specs": len(packet_specs),
        "packet_s": packet_s,
        "fluid_s": fluid_s,
        "speedup": packet_s / fluid_s,
        "packet_flows": [len(r.fct) for r in packet_records],
        "fluid_flows": [len(r.fct) for r in fluid_records],
        "packet_reroutes": [
            sum(e.get("reroutes", 0) for e in r.link_events())
            for r in packet_records
        ],
        "fluid_reroutes": [
            sum(e.get("reroutes", 0) for e in r.link_events())
            for r in fluid_records
        ],
    }


def run_dual_trunk_smoke() -> dict:
    """The cross-validated dual-trunk failover, timed on both backends."""
    out = {}
    for backend in ("packet", "fluid"):
        started = time.perf_counter()
        specs = [spec.replaced(backend=backend)
                 for spec in failover.scenarios(schemes=SCHEMES)]
        stats = failover.render(specs, SweepRunner().run(specs)).stats
        out[f"{backend}_s"] = time.perf_counter() - started
        out[f"{backend}_recovery_us"] = stats["recovery_us/HPCC"]
        out[f"{backend}_after_gbps"] = stats["after_gbps/HPCC"]
    out["speedup"] = out["packet_s"] / out["fluid_s"]
    return out


def test_failure_sweep_fluid_at_least_10x(benchmark):
    result = run_once(benchmark, run_failure_sweep_comparison)
    assert result["speedup"] >= 10.0, (
        f"fluid failure sweep only {result['speedup']:.1f}x faster "
        f"({result['packet_s']:.2f}s packet vs {result['fluid_s']:.2f}s fluid)"
    )
    # Same seeded workload on both backends, within deadline stragglers.
    for packet_n, fluid_n in zip(result["packet_flows"], result["fluid_flows"]):
        assert abs(packet_n - fluid_n) <= 0.1 * max(packet_n, fluid_n)
    # Both backends actually rerouted traffic at the cut.
    assert all(n > 0 for n in result["packet_reroutes"])
    assert all(n > 0 for n in result["fluid_reroutes"])


def main() -> None:
    sweep = run_failure_sweep_comparison()
    print(f"FatTree link-failure sweep ({sweep['n_specs']} scenarios, "
          "fail + 25us detection + restore):")
    print(f"  packet backend: {sweep['packet_s']:8.2f}s")
    print(f"  fluid backend:  {sweep['fluid_s']:8.2f}s")
    print(f"  speedup:        {sweep['speedup']:8.1f}x")
    smoke = run_dual_trunk_smoke()
    print("Dual-trunk failover (HPCC):")
    print(f"  packet: {smoke['packet_s']:.2f}s "
          f"(recovery {smoke['packet_recovery_us']:.0f}us, "
          f"after {smoke['packet_after_gbps']:.1f}G)")
    print(f"  fluid:  {smoke['fluid_s']:.2f}s "
          f"(recovery {smoke['fluid_recovery_us']:.0f}us, "
          f"after {smoke['fluid_after_gbps']:.1f}G)")
    print(f"  speedup: {smoke['speedup']:.1f}x")


if __name__ == "__main__":
    main()
