"""Extension experiment: flapping-trunk oscillation study.

Section 2.3's claim is sharper than a single failure: DCQCN's
"timer-based scheduling can also trigger traffic oscillations during
link failures".  A *flapping* link — repeatedly failing and recovering,
as a marginal optic or an unstable LAG member does — is the adversarial
version of that scenario: every flap forces a reconvergence, and a CC
scheme that recovers slowly (or overshoots on recovery) never reaches
steady state at all.

One dual-trunk fabric; one trunk flaps ``count`` times
(``flap_link`` in the dynamics timeline).  Per scheme we report:

* steady-state goodput before the first flap;
* the *goodput dip* — the worst goodput bin while flapping, as a
  fraction of steady state (HPCC's headline: shallow dip, fast refill);
* recovery time after the final restore, back to 90% of steady state;
* packets lost across all down periods.

HPCC vs DCQCN is the paper-motivated comparison; the grid takes any
scheme set.  Runs on either backend — the fluid twin makes wide flap
sweeps (period x down-time grids, see ``examples/flapping_sweep.py``)
interactive.
"""

from __future__ import annotations

from ..dynamics import FlapLink, Timeline
from ..runner import CcChoice, ScenarioGrid, ScenarioSpec, cc_axis
from ..sim.units import MS, US
from ..topology.simple import dual_trunk
from .failover import recovery_time_us

__all__ = ["BENCH", "SCHEMES", "flap_summary", "render", "scenarios"]

BENCH = {
    "n_pairs": 4,
    "flap_at": 2 * MS,
    "period": 2 * MS,
    "down_time": 0.8 * MS,
    "count": 3,
    "duration": 14 * MS,
    "goodput_bin": 100 * US,
    "flow_size": 40_000_000,
    "detection_delay": 0.0,
}

SCHEMES = (
    CcChoice("hpcc", label="HPCC"),
    CcChoice("dcqcn", label="DCQCN"),
)


def flap_summary(record, p: dict) -> dict:
    """Per-record flapping accounting: steady goodput before the first
    flap, the worst in-flap dip as a fraction of it, recovery to 90%
    after the final restore, packets lost across all down periods."""
    goodput = record.goodput()
    ids = record.flow_ids("bg")
    bin_ns = p["goodput_bin"]
    last_restore = (
        p["flap_at"] + (p["count"] - 1) * p["period"] + p["down_time"]
    )
    steady = sum(
        goodput.mean_gbps(fid, 1 * MS, p["flap_at"]) for fid in ids
    )
    times, series = goodput.total_series(ids)
    flap_bins = [
        g for t, g in zip(times, series)
        if p["flap_at"] + bin_ns < t < last_restore
    ]
    return {
        "steady_gbps": steady,
        "dip_fraction": (
            min(flap_bins) / steady if flap_bins and steady else float("nan")
        ),
        "recovery_us": recovery_time_us(
            record, last_restore, 0.9 * steady, ids
        ),
        "lost_packets": sum(
            e.get("packets_lost_down", 0)
            for e in record.link_events() if e["type"] == "fail_link"
        ),
    }


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    schemes: tuple[CcChoice, ...] = SCHEMES,
    params: dict | None = None,
) -> list[ScenarioSpec]:
    """The grid: one flapping-trunk run per scheme."""
    p = dict(BENCH)
    if params:
        p.update(params)
    n = p["n_pairs"]
    sw_a, sw_b = 2 * n, 2 * n + 1
    base = ScenarioSpec(
        program="flows",
        topology="dual_trunk",
        topology_params={"n_pairs": n},
        workload={
            "flows": [
                [i, n + i, p["flow_size"], 0.0, "bg"] for i in range(n)
            ],
            "deadline": p["duration"],
        },
        dynamics=Timeline(
            [FlapLink(
                at=p["flap_at"], a=sw_a, b=sw_b,
                period=p["period"], down_time=p["down_time"],
                count=p["count"],
            )],
            detection_delay=p["detection_delay"],
        ),
        config={
            "base_rtt": 9 * US,
            "goodput_bin": p["goodput_bin"],
            "rto": 500 * US,
        },
        seed=seed,
        scale=scale,
        meta={"figure": "flapping", "params": p},
    )
    return ScenarioGrid(base, cc_axis(schemes)).expand()


def render(specs, records):
    """Report hook: goodput through the flap train, per scheme."""
    from ..report.figures import FigureRender, Panel, Series

    series = []
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        label = spec.label
        times, total = record.goodput().total_series(record.flow_ids("bg"))
        series.append(Series(
            name=label, x=[t / US for t in times], y=total,
        ))
        for metric, value in flap_summary(record,
                                          spec.meta["params"]).items():
            stats[f"{metric}/{label}"] = float(value)
    return FigureRender(
        figure="flapping",
        title="Extension: flapping-trunk oscillation study",
        panels=[Panel(
            key="goodput",
            title="Aggregate goodput under a flapping trunk",
            series=series,
            x_label="time (us)", y_label="goodput (Gbps)",
        )],
        stats=stats,
    )
