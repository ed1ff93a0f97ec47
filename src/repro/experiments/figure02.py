"""Figure 2: DCQCN's throughput-versus-stability trade-off (Section 2.3).

Sweep the DCQCN timers on the testbed PoD with WebSearch traffic:

* ``(Ti=55us,  Td=50us)`` — the DCQCN paper's original setting (aggressive
  rate increase, infrequent decrease): best FCT, most PFC pauses;
* ``(Ti=300us, Td=4us)``  — a NIC vendor's default;
* ``(Ti=900us, Td=4us)``  — the operators' conservative tuning: fewest
  pauses, worst FCT.

2a: 95th-percentile FCT slowdown per flow-size bucket at 30% load.
2b: PFC pause time and short-flow tail latency with incast added.
"""

from __future__ import annotations

from ..metrics.fct import BucketStats, percentile, slowdown_by_bucket
from ..runner import (
    CcChoice,
    ScenarioGrid,
    ScenarioSpec,
    workload_cdf,
)
from ..sim.units import US
from .common import require_scale

TIMER_SETTINGS = (
    ("Ti=55,Td=50", {"ti": 55 * US, "td": 50 * US}),
    ("Ti=300,Td=4", {"ti": 300 * US, "td": 4 * US}),
    ("Ti=900,Td=4", {"ti": 900 * US, "td": 4 * US}),
)

SCALES = {
    "bench": {
        "topology": dict(servers_per_tor=4, n_tors=2,
                         host_rate="10Gbps", uplink_rate="40Gbps"),
        "size_scale": 0.1,
        "n_flows": 250,
        "base_rtt": 9 * US,
        "incast_fan_in": 6,
        "incast_size": 150_000,
        "buffer_bytes": 1_000_000,
    },
    "full": {
        "topology": dict(),                       # the paper's 32-server PoD
        "size_scale": 1.0,
        "n_flows": 5000,
        "base_rtt": 9 * US,
        "incast_fan_in": 8,
        "incast_size": 500_000,
        "buffer_bytes": 32_000_000,
    },
}


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    load: float = 0.30,
    with_incast: bool = True,
    overrides: dict | None = None,
) -> list[ScenarioSpec]:
    """The figure's grid: one DCQCN run per timer setting."""
    p = dict(SCALES[require_scale(scale)])
    if overrides:
        p.update(overrides)
    incast = None
    if with_incast:
        incast = {
            "fan_in": p["incast_fan_in"],
            "flow_size": p["incast_size"],
            "load": 0.02,
        }
    base = ScenarioSpec(
        program="load",
        topology="testbed",
        topology_params=dict(p["topology"]),
        workload={
            "cdf": "websearch",
            "size_scale": p["size_scale"],
            "load": load,
            "n_flows": p["n_flows"],
            "incast": incast,
        },
        config={
            "base_rtt": p["base_rtt"],
            "buffer_bytes": p["buffer_bytes"],
        },
        seed=seed,
        scale=scale,
        meta={"figure": "fig2", "size_scale": p["size_scale"]},
    )
    return ScenarioGrid(base, [
        {"cc": CcChoice("dcqcn", label=label, params=dict(timers)),
         "label": label}
        for label, timers in TIMER_SETTINGS
    ]).expand()


def render(specs, records):
    """Report hook: p95 slowdown buckets + PFC pause bars per timer set."""
    from ..report.figures import FigureRender, Panel, Series, bucket_panel

    edges = [0] + [int(d) for d in workload_cdf(specs[0].workload).deciles()]
    size_scale = specs[0].meta["size_scale"]
    short_cut = max(3000 * size_scale, 2 * 1000)
    buckets: dict[str, list[BucketStats]] = {}
    stats: dict[str, float] = {}
    labels = []
    pause_pcts = []
    for spec, record in zip(specs, records):
        label = spec.label
        labels.append(label)
        fct = record.fct_records()
        buckets[label] = slowdown_by_bucket(fct, edges, tag="bg")
        short = [
            r.fct / US for r in fct
            if r.spec.size <= short_cut and r.spec.tag == "bg"
        ]
        pause_frac = (
            record.extras["pause_total_ns"]
            / (record.duration_ns * record.extras["n_hosts"])
        )
        pause_pcts.append(pause_frac * 100)
        stats[f"pause_frac/{label}"] = pause_frac
        stats[f"short_p95_us/{label}"] = (
            percentile(short, 95) if short else float("nan")
        )
        all_p95 = [b.p95 for b in buckets[label]]
        stats[f"mean_p95/{label}"] = (
            sum(all_p95) / len(all_p95) if all_p95 else float("nan")
        )
        stats[f"long_p95/{label}"] = all_p95[-1] if all_p95 else float("nan")
    return FigureRender(
        figure="fig2",
        title="Figure 2: DCQCN timer trade-off",
        panels=[
            bucket_panel("p95-buckets",
                         "2a: p95 FCT slowdown per size bucket", buckets,
                         edges=edges),
            Panel(
                key="pauses",
                title="2b: PFC pause-time fraction (with incast)",
                series=[Series(
                    name="pause time %", kind="bar",
                    x=[float(i) for i in range(len(labels))],
                    y=pause_pcts, labels=labels,
                )],
                y_label="pause time (%)",
            ),
        ],
        stats=stats,
    )
