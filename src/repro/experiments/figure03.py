"""Figure 3: DCQCN's bandwidth-versus-latency trade-off (Section 2.3).

Sweep the ECN marking thresholds on the testbed with WebSearch traffic at
30% and 50% load.  Low thresholds (Kmin=12KB, Kmax=50KB at 25G) keep
queues — and hence short-flow FCT — small but throttle large flows; high
thresholds (400KB/1600KB) do the opposite.  No single setting wins both,
which is the paper's motivation for queue-free feedback.
"""

from __future__ import annotations

from ..metrics.fct import BucketStats, slowdown_by_bucket
from ..runner import CcChoice, ScenarioGrid, ScenarioSpec, workload_cdf
from ..sim.units import KB, US
from .common import require_scale

# (label, Kmin, Kmax) at the 25Gbps reference rate (Figure 3's legend).
ECN_SETTINGS = (
    ("Kmin=400K,Kmax=1600K", 400 * KB, 1600 * KB),
    ("Kmin=100K,Kmax=400K", 100 * KB, 400 * KB),
    ("Kmin=12K,Kmax=50K", 12 * KB, 50 * KB),
)

SCALES = {
    "bench": {
        "topology": dict(servers_per_tor=4, n_tors=2,
                         host_rate="10Gbps", uplink_rate="40Gbps"),
        "size_scale": 0.1,
        "n_flows": 250,
        "base_rtt": 9 * US,
        "buffer_bytes": 4_000_000,
    },
    "full": {
        "topology": dict(),
        "size_scale": 1.0,
        "n_flows": 5000,
        "base_rtt": 9 * US,
        "buffer_bytes": 32_000_000,
    },
}


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    loads: tuple[float, ...] = (0.30, 0.50),
    overrides: dict | None = None,
) -> list[ScenarioSpec]:
    """The figure's grid: load x ECN-threshold, DCQCN throughout."""
    p = dict(SCALES[require_scale(scale)])
    if overrides:
        p.update(overrides)
    base = ScenarioSpec(
        program="load",
        topology="testbed",
        topology_params=dict(p["topology"]),
        workload={
            "cdf": "websearch",
            "size_scale": p["size_scale"],
            "load": loads[0],
            "n_flows": p["n_flows"],
        },
        config={
            "base_rtt": p["base_rtt"],
            "buffer_bytes": p["buffer_bytes"],
        },
        seed=seed,
        scale=scale,
        meta={"figure": "fig3"},
    )
    return ScenarioGrid(
        base,
        [{"workload.load": load, "meta.load": load} for load in loads],
        [
            {"cc": CcChoice("dcqcn", label=label,
                            params={"kmin": kmin, "kmax": kmax}),
             "label": label}
            for label, kmin, kmax in ECN_SETTINGS
        ],
    ).expand()


def short_vs_long_p95(stats: list[BucketStats]) -> tuple[float, float]:
    """(short-flow, long-flow) p95 summary the refdata checks compare."""
    if not stats:
        return float("nan"), float("nan")
    n_short = max(1, len(stats) // 3)
    short = max(s.p95 for s in stats[:n_short])
    long_ = max(s.p95 for s in stats[-2:])
    return short, long_


def render(specs, records):
    """Report hook: per-load p95 bucket curves, one series per threshold."""
    from ..report.figures import FigureRender, bucket_panel

    edges = [0] + [int(d) for d in workload_cdf(specs[0].workload).deciles()]
    by_load: dict[float, dict[str, list[BucketStats]]] = {}
    for spec, record in zip(specs, records):
        load = spec.meta["load"]
        by_load.setdefault(load, {})[spec.label] = slowdown_by_bucket(
            record.fct_records(), edges
        )
    panels = []
    stats: dict[str, float] = {}
    for load, by_setting in sorted(by_load.items()):
        key = f"p95-{load:.0%}".replace("%", "")
        panels.append(bucket_panel(
            key, f"Figure 3 ({load:.0%} load): p95 FCT slowdown", by_setting,
            edges=edges,
        ))
        for label, bucket_stats in by_setting.items():
            short, long_ = short_vs_long_p95(bucket_stats)
            stats[f"short_p95/{load:.2f}/{label}"] = short
            stats[f"long_p95/{load:.2f}/{label}"] = long_
    return FigureRender(
        figure="fig3",
        title="Figure 3: DCQCN ECN-threshold trade-off",
        panels=panels,
        stats=stats,
    )
