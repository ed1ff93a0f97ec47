"""Figure 10: end-to-end testbed comparison, HPCC versus DCQCN (Section 5.2).

WebSearch at 30% and 50% average load on the testbed PoD.

* 10a/10c — FCT slowdown per flow-size bucket at the median, 95th and
  99th percentile.  The paper's headline: at 50% load HPCC cuts the
  99th-percentile slowdown of <3KB flows from 53.9 to 2.70 (a 95%
  reduction) without sacrificing median performance.
* 10b/10d — the CDF of switch queue lengths: HPCC's median is zero and
  its tail stays tens-of-KB while DCQCN holds MB-level queues.
"""

from __future__ import annotations

import math

from ..metrics.fct import BucketStats, percentile, slowdown_by_bucket
from ..runner import (
    CcChoice,
    ScenarioGrid,
    ScenarioSpec,
    cc_axis,
    workload_cdf,
)
from ..sim.units import US
from .common import require_scale

CCS = (CcChoice("hpcc", label="HPCC"), CcChoice("dcqcn", label="DCQCN"))

SCALES = {
    "bench": {
        "topology": dict(servers_per_tor=4, n_tors=2,
                         host_rate="10Gbps", uplink_rate="40Gbps"),
        "size_scale": 0.1,
        "n_flows": 300,
        "base_rtt": 9 * US,
        "buffer_bytes": 4_000_000,
        "sample_interval": 10 * US,
    },
    "full": {
        "topology": dict(),
        "size_scale": 1.0,
        "n_flows": 5000,
        "base_rtt": 9 * US,
        "buffer_bytes": 32_000_000,
        "sample_interval": 10 * US,
    },
}


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    loads: tuple[float, ...] = (0.30, 0.50),
    overrides: dict | None = None,
) -> list[ScenarioSpec]:
    """The figure's grid: load x scheme, queues sampled on every port."""
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
        measure={"sample_interval": p["sample_interval"]},
        seed=seed,
        scale=scale,
        meta={"figure": "fig10", "size_scale": p["size_scale"]},
    )
    return ScenarioGrid(
        base,
        [{"workload.load": load, "meta.load": load} for load in loads],
        cc_axis(CCS),
    ).expand()


def render(specs, records):
    """Report hook: per-load p99 bucket curves + switch-queue CDFs."""
    from ..report.figures import FigureRender, Panel, bucket_panel, cdf_series

    edges = [0] + [int(d) for d in workload_cdf(specs[0].workload).deciles()]
    size_scale = specs[0].meta["size_scale"]
    short_cut = 3000 * size_scale
    by_load: dict[float, dict[str, list[BucketStats]]] = {}
    queue_cdfs: dict[float, list] = {}
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        load = spec.meta["load"]
        label = spec.label
        fct = record.fct_records()
        by_load.setdefault(load, {})[label] = slowdown_by_bucket(fct, edges)
        samples = [s / 1000 for s in record.all_queue_samples()]
        queue_cdfs.setdefault(load, []).append(cdf_series(label, samples))
        key = f"{load:.2f}/{label}"
        stats[f"queue_p50_kb/{key}"] = (
            percentile(samples, 50) if samples else 0.0
        )
        stats[f"queue_p99_kb/{key}"] = (
            percentile(samples, 99) if samples else 0.0
        )
        shorts = [r.slowdown for r in fct if r.spec.size <= short_cut]
        stats[f"short_p99/{key}"] = (
            percentile(shorts, 99) if shorts else float("nan")
        )
        # The first decile bucket has enough samples for a stable tail
        # percentile.
        bucket_list = by_load[load][label]
        stats[f"bucket1_p99/{key}"] = (
            bucket_list[0].p99 if bucket_list else float("nan")
        )
    panels = []
    for load in sorted(by_load):
        if {"HPCC", "DCQCN"} <= by_load[load].keys():
            # HPCC's worst bucket against DCQCN's, matched by size bucket.
            dcqcn = {b.hi: b.p99 for b in by_load[load]["DCQCN"]}
            ratios = [
                b.p99 / dcqcn[b.hi]
                for b in by_load[load]["HPCC"] if b.hi in dcqcn
            ]
            stats[f"hpcc_p99_ratio_max/{load:.2f}"] = max(
                (r for r in ratios if not math.isnan(r)),
                default=float("nan"),
            )
        key = f"{load:.0%}".replace("%", "")
        panels.append(bucket_panel(
            f"p99-{key}",
            f"10 ({load:.0%} load): p99 FCT slowdown per size bucket",
            by_load[load], pct="p99", edges=edges,
        ))
        panels.append(Panel(
            key=f"queue-cdf-{key}",
            title=f"10 ({load:.0%} load): switch queue-length CDF",
            series=queue_cdfs[load],
            x_label="queue (KB)", y_label="CDF",
        ))
    return FigureRender(
        figure="fig10",
        title="Figure 10: testbed WebSearch comparison",
        panels=panels,
        stats=stats,
    )
