"""Figure 11: large-scale FatTree comparison of six CC schemes (Section 5.3).

FB_Hadoop traffic on the three-tier FatTree, either 30% load plus
synchronized incast (2% of capacity) or 50% load, comparing DCQCN, TIMELY,
DCQCN+win, TIMELY+win, DCTCP and HPCC.

* 11a/11c — 95th-percentile FCT slowdown per size bucket: HPCC wins for
  the ~90% of flows under 120KB; long flows pay the eta=95% +
  INT-overhead bandwidth tax (Section 5.3 quantifies ~1.24x at 50%).
* 11b/11d — PFC pause-time fraction and 95th-percentile short-flow
  latency: only the schemes without in-flight caps (DCQCN, TIMELY)
  trigger pauses; adding a window nearly eliminates them, and HPCC keeps
  latency lowest.
"""

from __future__ import annotations

from dataclasses import asdict

from ..metrics.fct import BucketStats, percentile, slowdown_by_bucket
from ..runner import (
    CcChoice,
    ScenarioGrid,
    ScenarioSpec,
    cc_axis,
    workload_cdf,
)
from ..sim.units import US
from ..topology.fattree import FatTreeSpec, fattree_k_spec
from .common import require_scale

SCHEMES = (
    CcChoice("dcqcn", label="DCQCN"),
    CcChoice("timely", label="TIMELY"),
    CcChoice("dcqcn+win", label="DCQCN+win"),
    CcChoice("timely+win", label="TIMELY+win"),
    CcChoice("dctcp", label="DCTCP"),
    CcChoice("hpcc", label="HPCC"),
)

SCALES = {
    "bench": {
        "fattree": FatTreeSpec(
            n_pods=2, tors_per_pod=2, aggs_per_pod=2, n_core=2,
            hosts_per_tor=4, host_rate="10Gbps", fabric_rate="40Gbps",
        ),
        "size_scale": 0.1,
        "n_flows": 600,
        "base_rtt": 13 * US,
        "incast_fan_in": 12,
        "incast_size": 150_000,
        "buffer_bytes": 1_000_000,
    },
    "full": {
        "fattree": FatTreeSpec(),
        "size_scale": 1.0,
        "n_flows": 20000,
        "base_rtt": 13 * US,
        "incast_fan_in": 60,
        "incast_size": 500_000,
        "buffer_bytes": 32_000_000,
    },
    # Beyond the paper: a k=16 k-ary FatTree (1024 hosts, 320 switches)
    # at the paper's line rates.  Only tractable on the fluid backend —
    # the array engine steps every active flow at once, so a fabric this
    # size costs the same *per step* as the bench tier does.  Pair with
    # ``--backend fluid``.
    "large": {
        "fattree": fattree_k_spec(16),
        "size_scale": 1.0,
        "n_flows": 8000,
        "base_rtt": 13 * US,
        "incast_fan_in": 60,
        "incast_size": 500_000,
        "buffer_bytes": 32_000_000,
    },
}


def _case_updates(case: str, p: dict) -> dict:
    load = 0.30 if case.startswith("30") else 0.50
    updates = {"workload.load": load, "meta.case": case}
    if "incast" in case:
        updates["workload.incast"] = {
            "fan_in": p["incast_fan_in"],
            "flow_size": p["incast_size"],
            "load": 0.02,
        }
    return updates


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    cases: tuple[str, ...] = ("30%+incast", "50%"),
    schemes: tuple[CcChoice, ...] = SCHEMES,
    overrides: dict | None = None,
) -> list[ScenarioSpec]:
    """The figure's grid: traffic case x CC scheme on the FatTree."""
    p = dict(SCALES[require_scale(scale, allowed=tuple(SCALES))])
    if overrides:
        p.update(overrides)
    base = ScenarioSpec(
        program="load",
        topology="fattree",
        topology_params=asdict(p["fattree"]),
        workload={
            "cdf": "fbhadoop",
            "size_scale": p["size_scale"],
            "load": 0.30,
            "n_flows": p["n_flows"],
            "incast": None,
        },
        config={
            "base_rtt": p["base_rtt"],
            "buffer_bytes": p["buffer_bytes"],
        },
        seed=seed,
        scale=scale,
        meta={"figure": "fig11", "size_scale": p["size_scale"]},
    )
    return ScenarioGrid(
        base,
        [_case_updates(case, p) for case in cases],
        cc_axis(schemes),
    ).expand()


_CASE_KEYS = {"30%+incast": "30incast", "50%": "50"}


def render(specs, records):
    """Report hook: p95 bucket curves per traffic case, six schemes.

    Backend-neutral: slowdown buckets come straight from the FCT
    payload; the PFC pause fraction is reported as a stat (zero on the
    fluid backend, which is pause-free by construction).
    """
    from ..report.figures import FigureRender, bucket_panel

    edges = [0] + [int(d) for d in workload_cdf(specs[0].workload).deciles()]
    short_cut = 1000 * specs[0].meta["size_scale"]
    buckets: dict[str, dict[str, list[BucketStats]]] = {}
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        case = _CASE_KEYS.get(spec.meta["case"], spec.meta["case"])
        label = spec.label
        fct = record.fct_records()
        stats_list = slowdown_by_bucket(fct, edges, tag="bg")
        buckets.setdefault(case, {})[label] = stats_list
        key = f"{case}/{label}"
        short = [b.p95 for b in stats_list[:-1]]
        stats[f"short_p95/{key}"] = (
            sum(short) / len(short) if short else float("nan")
        )
        # The worst of the three smallest buckets: a short-flow loss
        # confined to them cannot hide in the mean above.
        stats[f"short3_p95_max/{key}"] = max(
            (b.p95 for b in stats_list[:3]), default=float("nan"),
        )
        stats[f"long_p95/{key}"] = (
            stats_list[-1].p95 if stats_list else float("nan")
        )
        stats[f"pause_frac/{key}"] = (
            record.extras["pause_total_ns"]
            / (record.duration_ns * record.extras["n_hosts"])
            if record.duration_ns else 0.0
        )
        shorts = [
            r.fct / US for r in fct
            if r.spec.size <= short_cut and r.spec.tag == "bg"
        ]
        stats[f"short_p95_us/{key}"] = (
            percentile(shorts, 95) if shorts else float("nan")
        )
    panels = [
        bucket_panel(
            f"p95-{case}",
            f"11: p95 FCT slowdown per size bucket ({case})",
            by_scheme, edges=edges,
        )
        for case, by_scheme in buckets.items()
    ]
    return FigureRender(
        figure="fig11",
        title="Figure 11: large-scale FatTree, six CC schemes",
        panels=panels,
        stats=stats,
    )
