"""Figure 12: a good CC lessens the importance of flow control (Section 5.3).

The same FatTree + FB_Hadoop setup as Figure 11, but sweeping the loss
recovery / flow-control mechanism:

* PFC — lossless fabric, go-back-N never really fires;
* GBN — no PFC, drops recovered by go-back-N retransmission;
* IRN — no PFC, selective retransmission with a BDP-bounded window
  (footnote 6: lossy modes use dynamic egress thresholds with alpha=1).

With HPCC the three perform nearly identically (queues stay near zero, so
losses barely happen); DCQCN's performance depends visibly on the choice.
"""

from __future__ import annotations

from dataclasses import asdict

from ..metrics.fct import percentile
from ..runner import CcChoice, ScenarioGrid, ScenarioSpec
from .common import require_scale
from .figure11 import SCALES

FLOW_CONTROLS = (
    ("PFC", {"transport": "gbn", "pfc_enabled": True}),
    ("GBN", {"transport": "gbn", "pfc_enabled": False}),
    ("IRN", {"transport": "irn", "pfc_enabled": False}),
)

CCS = (CcChoice("hpcc", label="HPCC"), CcChoice("dcqcn", label="DCQCN"))

#: Transport and PFC choices only exist on the packet engine (README
#: "Simulation backends"); ``build_figure`` keeps this figure there.
PACKET_ONLY = True


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    load: float = 0.30,
    with_incast: bool = True,
    overrides: dict | None = None,
) -> list[ScenarioSpec]:
    """The figure's grid: CC scheme x flow-control mechanism."""
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
        topology="fattree",
        topology_params=asdict(p["fattree"]),
        workload={
            "cdf": "fbhadoop",
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
        meta={"figure": "fig12"},
    )
    cc_ax = [{"cc": cc, "meta.cc": cc.display} for cc in CCS]
    fc_ax = [
        {
            "config.transport": fc_cfg["transport"],
            "config.pfc_enabled": fc_cfg["pfc_enabled"],
            "meta.fc": fc_label,
        }
        for fc_label, fc_cfg in FLOW_CONTROLS
    ]
    specs = []
    for spec in ScenarioGrid(base, cc_ax, fc_ax).expand():
        label = f"{spec.meta['cc']}-{spec.meta['fc']}"
        specs.append(spec.replaced(label=label))
    return specs


def render(specs, records):
    """Report hook: overall p95 slowdown bars per scheme x flow control."""
    from ..report.figures import FigureRender, Panel, Series

    stats: dict[str, float] = {}
    per_scheme: dict[str, list[float]] = {}
    fc_labels: list[str] = []
    for spec, record in zip(specs, records):
        label = spec.label
        fct = record.fct_records()
        slows = [r.slowdown for r in fct if r.spec.tag == "bg"]
        p95 = percentile(slows, 95) if slows else float("nan")
        stats[f"overall_p95/{label}"] = p95
        stats[f"drops/{label}"] = float(record.extras.get("drops", 0))
        per_scheme.setdefault(spec.meta["cc"], []).append(p95)
        if spec.meta["fc"] not in fc_labels:
            fc_labels.append(spec.meta["fc"])
    # The paper's point: with HPCC the flow-control choice barely
    # matters.  Spread = (max - min) / min across the three mechanisms.
    for scheme, p95s in per_scheme.items():
        if p95s and min(p95s) > 0:
            stats[f"fc_spread/{scheme}"] = (max(p95s) - min(p95s)) / min(p95s)
    # Even HPCC's worst mechanism must beat DCQCN's best: all nine pairs.
    hpcc, dcqcn = per_scheme.get("HPCC"), per_scheme.get("DCQCN")
    if hpcc and dcqcn and min(dcqcn) > 0:
        stats["hpcc_worst_over_dcqcn_best"] = max(hpcc) / min(dcqcn)
    return FigureRender(
        figure="fig12",
        title="Figure 12: flow-control choices (PFC / GBN / IRN)",
        panels=[Panel(
            key="overall-p95",
            title="Overall p95 FCT slowdown per flow control, per scheme",
            series=[
                Series(
                    name=scheme, kind="bar",
                    x=[float(i) for i in range(len(p95s))],
                    y=p95s, labels=fc_labels,
                )
                for scheme, p95s in per_scheme.items()
            ],
            y_label="p95 slowdown",
        )],
        stats=stats,
    )
