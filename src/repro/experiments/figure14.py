"""Figure 14: tuning WAI (Section 5.4).

16 long flows share a 100Gbps link.  The rule of thumb caps the total
additive increase per round at the bandwidth headroom:
``WAI <= Winit x (1 - eta) / N`` (~150B for 16 flows at 100Gbps with
T=4us).  Within the cap, larger WAI converges to fairness faster; beyond
it (300B), queues form — though only ~13KB at the 95th percentile, i.e.
graceful degradation.
"""

from __future__ import annotations

from ..metrics.fct import percentile
from ..metrics.timeseries import jain_fairness
from ..runner import CcChoice, ScenarioGrid, ScenarioSpec
from ..sim.units import MS, US

BENCH = {
    "fan_in": 16,
    "host_rate": "100Gbps",
    "link_delay": "1us",
    "base_rtt": 4 * US,
    "flow_size": 40_000_000,
    "duration": 10 * MS,
    "sample_interval": 1 * US,
    "goodput_bin": 100 * US,
    "wai_values": (25.0, 75.0, 150.0, 300.0),
}


def scenarios(scale: str = "bench", seed: int = 1,
              params: dict | None = None) -> list[ScenarioSpec]:
    """The figure's grid: one 16-flow run per WAI value."""
    p = dict(BENCH)
    if params:
        p.update(params)
    fan_in = p["fan_in"]
    receiver = fan_in
    base = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={
            "n_hosts": fan_in + 1,
            "host_rate": p["host_rate"],
            "link_delay": p["link_delay"],
        },
        workload={
            "flows": [
                [s, receiver, p["flow_size"], 0.0, "bg"]
                for s in range(fan_in)
            ],
            "deadline": p["duration"],
        },
        config={"base_rtt": p["base_rtt"], "goodput_bin": p["goodput_bin"]},
        measure={
            "sample_interval": p["sample_interval"],
            "sample_ports": [["bneck", "to_host", receiver]],
        },
        seed=seed,
        scale=scale,
        meta={"figure": "fig14", "params": p},
    )
    return ScenarioGrid(base, [
        {"cc": CcChoice("hpcc", params={"wai": wai}),
         "label": f"WAI={wai:.0f}B", "meta.wai": wai}
        for wai in p["wai_values"]
    ]).expand()


def render(specs, records):
    """Report hook: steady queue and fairness as functions of WAI."""
    from ..report.figures import FigureRender, Panel, Series

    wais = []
    q95 = []
    fair = []
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        wai = spec.meta["wai"]
        p = spec.meta["params"]
        t_q, q = record.queue_series("bneck")
        steady = [v for t, v in zip(t_q, q) if t >= p["duration"] * 0.1]
        queue_p95 = percentile(steady, 95) / 1000 if steady else 0.0
        half = p["duration"] / 2
        tracker = record.goodput()
        ids = record.flow_ids("bg")
        rates = [tracker.mean_gbps(fid, half, p["duration"]) for fid in ids]
        jain = jain_fairness(rates)
        wais.append(wai)
        q95.append(queue_p95)
        fair.append(jain)
        stats[f"queue_p95_kb/{wai:g}"] = queue_p95
        stats[f"fairness/{wai:g}"] = jain
    return FigureRender(
        figure="fig14",
        title="Figure 14: WAI tuning",
        panels=[
            Panel(
                key="queue-vs-wai",
                title="Steady-state p95 queue vs WAI",
                series=[Series(name="queue p95", x=wais, y=q95)],
                x_label="WAI (bytes)", y_label="queue p95 (KB)",
            ),
            Panel(
                key="fairness-vs-wai",
                title="Jain fairness vs WAI",
                series=[Series(name="Jain index", x=wais, y=fair)],
                x_label="WAI (bytes)", y_label="Jain index",
            ),
        ],
        stats=stats,
    )
