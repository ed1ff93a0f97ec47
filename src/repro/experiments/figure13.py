"""Figure 13: fast reaction without overreaction (Section 5.4).

A 16-to-1 incast through one switch with 100Gbps links and 1us propagation
delay.  Three reaction strategies:

* per-ACK  — overreacts: aggregate throughput collapses, then oscillates;
* per-RTT  — reacts slowly: the startup queue persists for a long time;
* HPCC     — reference-window design: drains fast with no collapse.

Reported: total-goodput and queue time series per strategy, plus the
summary numbers the refdata checks compare (minimum post-start throughput,
time for the queue to drain below a threshold).
"""

from __future__ import annotations

from ..runner import CcChoice, ScenarioGrid, ScenarioSpec
from ..sim.units import US

BENCH = {
    "fan_in": 16,
    "host_rate": "100Gbps",
    "link_delay": "1us",
    "base_rtt": 9 * US,
    "flow_size": 2_000_000,
    "duration": 600 * US,
    "sample_interval": 1 * US,
    "goodput_bin": 10 * US,
}

STRATEGIES = (
    ("per-ACK", "hpcc-perack"),
    ("per-RTT", "hpcc-perrtt"),
    ("HPCC", "hpcc"),
)


#: Queue level (bytes) under which the startup queue counts as drained.
DRAIN_THRESHOLD = 50_000


def min_tput_after_start(t_g, gbps, params) -> float:
    """Minimum aggregate goodput once reactions took hold.

    Skips the first 3 base RTTs (the pre-reaction transient) and reads
    until mid-run, while flows are guaranteed still active.
    """
    start = 3 * params["base_rtt"]
    end = params["duration"] * 0.5
    window = [g for t, g in zip(t_g, gbps) if start <= t <= end]
    return min(window) if window else 0.0


def drain_time(t_q, qlens, threshold: float = DRAIN_THRESHOLD) -> float:
    """First time the startup queue falls back below ``threshold``.

    0.0 if the queue never peaked above it; ``inf`` if it peaked and
    never drained within the run.
    """
    peaked = False
    for t, v in zip(t_q, qlens):
        if v > threshold:
            peaked = True
        elif peaked and v <= threshold:
            return t
    return float("inf") if peaked else 0.0


def scenarios(scale: str = "bench", seed: int = 1,
              params: dict | None = None) -> list[ScenarioSpec]:
    """The figure's grid: one 16-to-1 incast per reaction strategy."""
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
                [s, receiver, p["flow_size"], 0.0, "incast"]
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
        meta={"figure": "fig13", "params": p},
    )
    return ScenarioGrid(base, [
        {"cc": CcChoice(cc_name, label=label), "label": label}
        for label, cc_name in STRATEGIES
    ]).expand()


def render(specs, records):
    """Report hook: total-goodput and queue trajectories per strategy.

    Stats are ratio-based so they hold on both backends.  The packet
    engine resolves the sub-RTT per-ACK collapse the paper shows; on
    fluid the three strategies are one: the INT replay syncs W^c on
    every fire, so ``hpcc``, ``hpcc-perack`` and ``hpcc-perrtt`` all run
    the per-RTT ablation and return bit-identical records (ROADMAP
    item 2; README "Simulation backends").  The HPCC drain/recover shape
    is the backend-neutral core of the figure.
    """
    from ..report.figures import FigureRender, Panel, Series

    tput_series = []
    queue_panel_series = []
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        label = spec.label
        p = spec.meta["params"]
        t_g, gbps = record.goodput().total_series()
        tput_series.append(Series(
            name=label, x=[tt / US for tt in t_g], y=gbps,
        ))
        t_q, q = record.queue_series("bneck")
        queue_panel_series.append(Series(
            name=label, x=[tt / US for tt in t_q], y=[v / 1000 for v in q],
        ))
        stats[f"min_tput/{label}"] = min_tput_after_start(t_g, gbps, p)
        tail = [g for t, g in zip(t_g, gbps) if t >= p["duration"] * 0.8]
        peak = max(gbps) if gbps else 0.0
        stats[f"final_frac/{label}"] = (
            (sum(tail) / len(tail)) / peak if tail and peak else 0.0
        )
        drain = drain_time(t_q, q)
        stats[f"drain_us/{label}"] = (
            drain / US if drain != float("inf") else float("inf")
        )
    return FigureRender(
        figure="fig13",
        title="Figure 13: fast reaction without overreaction",
        panels=[
            Panel(
                key="goodput",
                title="Total goodput through the 16-to-1 incast",
                series=tput_series,
                x_label="time (us)", y_label="goodput (Gbps)",
            ),
            Panel(
                key="queue",
                title="Bottleneck queue",
                series=queue_panel_series,
                x_label="time (us)", y_label="queue (KB)",
            ),
        ],
        stats=stats,
    )
