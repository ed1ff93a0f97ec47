"""Figure 1: the impact of PFC pauses (Section 2.1).

The paper's Figure 1 is *production telemetry*: (a) how many hops PFC
pause trees propagate, (b) how much host bandwidth they suppress.  Our
substitution: drive a PoD with DCQCN under repeated large
incasts — the regime the paper identifies as the pause trigger — trace
every pause interval, chain overlapping intervals into cause-effect trees
(``repro.metrics.pfcstats``), and report the same two distributions.

Expected shape: most events stay at depth 1 (host links paused by a ToR),
a tail reaches depth 3 (ToR -> Agg -> ToR -> hosts, i.e. the whole PoD),
and the worst events suppress a double-digit percentage of host capacity.
"""

from __future__ import annotations

from ..metrics.pfcstats import analyze_pause_trees, depth_ccdf
from ..runner import ScenarioSpec, build_topology, CcChoice
from ..sim.units import US
from .common import require_scale

#: PFC pause trees only exist on the packet engine (README "Simulation
#: backends"); ``build_figure`` keeps this figure there.
PACKET_ONLY = True

SCALES = {
    "bench": {
        "topology": dict(servers_per_tor=4, n_tors=4,
                         host_rate="10Gbps", uplink_rate="40Gbps"),
        "size_scale": 0.1,
        "n_flows": 500,
        "base_rtt": 9 * US,
        "incast_fan_in": 12,
        "incast_size": 300_000,
        "buffer_bytes": 800_000,
        "load": 0.30,
    },
    "full": {
        "topology": dict(),
        "size_scale": 1.0,
        "n_flows": 10000,
        "base_rtt": 9 * US,
        "incast_fan_in": 20,
        "incast_size": 500_000,
        "buffer_bytes": 16_000_000,
        "load": 0.30,
    },
}


def scenarios(scale: str = "bench", seed: int = 3,
              overrides: dict | None = None) -> list[ScenarioSpec]:
    """The figure's grid: one DCQCN run with incast, pause tracing on."""
    p = dict(SCALES[require_scale(scale)])
    if overrides:
        p.update(overrides)
    return [ScenarioSpec(
        program="load",
        topology="testbed",
        topology_params=dict(p["topology"]),
        cc=CcChoice("dcqcn", label="DCQCN"),
        workload={
            "cdf": "fbhadoop",
            "size_scale": p["size_scale"],
            "load": p["load"],
            "n_flows": p["n_flows"],
            "incast": {
                "fan_in": p["incast_fan_in"],
                "flow_size": p["incast_size"],
                "load": 0.04,
            },
        },
        config={
            "base_rtt": p["base_rtt"],
            "buffer_bytes": p["buffer_bytes"],
        },
        measure={"pause_intervals": True},
        seed=seed,
        scale=scale,
        label="fig1/DCQCN",
        meta={"figure": "fig1"},
    )]


def render(specs, records):
    """Report hook: pause-depth CCDF + suppressed-bandwidth CDF."""
    from ..report.figures import FigureRender, Panel, Series, cdf_series

    [spec] = specs
    [record] = records
    topo = build_topology(spec)
    trees = analyze_pause_trees(
        record.pause_tracker(),
        origin_of=record.origin_map(),
        host_ids=set(topo.hosts),
        host_rate=topo.min_host_rate(),
    )
    ccdf = depth_ccdf(trees)
    suppressed = sorted(
        (t.suppressed_fraction * 100 for t in trees), reverse=True
    )
    depths = sorted(ccdf)
    stats = {
        "pause_events": float(record.extras.get("pause_count", 0)),
        "pause_trees": float(len(trees)),
        "max_depth": float(max(depths)) if depths else 0.0,
        "depth2_frac": ccdf.get(2, 0.0),
        "worst_suppressed_pct": suppressed[0] if suppressed else 0.0,
    }
    return FigureRender(
        figure="fig1",
        title="Figure 1: the impact of PFC pauses",
        panels=[
            Panel(
                key="depth-ccdf",
                title="1a: pause propagation depth CCDF",
                series=[Series(
                    name="DCQCN incast",
                    x=[float(d) for d in depths],
                    y=[ccdf[d] for d in depths],
                )],
                x_label="depth >=", y_label="fraction of events",
            ),
            Panel(
                key="suppressed",
                title="1b: suppressed host capacity per pause event",
                series=[cdf_series("DCQCN incast", suppressed)],
                x_label="suppressed capacity (%)", y_label="CDF",
            ),
        ],
        stats=stats,
    )
