"""Figure 9: testbed micro-benchmarks, HPCC versus DCQCN (Section 5.2).

Four scenarios on the 32-server testbed PoD (25Gbps hosts):

* 9a/9b  long-short   — a line-rate long flow; a 1MB short flow joins and
  leaves.  HPCC recovers the long flow's rate immediately; DCQCN does not
  recover within the window (>350 RTTs).
* 9c/9d  incast       — 7 synchronized senders join a long flow's
  receiver.  HPCC drains the queue in about one RTT; DCQCN builds
  hundreds of KB.
* 9e/9f  elephant-mice — mice (1KB) flows cross a link saturated by two
  elephants.  HPCC keeps near-zero queues so mice see ~base-RTT latency;
  DCQCN holds a standing queue near the ECN threshold.
* 9g/9h  fairness     — four flows join the same bottleneck one by one.

DCQCN's additive increase is glacial by design (the paper's own Figure 9b
shows no recovery within 2ms); the elephant-mice scenario therefore uses a
raised ``rai`` so DCQCN reaches its ECN-threshold equilibrium within the
scaled warm-up — the accelerant changes time-to-equilibrium, not the
equilibrium queue itself.
"""

from __future__ import annotations

from ..metrics.fct import percentile
from ..metrics.timeseries import jain_fairness
from ..runner import CcChoice, ScenarioSpec
from ..sim.units import MS, US, gbps
from .common import require_scale

T_TESTBED = 9 * US          # the paper's testbed T

CCS = (
    CcChoice("hpcc", label="HPCC"),
    CcChoice("dcqcn", label="DCQCN"),
)

RECEIVER = 8                # first host of the second rack


def _testbed_spec(cc: CcChoice, scenario: str, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        program="flows",
        topology="testbed",
        topology_params={},
        cc=cc,
        label=cc.display,
        meta={"figure": "fig9", "scenario": scenario},
        **kwargs,
    )


# -- 9a/9b: long-short -------------------------------------------------------------

def long_short_scenarios(params: dict | None = None,
                         seed: int = 1) -> list[ScenarioSpec]:
    p = {
        "duration": 3 * MS, "short_join": 1 * MS, "short_size": 1_000_000,
        "long_size": 12_000_000, "goodput_bin": 50 * US, "sample_interval": 5 * US,
    }
    if params:
        p.update(params)
    return [
        _testbed_spec(
            cc, "long-short",
            workload={
                "flows": [
                    [0, RECEIVER, p["long_size"], 0.0, "long"],
                    [1, RECEIVER, p["short_size"], p["short_join"], "short"],
                ],
                "deadline": p["duration"],
            },
            config={"base_rtt": T_TESTBED, "goodput_bin": p["goodput_bin"]},
            measure={
                "sample_interval": p["sample_interval"],
                "sample_ports": [["bneck", "to_host", RECEIVER]],
            },
            seed=seed,
        ).replaced(**{"meta.params": p})
        for cc in CCS
    ]


# -- 9c/9d: incast -----------------------------------------------------------------

def incast_scenarios(params: dict | None = None,
                     seed: int = 1) -> list[ScenarioSpec]:
    p = {
        "duration": 5 * MS, "incast_at": 1 * MS, "fan_in": 7,
        "incast_size": 500_000, "long_size": 16_000_000,
        "goodput_bin": 50 * US, "sample_interval": 2 * US,
    }
    if params:
        p.update(params)
    flows = [[0, RECEIVER, p["long_size"], 0.0, "long"]]
    flows += [
        [1 + i, RECEIVER, p["incast_size"], p["incast_at"], "incast"]
        for i in range(p["fan_in"])
    ]
    return [
        _testbed_spec(
            cc, "incast",
            workload={"flows": flows, "deadline": p["duration"]},
            config={"base_rtt": T_TESTBED, "goodput_bin": p["goodput_bin"]},
            measure={
                "sample_interval": p["sample_interval"],
                "sample_ports": [["bneck", "to_host", RECEIVER]],
            },
            seed=seed,
        ).replaced(**{"meta.params": p})
        for cc in CCS
    ]


# -- 9e/9f: elephant-mice ----------------------------------------------------------

def elephant_mice_scenarios(params: dict | None = None,
                            seed: int = 1) -> list[ScenarioSpec]:
    p = {
        "warmup": 10 * MS, "measure": 4 * MS, "mice_gap": 100 * US,
        "mice_size": 1_000, "sample_interval": 10 * US,
        "dcqcn_rai": gbps(0.5),
    }
    if params:
        p.update(params)
    duration = p["warmup"] + p["measure"]
    elephant_size = int(3.125 * duration)  # 25Gbps worth of bytes: never ends
    flows = [
        [0, RECEIVER, elephant_size, 0.0, "elephant"],
        [1, RECEIVER, elephant_size, 0.0, "elephant"],
    ]
    t = p["warmup"]
    while t < duration:
        flows.append([2, RECEIVER, p["mice_size"], t, "mice"])
        t += p["mice_gap"]
    specs = []
    for cc in CCS:
        cc_run = cc
        if cc.name == "dcqcn":
            cc_run = CcChoice("dcqcn", label=cc.label,
                              params={"rai": p["dcqcn_rai"]})
        specs.append(_testbed_spec(
            cc_run, "elephant-mice",
            workload={"flows": flows, "deadline": duration},
            config={"base_rtt": T_TESTBED},
            measure={
                "sample_interval": p["sample_interval"],
                "sample_ports": [["bneck", "to_host", RECEIVER]],
            },
            seed=seed,
        ).replaced(**{"meta.params": p}))
    return specs


# -- 9g/9h: fairness ---------------------------------------------------------------

def fairness_scenarios(params: dict | None = None,
                       seed: int = 1) -> list[ScenarioSpec]:
    p = {
        "join_gap": 2 * MS, "flow_size": 25_000_000, "duration": 30 * MS,
        "goodput_bin": 200 * US,
    }
    if params:
        p.update(params)
    flows = [
        [i, RECEIVER, p["flow_size"], i * p["join_gap"], f"flow{i}"]
        for i in range(4)
    ]
    specs = []
    for cc in CCS:
        cc_run = cc
        if cc.name == "hpcc":
            # WAI sized for the actual concurrency (footnote 4 sizes WAI by
            # expected flow count) so fairness converges within the window.
            cc_run = CcChoice(cc.name, label=cc.label,
                              params={"n_flows_for_wai": 16})
        specs.append(_testbed_spec(
            cc_run, "fairness",
            workload={"flows": flows, "deadline": p["duration"]},
            config={"base_rtt": T_TESTBED, "goodput_bin": p["goodput_bin"]},
            seed=seed,
        ).replaced(**{"meta.params": p}))
    return specs


def scenarios(scale: str = "bench", seed: int = 1) -> list[ScenarioSpec]:
    """All four micro-benchmarks as one grid (for ``hpcc-repro sweep``)."""
    require_scale(scale)
    return (
        long_short_scenarios(seed=seed)
        + incast_scenarios(seed=seed)
        + elephant_mice_scenarios(seed=seed)
        + fairness_scenarios(seed=seed)
    )


def render(specs, records):
    """Report hook: one panel per micro-benchmark, keyed by scenario.

    Handles any subset of the four scenario groups (the report runs the
    full ``scenarios()`` grid; callers replaying a partial sweep get
    only the panels their records cover).
    """
    from ..report.figures import FigureRender, Panel, Series, cdf_series

    groups: dict[str, list[tuple]] = {}
    for spec, record in zip(specs, records):
        groups.setdefault(spec.meta["scenario"], []).append((spec, record))
    panels = []
    stats: dict[str, float] = {}

    for spec, record in groups.get("long-short", []):
        p = spec.meta["params"]
        tracker = record.goodput()
        [long_id] = record.flow_ids("long")
        short_id = record.flow_ids("short")[0]
        t, g = tracker.series(long_id)
        panels.append(Panel(
            key=f"longshort-{spec.label.lower()}",
            title=f"9a/9b: long-flow goodput, {spec.label}",
            series=[
                Series(name="long", x=[tt / US for tt in t], y=g),
                Series(name="short",
                       x=[tt / US for tt in tracker.series(short_id)[0]],
                       y=tracker.series(short_id)[1]),
            ],
            x_label="time (us)", y_label="goodput (Gbps)",
        ))
        short_end = record.finish_times().get(short_id, p["duration"])
        window_from = min(short_end + 200 * US, p["duration"] - 500 * US)
        stats[f"recovery_gbps/{spec.label}"] = tracker.mean_gbps(
            long_id, window_from, p["duration"]
        )

    incast_series = []
    for spec, record in groups.get("incast", []):
        p = spec.meta["params"]
        t, q = record.queue_series("bneck")
        incast_series.append(Series(
            name=spec.label,
            x=[tt / US for tt in t], y=[v / 1000 for v in q],
        ))
        in_event = [(tt, v) for tt, v in zip(t, q) if tt >= p["incast_at"]]
        stats[f"incast_peak_kb/{spec.label}"] = (
            max((v for _, v in in_event), default=0) / 1000
        )
        probe = p["incast_at"] + 10 * T_TESTBED
        stats[f"incast_settled_kb/{spec.label}"] = next(
            (v for tt, v in in_event if tt >= probe), 0
        ) / 1000
    if incast_series:
        panels.append(Panel(
            key="incast-queue",
            title="9c/9d: bottleneck queue through a 7-to-1 incast",
            series=incast_series,
            x_label="time (us)", y_label="queue (KB)",
        ))

    mice_series = []
    for spec, record in groups.get("elephant-mice", []):
        p = spec.meta["params"]
        mice = [
            r.fct / US for r in record.fct_records() if r.spec.tag == "mice"
        ]
        mice_series.append(cdf_series(spec.label, mice))
        stats[f"mice_p50_us/{spec.label}"] = (
            percentile(mice, 50) if mice else float("nan")
        )
        stats[f"mice_p95_us/{spec.label}"] = (
            percentile(mice, 95) if mice else float("nan")
        )
        t_q, q = record.queue_series("bneck")
        steady = [v for tt, v in zip(t_q, q) if tt >= p["warmup"]]
        stats[f"queue_p95_kb/{spec.label}"] = (
            percentile(steady, 95) / 1000 if steady else float("nan")
        )
    if mice_series:
        panels.append(Panel(
            key="mice-fct",
            title="9e/9f: mice FCT through an elephant-saturated link",
            series=mice_series,
            x_label="mice FCT (us)", y_label="CDF",
        ))

    fairness_labels = []
    fairness_values = []
    for spec, record in groups.get("fairness", []):
        p = spec.meta["params"]
        tracker = record.goodput()
        ids = [record.flow_ids(f"flow{i}")[0] for i in range(4)]
        window_from = 3 * p["join_gap"] + 1 * MS
        finish_times = record.finish_times()
        finishes = [finish_times[fid] for fid in ids if fid in finish_times]
        window_to = min(finishes) if finishes else p["duration"]
        window_to = min(window_to - 100 * US, p["duration"])
        window_to = max(window_to, window_from + 500 * US)
        rates = [
            tracker.mean_gbps(fid, window_from, window_to) for fid in ids
        ]
        fairness_labels.append(spec.label)
        fairness_values.append(jain_fairness(rates))
        stats[f"jain/{spec.label}"] = fairness_values[-1]
        stats[f"total_gbps/{spec.label}"] = sum(rates)
    if fairness_labels:
        panels.append(Panel(
            key="fairness",
            title="9g/9h: Jain fairness with four staggered flows",
            series=[Series(
                name="Jain index", kind="bar",
                x=[float(i) for i in range(len(fairness_labels))],
                y=fairness_values, labels=fairness_labels,
            )],
            y_label="Jain index",
        ))

    return FigureRender(
        figure="fig9",
        title="Figure 9: testbed micro-benchmarks",
        panels=panels,
        stats=stats,
    )
