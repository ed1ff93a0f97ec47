"""Extension experiment: CC behaviour across a link failure.

Section 2.3 notes that DCQCN's "timer-based scheduling can also trigger
traffic oscillations during link failures" (details omitted in the paper
for space).  This extension exercises the scenario the paper alludes to:

Two racks joined by two parallel trunks; flows ECMP-split across them.
One trunk is cut mid-run — capacity halves, the surviving trunk
congests, and rerouted flows lose their in-flight packets.  A good CC
should re-converge quickly to the new fair rates; HPCC additionally
resets its per-hop INT state when the path (hop count) changes.

The cut is declared as a network-dynamics timeline (``repro.dynamics``),
so the same spec runs on either backend: the grid's packet cells for
full per-packet fidelity, ``spec.replaced(backend="fluid")`` for the
~30x-faster flow-level twin (pooled trunk capacity halves at the event
boundary).

Reported per scheme: goodput before / during / after recovery, packets
lost to the cut, time to regain 80% of the surviving capacity.
"""

from __future__ import annotations

from ..dynamics import FailLink, Timeline
from ..runner import CcChoice, RunRecord, ScenarioGrid, ScenarioSpec, cc_axis
from ..sim.units import MS, US
from ..topology.simple import dual_trunk

__all__ = ["BENCH", "SCHEMES", "TRUNK_GBPS", "dual_trunk", "goodput_summary",
           "recovery_time_us", "render", "scenarios", "surviving_payload_gbps"]


BENCH = {
    "n_pairs": 4,
    "fail_at": 2 * MS,
    "duration": 12 * MS,
    "goodput_bin": 100 * US,
    "flow_size": 40_000_000,
    "detection_delay": 0.0,
}

#: Rate of each dual_trunk member (and so the surviving capacity after
#: one cut).  Change together with the ``dual_trunk`` topology factory.
TRUNK_GBPS = 50.0


def surviving_payload_gbps(record: RunRecord) -> float:
    """Goodput capacity of the surviving trunk, header overhead removed
    (goodput counts 1000B payloads; the wire carries payload + header)."""
    header = record.extras["header_bytes"]
    return TRUNK_GBPS * (1000 / (1000 + header))


def goodput_summary(record: RunRecord, p: dict) -> dict:
    """Per-record failover accounting: aggregate goodput before the cut
    and near the end, recovery time to 80% of the surviving capacity,
    packets lost to the down period."""
    goodput = record.goodput()
    ids = record.flow_ids("bg")

    def total_in(t0, t1):
        return sum(goodput.mean_gbps(fid, t0, t1) for fid in ids)

    return {
        "before_gbps": total_in(1 * MS, p["fail_at"]),
        "after_gbps": total_in(p["duration"] - 3 * MS,
                               p["duration"] - 1 * MS),
        "recovery_us": recovery_time_us(
            record, p["fail_at"], 0.8 * surviving_payload_gbps(record), ids
        ),
        "lost_packets": sum(
            e.get("packets_lost_down", 0)
            for e in record.link_events() if e["type"] == "fail_link"
        ),
    }

SCHEMES = (
    CcChoice("hpcc", label="HPCC"),
    CcChoice("dcqcn", label="DCQCN"),
    CcChoice("dctcp", label="DCTCP"),
)


def scenarios(
    scale: str = "bench",
    seed: int = 1,
    schemes: tuple[CcChoice, ...] = SCHEMES,
    params: dict | None = None,
) -> list[ScenarioSpec]:
    """The grid: one dual-trunk run per scheme, trunk cut mid-run."""
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
            [FailLink(at=p["fail_at"], a=sw_a, b=sw_b)],
            detection_delay=p["detection_delay"],
        ),
        config={
            "base_rtt": 9 * US,
            "goodput_bin": p["goodput_bin"],
            "rto": 500 * US,
        },
        seed=seed,
        scale=scale,
        meta={"figure": "failover", "params": p, "sw_a": sw_a},
    )
    return ScenarioGrid(base, cc_axis(schemes)).expand()


def recovery_time_us(
    record: RunRecord,
    fail_at: float,
    target_gbps: float,
    ids: list[int] | None = None,
) -> float:
    """Time (us) from the cut until aggregate goodput regains ``target``.

    The first goodput bin strictly after the cut whose aggregate reaches
    the target marks recovery; ``inf`` means the run never got there.
    Backend-neutral: works on packet and fluid records alike.
    """
    goodput = record.goodput()
    if goodput is None:
        raise ValueError("record has no goodput series (set goodput_bin)")
    if ids is None:
        ids = record.flow_ids("bg")
    times, series = goodput.total_series(ids)
    rec = next(
        (t for t, g in zip(times, series)
         if t > fail_at + goodput.bin_ns and g >= target_gbps),
        float("inf"),
    )
    return (rec - fail_at) / US


def render(specs, records):
    """Report hook: aggregate goodput through the cut, per scheme."""
    from ..report.figures import FigureRender, Panel, Series

    series = []
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        label = spec.label
        goodput = record.goodput()
        ids = record.flow_ids("bg")
        times, total = goodput.total_series(ids)
        series.append(Series(
            name=label, x=[t / US for t in times], y=total,
        ))
        for metric, value in goodput_summary(record,
                                             spec.meta["params"]).items():
            stats[f"{metric}/{label}"] = float(value)
        # Fluid records omit queue-free switches, hence the default.
        stats[f"drained/{label}"] = float(
            record.switch_queued_bytes().get(spec.meta["sw_a"], 0) < 10_000_000
        )
    return FigureRender(
        figure="failover",
        title="Extension: CC behaviour across a link failure",
        panels=[Panel(
            key="goodput",
            title="Aggregate goodput, one of two trunks cut mid-run",
            series=series,
            x_label="time (us)", y_label="goodput (Gbps)",
        )],
        stats=stats,
        notes=[
            "Pre-cut goodput differs across backends by design: fluid "
            "pools the two trunk members (no ECMP hash imbalance)."
        ],
    )
