"""Backend divergence analyzer: where did packet and fluid disagree?

The packet and fluid engines drive the *same* ``core/`` algorithms, so
for one :class:`~repro.runner.spec.ScenarioSpec` their per-flow decision
streams (see :class:`~repro.core.base.DecisionTap`) should tell the
same story.  This module aligns the two timelines and quantifies where
they part ways:

* **time-weighted rate error** — the step-function rate trajectories
  implied by each backend's ``rate_after`` values, integrated as a
  relative gap over the overlapping window;
* **time of first divergence** — the first instant the relative rate
  gap exceeds a threshold (default 25%), i.e. "here is the first ACK
  where the backends disagreed";
* **bottleneck-attribution agreement** — for INT schemes, how often
  both backends blamed the *same hop* for the congestion they reacted
  to (``inputs["bottleneck_hop"]``, path-ordered on both engines; both
  route a flow by one ECMP rule, so a hop index names the same link on
  an ECMP fabric too).

The analyzer reads ``decision`` rows: the telemetry stream's records,
or a ``measure["decisions"]`` run's record columns expanded by
:func:`decision_rows`.  Consumed three ways: the ``hpcc-repro trace
diff`` CLI, the fidelity report's fig13 drilldown panel, and the
machine-readable ``divergence.json`` artifact — all render
:func:`compare_decisions` output.
"""

from __future__ import annotations

from operator import itemgetter

_EPS = 1e-12


def decision_records(records: list[dict]) -> list[dict]:
    """The ``decision`` records of a telemetry stream, in stored order."""
    return [r for r in records if r.get("kind") == "decision"]


def decision_rows(columns: dict[str, dict]) -> list[dict]:
    """A record's ``extras["decisions"]`` columns as decision rows.

    The inverse of :meth:`~repro.core.base.DecisionTap.columns` for the
    fields :func:`compare_decisions` reads: one ``decision`` row per
    entry, -1 turned back into an absent rate or hop, in the (sim_ns,
    flow) order the telemetry export uses — so a fresh and a cached
    record (whose JSON keys sort differently) expand identically.
    """
    rows = []
    for flow, col in columns.items():
        flow_id, scheme = int(flow), col["scheme"]
        rows.extend(
            {"kind": "decision", "flow": flow_id, "scheme": scheme,
             "sim_ns": now, "rate_after": rate if rate >= 0 else None,
             "inputs": {"bottleneck_hop": hop} if hop >= 0 else {}}
            for now, rate, hop in zip(col["sim_ns"], col["rate_after"],
                                      col["bottleneck_hop"])
        )
    rows.sort(key=itemgetter("sim_ns", "flow"))
    return rows


def by_flow(decisions: list[dict]) -> dict[int, list[dict]]:
    """Group decisions per flow, each list sorted by ``sim_ns``."""
    flows: dict[int, list[dict]] = {}
    for dec in decisions:
        flows.setdefault(int(dec["flow"]), []).append(dec)
    for stream in flows.values():
        stream.sort(key=lambda d: float(d["sim_ns"]))
    return flows


def rate_trajectory(decisions: list[dict]) -> tuple[list[float], list[float]]:
    """One flow's decisions as a step function (times_ns, rates).

    The rate at time ``t`` is the ``rate_after`` of the last decision at
    or before ``t``; consecutive equal rates are kept (they mark real
    decisions, which the report renders as markers).
    """
    times: list[float] = []
    rates: list[float] = []
    for dec in decisions:
        rate = dec.get("rate_after")
        if rate is None or isinstance(rate, str):
            continue
        times.append(float(dec["sim_ns"]))
        rates.append(float(rate))
    return times, rates


def _step_value(times: list[float], values: list[float], t: float) -> float:
    """The step function's value at ``t`` (last breakpoint <= t)."""
    lo, hi = 0, len(times) - 1
    if t < times[0]:
        return values[0]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if times[mid] <= t:
            lo = mid
        else:
            hi = mid - 1
    return values[lo]


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _EPS)


def _flow_divergence(packet: list[dict], fluid: list[dict],
                     threshold: float) -> dict:
    """Divergence metrics for one flow's two decision streams."""
    pt, pr = rate_trajectory(packet)
    ft, fr = rate_trajectory(fluid)
    out: dict = {
        "packet_decisions": len(packet),
        "fluid_decisions": len(fluid),
        "time_weighted_rate_error": None,
        "first_divergence_ns": None,
    }
    if pt and ft:
        # Overlap window: both trajectories defined, extended as
        # constant past their last decision to the later endpoint.
        t0 = max(pt[0], ft[0])
        t1 = max(pt[-1], ft[-1])
        breaks = sorted({t for t in pt + ft if t0 <= t <= t1} | {t0, t1})
        weighted = 0.0
        first = None
        for i, t in enumerate(breaks):
            gap = _rel_gap(_step_value(pt, pr, t), _step_value(ft, fr, t))
            if first is None and gap > threshold:
                first = t
            if i + 1 < len(breaks):
                weighted += gap * (breaks[i + 1] - t)
        span = t1 - t0
        out["time_weighted_rate_error"] = (
            weighted / span if span > 0 else
            _rel_gap(_step_value(pt, pr, t0), _step_value(ft, fr, t0))
        )
        out["first_divergence_ns"] = first
    # Bottleneck attribution (INT schemes): compare the hop each backend
    # blamed, sampling fluid's attribution at every packet decision.
    f_attr = [
        (float(d["sim_ns"]), int(d["inputs"]["bottleneck_hop"]))
        for d in fluid
        if int(d.get("inputs", {}).get("bottleneck_hop", -1)) >= 0
    ]
    agree = compared = 0
    if f_attr:
        at, av = [t for t, _ in f_attr], [v for _, v in f_attr]
        for dec in packet:
            hop = int(dec.get("inputs", {}).get("bottleneck_hop", -1))
            if hop < 0:
                continue
            compared += 1
            if _step_value(at, av, float(dec["sim_ns"])) == hop:
                agree += 1
    out["attribution"] = (
        {"compared": compared, "agree": agree,
         "mismatch": compared - agree}
        if compared else None
    )
    return out


def compare_decisions(packet_records: list[dict], fluid_records: list[dict],
                      threshold: float = 0.25) -> dict:
    """Align two backends' decision streams for the same scenario.

    ``packet_records``/``fluid_records`` are telemetry record lists (any
    kinds; only ``decision`` records are read).  Flow ids match across
    backends by construction — both engines materialize the same flow
    population from the spec.  Returns the ``divergence.json`` structure.
    """
    p_flows = by_flow(decision_records(packet_records))
    f_flows = by_flow(decision_records(fluid_records))
    flows: dict[str, dict] = {}
    errors: list[float] = []
    firsts: list[float] = []
    attr_agree = attr_total = 0
    for flow_id in sorted(set(p_flows) | set(f_flows)):
        entry = _flow_divergence(
            p_flows.get(flow_id, []), f_flows.get(flow_id, []), threshold
        )
        flows[str(flow_id)] = entry
        if entry["time_weighted_rate_error"] is not None:
            errors.append(entry["time_weighted_rate_error"])
        if entry["first_divergence_ns"] is not None:
            firsts.append(entry["first_divergence_ns"])
        if entry["attribution"] is not None:
            attr_agree += entry["attribution"]["agree"]
            attr_total += entry["attribution"]["compared"]
    schemes = {
        d["scheme"]
        for stream in list(p_flows.values()) + list(f_flows.values())
        for d in stream
    }
    return {
        "threshold": threshold,
        "scheme": sorted(schemes)[0] if len(schemes) == 1
        else ",".join(sorted(schemes)),
        "flows": flows,
        "summary": {
            "flows_compared": len(flows),
            "mean_rate_error": sum(errors) / len(errors) if errors else None,
            "max_rate_error": max(errors) if errors else None,
            "flows_diverged": len(firsts),
            "first_divergence_ns": min(firsts) if firsts else None,
            "attribution_compared": attr_total,
            "attribution_agreement": (
                attr_agree / attr_total if attr_total else None
            ),
        },
    }


def format_divergence(div: dict) -> str:
    """Human rendering of :func:`compare_decisions` for the CLI."""
    s = div["summary"]
    lines = [
        f"decision-trace diff ({div['scheme']}, "
        f"threshold {div['threshold']:.0%} relative rate gap)",
        f"  flows compared: {s['flows_compared']}, "
        f"diverged: {s['flows_diverged']}",
    ]
    if s["mean_rate_error"] is not None:
        lines.append(
            f"  time-weighted rate error: mean {s['mean_rate_error']:.3%}, "
            f"max {s['max_rate_error']:.3%}"
        )
    if s["first_divergence_ns"] is not None:
        lines.append(
            f"  first divergence: {s['first_divergence_ns'] / 1000.0:.2f}us"
        )
    if s["attribution_agreement"] is not None:
        lines.append(
            f"  bottleneck attribution: {s['attribution_agreement']:.1%} "
            f"agreement over {s['attribution_compared']} decisions"
        )
    lines.append(f"  {'flow':>6} {'pkt dec':>8} {'fld dec':>8} "
                 f"{'rate err':>9} {'first div':>12} {'attr agree':>11}")
    for flow_id, entry in div["flows"].items():
        err = entry["time_weighted_rate_error"]
        first = entry["first_divergence_ns"]
        attr = entry["attribution"]
        err_cell = f"{err:>9.3%}" if err is not None else f"{'n/a':>9}"
        first_cell = (f"{first / 1000.0:>10.2f}us" if first is not None
                      else f"{'never':>12}")
        attr_cell = (f"{attr['agree']}/{attr['compared']}".rjust(11)
                     if attr is not None else f"{'n/a':>11}")
        lines.append(
            f"  {flow_id:>6} {entry['packet_decisions']:>8} "
            f"{entry['fluid_decisions']:>8} {err_cell} "
            f"{first_cell} {attr_cell}"
        )
    return "\n".join(lines)
