"""Appendix A experiments: the theory, executed.

* A.1 — queueing at sub-100% utilization: the sumDi/D/1 approximations
  against a direct simulation of periodic sources.
* A.2 — the Pareto-convergence Lemma of recursions (5)-(6) on random
  topologies: feasible after one step, monotone after that, fixed and
  Pareto-optimal within I steps.
* A.4 — window limits under a 64-to-1 line-rate incast in-tree: the root
  queue drains as fast as possible and senders end up at ~1/65 of the
  initial window, without PFC.

A.1 and A.2 are analytic/numeric programs; A.4 is a regular ``flows``
scenario — all three route through the sweep runner, so ``hpcc-repro
sweep appendix`` caches them like any figure cell.
"""

from __future__ import annotations

from ..runner import CcChoice, ScenarioSpec, build_topology
from ..sim.units import MS, US


def a1_scenario(n_sources: int = 50, rho: float = 0.95, threshold: int = 20,
                seed: int = 5) -> ScenarioSpec:
    return ScenarioSpec(
        program="appendix_a1",
        workload={"n_sources": n_sources, "rho": rho, "threshold": threshold},
        seed=seed,
        label=f"A.1 N={n_sources} rho={rho}",
        meta={"figure": "appendix"},
    )


def a2_scenario(n_trials: int = 50, seed: int = 11) -> ScenarioSpec:
    """Check the Lemma numerically.

    Reproduction note: the appendix proof saturates one resource per step
    *exactly* only when no path through the new bottleneck is already
    clamped by an earlier one; otherwise saturation is geometric (fast but
    asymptotic).  We therefore check Pareto optimality within I steps at a
    1% saturation tolerance and within 5I steps at 1e-6.
    """
    return ScenarioSpec(
        program="appendix_a2",
        workload={"n_trials": n_trials},
        seed=seed,
        label=f"A.2 {n_trials} trials",
        meta={"figure": "appendix"},
    )


A4_BASE_RTT = 9 * US


def a4_scenario(fan_in: int = 64, seed: int = 1) -> ScenarioSpec:
    """64 senders at line rate into one receiver through an in-tree."""
    receiver = 64
    return ScenarioSpec(
        program="flows",
        topology="intree",
        topology_params={
            "fan_in": 8, "depth": 2,
            "host_rate": "100Gbps", "delay": "1us",
        },
        cc=CcChoice("hpcc"),
        workload={
            "flows": [
                [s, receiver, 2_000_000, 0.0, "incast"] for s in range(64)
            ],
            "deadline": 3 * MS,
        },
        config={
            "base_rtt": A4_BASE_RTT,
            "pfc_enabled": True,
            "buffer_bytes": 64_000_000,
        },
        measure={
            "sample_interval": 1 * US,
            "sample_ports": [["root", "to_host", receiver]],
            "windows": True,
        },
        seed=seed,
        label=f"A.4 {fan_in}-to-1 incast",
        meta={"figure": "appendix", "fan_in": fan_in},
    )


def scenarios(scale: str = "bench", seed: int | None = None) -> list[ScenarioSpec]:
    """All Appendix A cells (for ``hpcc-repro sweep``); seeds follow the
    per-experiment defaults unless overridden."""
    if seed is None:
        return [a1_scenario(), a2_scenario(), a4_scenario()]
    return [a1_scenario(seed=seed), a2_scenario(seed=seed),
            a4_scenario(seed=seed)]


def render(specs, records):
    """Report hook: analytic-vs-simulated bars (A.1), lemma counts
    (A.2) and the A.4 incast summary, identified by program."""
    from ..report.figures import FigureRender, Panel, Series

    panels = []
    stats: dict[str, float] = {}
    for spec, record in zip(specs, records):
        e = record.extras
        if spec.program == "appendix_a1":
            stats["a1_mean_ratio"] = (
                e["simulated_mean"] / e["analytic_mean_full_load"]
                if e["analytic_mean_full_load"] else float("nan")
            )
            stats["a1_sim_mean"] = e["simulated_mean"]
            stats["a1_sim_tail"] = e["simulated_tail"]
            stats["a1_analytic_tail"] = e["analytic_tail"]
            panels.append(Panel(
                key="a1-queueing",
                title="A.1: mean queue, simulation vs analytic bound",
                series=[Series(
                    name="packets", kind="bar",
                    x=[0.0, 1.0],
                    y=[e["simulated_mean"], e["analytic_mean_full_load"]],
                    labels=["simulated", "analytic (rho=1)"],
                )],
                y_label="mean queue (pkts)",
            ))
        elif spec.program == "appendix_a2":
            n = e["n_trials"]
            stats["a2_feasible_frac"] = e["feasible_after_one"] / n
            stats["a2_monotone_frac"] = e["monotone"] / n
            stats["a2_pareto_frac"] = e["pareto_asymptotic"] / n
            # Within I steps at 1% saturation tolerance (a2_pareto_frac
            # is the asymptotic 5I-step, 1e-6 variant).
            stats["a2_pareto_within_i_frac"] = e["pareto_within_i"] / n
            panels.append(Panel(
                key="a2-lemma",
                title="A.2: Pareto-convergence lemma, fraction of trials",
                series=[Series(
                    name="fraction", kind="bar",
                    x=[0.0, 1.0, 2.0],
                    y=[stats["a2_feasible_frac"], stats["a2_monotone_frac"],
                       stats["a2_pareto_frac"]],
                    labels=["feasible@1", "monotone", "Pareto@5I"],
                )],
                y_label="fraction of trials",
            ))
        else:                                   # A.4 flows scenario
            t, q = record.queue_series("root")
            panels.append(Panel(
                key="a4-root-queue",
                title="A.4: root queue through a 64-to-1 incast",
                series=[Series(
                    name="HPCC",
                    x=[tt / US for tt in t], y=[v / 1_000_000 for v in q],
                )],
                x_label="time (us)", y_label="queue (MB)",
            ))
            windows = [
                w for w in record.final_windows().values() if w is not None
            ]
            topo = build_topology(spec)
            winit = topo.host_rate(0) * A4_BASE_RTT
            stats["a4_window_frac"] = (
                sum(windows) / len(windows) / winit if windows else float("nan")
            )
            stats["a4_pfc_pauses"] = float(record.extras.get("pause_count", 0))
            # Drain time: from the burst crossing half its peak until the
            # root queue is back under 1% of it.
            peak = max(q, default=0.0)
            rose_at = next((tt for tt, v in zip(t, q) if v > 0.5 * peak), 0.0)
            drained_at = next(
                (tt for tt, v in zip(t, q)
                 if tt > rose_at and v < 0.01 * peak),
                float("inf"),
            )
            stats["a4_peak_queue_kb"] = peak / 1000
            stats["a4_drain_us"] = (drained_at - rose_at) / US
    return FigureRender(
        figure="appendix",
        title="Appendix A: the theory, executed",
        panels=panels,
        stats=stats,
    )
