"""Ablations of HPCC's three parameters (Section 3.3).

The paper claims exactly three easy knobs with simple monotone trade-offs:

* ``eta``      — utilization vs transient queues (95% default);
* ``maxStage`` — stability vs bandwidth-reclaim speed (the paper tried
  0..5 and 95..98% "all of which give similar results", footnote 5);
* ``WAI``      — fairness speed vs queue floor (Figure 14 sweeps it; the
  rule of thumb caps N x WAI by the headroom).

This bench sweeps eta and maxStage on an 8-to-1 incast and asserts the
claimed directions (and footnote 5's insensitivity for maxStage).
"""

from repro.metrics.fct import percentile
from repro.runner import CcChoice, ScenarioSpec, execute_spec
from repro.sim.units import MS, US

from conftest import run_once


def _run_incast(cc_params):
    record = execute_spec(ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={"n_hosts": 9, "host_rate": "100Gbps",
                         "link_delay": "1us"},
        cc=CcChoice("hpcc", params=cc_params),
        workload={"flows": [[s, 8, 6_000_000] for s in range(8)],
                  "deadline": 15 * MS},
        measure={"sample_interval": 2 * US,
                 "sample_ports": [["b", "to_host", 8]]},
        config={"base_rtt": 9 * US},
    ))
    series = record.queues["b"]
    steady = [v for tt, v in zip(series["times"], series["qlens"])
              if tt > 1.5 * MS]
    fcts = [r.fct for r in record.fct_records()]
    return {
        "queue_p95": percentile(steady, 95) if steady else 0.0,
        "mean_fct": sum(fcts) / len(fcts) if fcts else float("inf"),
        "done": record.completed,
    }


def sweep_eta():
    return {eta: _run_incast({"eta": eta}) for eta in (0.90, 0.95, 0.98)}


def sweep_max_stage():
    return {m: _run_incast({"max_stage": m}) for m in (0, 5)}


def test_ablation_eta(benchmark):
    results = run_once(benchmark, sweep_eta)

    print()
    for eta, r in results.items():
        print(f"eta={eta}: queue p95 {r['queue_p95'] / 1000:.1f}KB, "
              f"mean FCT {r['mean_fct'] / 1000:.0f}us")

    # Higher eta -> higher utilization -> faster completion...
    assert results[0.98]["mean_fct"] < results[0.90]["mean_fct"]
    # ...but no worse than a graceful queue increase (steady queues stay
    # tiny for all settings — the knob is safe, as Section 3.3 claims).
    for r in results.values():
        assert r["done"]
        assert r["queue_p95"] < 50_000


def test_ablation_max_stage(benchmark):
    results = run_once(benchmark, sweep_max_stage)

    print()
    for m, r in results.items():
        print(f"maxStage={m}: queue p95 {r['queue_p95'] / 1000:.1f}KB, "
              f"mean FCT {r['mean_fct'] / 1000:.0f}us")

    # Footnote 5: maxStage 0..5 "all give similar results" in steady state.
    q_values = [r["queue_p95"] for r in results.values()]
    f_values = [r["mean_fct"] for r in results.values()]
    assert max(f_values) < 1.25 * min(f_values)
    assert all(r["done"] for r in results.values())
