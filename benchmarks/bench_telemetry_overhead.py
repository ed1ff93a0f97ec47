"""Telemetry must be (nearly) free: <2% on both engines, off and on.

The obs subsystem's hard constraint (ISSUE 7): with telemetry off the
engines must run within 2% of their uninstrumented speed, and even with
probes attached the overhead must stay under the same bar — which is
what the call-site-granularity probe design buys (one ``None`` check
per ``run()`` call / per step, never per event).

Three measurements, each timed in the process's own CPU time
(``time.process_time``) over N rounds that run both variants back to
back, and judged on the median round's ratio, so host load that
comes and goes across rounds weighs on both sides alike:

* **packet off** — the true off-path cost: ``Simulator.run`` (the thin
  dispatch wrapper) vs ``Simulator._run`` (the loop body the wrapper
  guards), driving the same chunked chain workload that mirrors
  ``Network.run_until_done``'s 100 µs call pattern.
* **packet on** — the same workload with a :class:`SimProbe` attached
  vs detached.  Off-cost is a strict subset of on-cost, so this also
  bounds the off path a fortiori.
* **fluid on** — a bench-tier Figure-11 scenario through
  ``execute_spec`` with and without run telemetry (probe + spans +
  memory sink).  The fluid off path is a single ``probe is None``
  check per RTT step, bounded by the same a-fortiori argument.

Two more measurements bound the control-loop flight recorder (ISSUE 9):
**packet decisions** and **fluid decisions** run one fig13-style
incast through ``execute_spec`` with ``measure["decisions"]`` and
``telemetry=True`` (per-ACK :class:`~repro.obs.DecisionTap` recording,
the record's decision columns and the stream export) against the same
run with plain telemetry.  Decision recording is genuine per-decision
hot-path work, so it gets its own bar (:data:`DECISIONS_LIMIT`, <3%)
— still small, because a record is one tuple append into a bounded
ring.

A small absolute grace (:data:`GRACE_S`) keeps sub-hundred-millisecond
measurements from failing on timer and cache jitter alone; the ratio bar
is what matters at real workload sizes.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py
"""

from __future__ import annotations

import gc
import statistics
import time

from conftest import run_once
from repro.obs import Telemetry, instrument_simulator
from repro.runner import CcChoice
from repro.runner.execute import execute_spec
from repro.sim.engine import Simulator

#: Overhead bar: instrumented / baseline CPU time.
LIMIT = 1.02

#: Overhead bar for the per-ACK decision tap (over a telemetry run).
DECISIONS_LIMIT = 1.03

#: Absolute jitter grace: a delta under this is noise, not overhead.
GRACE_S = 0.010

N_EVENTS = 100_000
CHUNK_NS = 500.0            # events are 1 ns apart -> 500 events/run call
REPEATS = 5


def _chain_sim() -> Simulator:
    sim = Simulator()

    def chain(remaining):
        if remaining:
            sim.schedule(1.0, chain, remaining - 1)

    chain(N_EVENTS)
    return sim


def _drive(sim: Simulator, run) -> None:
    until = 0.0
    while sim.pending:
        until += CHUNK_NS
        run(until)


def _cpu_s(thunk) -> float:
    """The process's own CPU seconds for one call, GC collected before and
    held off during it, so an allocation-heavy variant doesn't eat a
    stochastic collection pause that the other side dodged."""
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        thunk()
        return time.process_time() - started
    finally:
        gc.enable()


def _interleaved(variant_a, variant_b, repeats: int = REPEATS):
    """``repeats`` rounds of ``(a, b)`` CPU seconds, a then b each round."""
    return [(_cpu_s(variant_a), _cpu_s(variant_b)) for _ in range(repeats)]


def _verdict(pairs: list[tuple[float, float]], limit: float = LIMIT) -> dict:
    """The median round's ratio and delta: each round's two runs share
    the host's state, so a slow stretch that spans several rounds moves
    both sides of each and only the outlying rounds of the median."""
    ratio = statistics.median(b / a for a, b in pairs)
    delta = statistics.median(b - a for a, b in pairs)
    return {
        "baseline_s": statistics.median(a for a, _ in pairs),
        "tested_s": statistics.median(b for _, b in pairs),
        "ratio": ratio,
        "delta_s": delta,
        "limit": limit,
        "ok": ratio <= limit or delta <= GRACE_S,
    }


def run_packet_off() -> dict:
    """Dispatch wrapper vs raw loop body, telemetry detached."""

    def direct():
        sim = _chain_sim()
        _drive(sim, lambda until: sim._run(until=until))
        assert sim.events_processed == N_EVENTS

    def wrapped():
        sim = _chain_sim()
        _drive(sim, lambda until: sim.run(until=until))
        assert sim.events_processed == N_EVENTS

    return _verdict(_interleaved(direct, wrapped))


def run_packet_on() -> dict:
    """Probe attached (gauges every 64th run call) vs detached."""

    def off():
        sim = _chain_sim()
        _drive(sim, lambda until: sim.run(until=until))

    def on():
        sim = _chain_sim()
        tel = Telemetry(run_id="bench:packet")
        probe = instrument_simulator(sim, tel)
        _drive(sim, lambda until: sim.run(until=until))
        probe.finish(sim)
        tel.close()

    return _verdict(_interleaved(off, on))


def _fluid_spec():
    from repro.experiments import figure11

    spec = figure11.scenarios(
        scale="bench", schemes=(CcChoice("hpcc", label="HPCC"),)
    )[0]
    return spec.replaced(backend="fluid")


def run_fluid_on() -> dict:
    """A fluid Figure-11 run with full run telemetry vs without."""
    spec = _fluid_spec()

    def off():
        execute_spec(spec)

    def on():
        record = execute_spec(spec, telemetry=True)
        assert record.telemetry, "telemetry run produced no records"

    return _verdict(_interleaved(off, on))


def _decision_spec(backend: str):
    """fig13's HPCC cell shrunk to a 2-to-1 incast, on ``backend``."""
    from repro.experiments import figure13

    specs = figure13.scenarios(
        params={"fan_in": 2, "flow_size": 500_000}
    )
    spec = next(s for s in specs if (s.label or "") == "HPCC")
    return spec.replaced(backend=backend)


def run_decisions(backend: str) -> dict:
    """Decision tap attached vs plain telemetry, same scenario and engine."""
    spec = _decision_spec(backend)
    traced = spec.replaced(**{"measure.decisions": True})

    def off():
        record = execute_spec(spec, telemetry=True)
        assert record.telemetry, "telemetry run produced no records"

    def on():
        record = execute_spec(traced, telemetry=True)
        assert any(r.get("kind") == "decision" for r in record.telemetry), \
            "decision run recorded no decisions"
        assert record.extras["decisions"], "decision run stored no columns"

    return _verdict(_interleaved(off, on), limit=DECISIONS_LIMIT)


def run_all() -> dict:
    return {
        "packet_off": run_packet_off(),
        "packet_on": run_packet_on(),
        "fluid_on": run_fluid_on(),
        "packet_decisions": run_decisions("packet"),
        "fluid_decisions": run_decisions("fluid"),
    }


def _assert_ok(name: str, result: dict) -> None:
    limit = result.get("limit", LIMIT)
    assert result["ok"], (
        f"{name}: telemetry overhead {100 * (result['ratio'] - 1):.1f}% "
        f"(+{result['delta_s'] * 1e3:.1f}ms) exceeds "
        f"{100 * (limit - 1):.0f}% + {GRACE_S * 1e3:.0f}ms grace "
        f"({result['baseline_s']:.3f}s -> {result['tested_s']:.3f}s)"
    )


def test_packet_dispatch_overhead_off(benchmark):
    result = run_once(benchmark, run_packet_off)
    _assert_ok("packet off", result)


def test_packet_probe_overhead_on(benchmark):
    result = run_once(benchmark, run_packet_on)
    _assert_ok("packet on", result)


def test_fluid_telemetry_overhead_on(benchmark):
    result = run_once(benchmark, run_fluid_on)
    _assert_ok("fluid on", result)


def test_packet_decision_tap_overhead(benchmark):
    result = run_once(benchmark, lambda: run_decisions("packet"))
    _assert_ok("packet decisions", result)


def test_fluid_decision_tap_overhead(benchmark):
    result = run_once(benchmark, lambda: run_decisions("fluid"))
    _assert_ok("fluid decisions", result)


def main() -> None:
    for name, result in run_all().items():
        flag = "ok" if result["ok"] else "FAIL"
        print(f"{name:12s} baseline {result['baseline_s']:.3f}s  "
              f"tested {result['tested_s']:.3f}s  "
              f"ratio {result['ratio']:.3f}  [{flag}]")
        _assert_ok(name, result)


if __name__ == "__main__":
    main()
