"""Engine probes: sampled instrumentation hooked at call sites.

Both engines stay telemetry-free in their hot loops; the probes here
attach at coarser natural seams, which is what makes the on/off
overhead budget (<2%, ``benchmarks/bench_telemetry_overhead.py``) easy
to honour:

* :class:`SimProbe` — the packet :class:`~repro.sim.engine.Simulator`
  runs as a sequence of ``run(until=...)`` calls (one per 100 µs
  sim-time chunk of ``Network.run_until_done``).  The engine's thin
  ``run`` wrapper reports each call's wall time and event delta to the
  probe, which accumulates locals and emits gauges only every
  ``every``-th call: heap depth, pending events, events/s,
  sim-time/wall-time ratio.
* :class:`FluidProbe` — the fluid engine's step loop reports each
  ``_advance(dt)`` kernel's wall time; every ``every``-th step the
  probe samples active/parked flow population, flow-steps/s, and a
  link-saturation histogram over the struct-of-arrays registers.

Both emit their lifetime totals as counter blocks in ``finish``.
"""

from __future__ import annotations

from .telemetry import Telemetry

#: Link-saturation buckets: egress-queue occupancy as a fraction of the
#: configured buffer.  Chosen so "is anything congested, and how badly"
#: is readable straight off the histogram.
_SAT_EDGES = ((0.0, "empty"), (0.01, "<1%"), (0.10, "<10%"),
              (0.50, "<50%"), (1.0, "<=100%"))


class SimProbe:
    """Sampled probe over the packet simulator's ``run()`` calls."""

    __slots__ = ("tel", "every", "run_calls", "wall_s", "events", "sim_ns",
                 "_since")

    def __init__(self, tel: Telemetry, every: int = 64) -> None:
        self.tel = tel
        self.every = every
        self.run_calls = 0
        self.wall_s = 0.0
        self.events = 0
        self.sim_ns = 0.0
        self._since = 0

    def record_run(self, sim, wall_s: float, events: int,
                   sim_ns: float) -> None:
        """One ``run(until=...)`` call finished; sample every Nth."""
        self.run_calls += 1
        self.wall_s += wall_s
        self.events += events
        self.sim_ns += sim_ns
        self._since += 1
        if self._since < self.every:
            return
        self._since = 0
        self.sample(sim)

    def sample(self, sim) -> None:
        """Emit the current gauge set (heap, rate, time ratio)."""
        tel = self.tel
        tel.gauge("sim.heap_depth", len(sim._heap), sim_ns=sim.now)
        tel.gauge("sim.pending_events", sim._live, sim_ns=sim.now)
        if self.wall_s > 0:
            tel.gauge("sim.events_per_s", self.events / self.wall_s,
                      sim_ns=sim.now)
            tel.gauge("sim.sim_wall_ratio", self.sim_ns / (self.wall_s * 1e9),
                      sim_ns=sim.now)

    def finish(self, sim) -> None:
        """Emit lifetime totals; call once when the workload completes."""
        block = self.tel.counters("sim")
        block.inc("events_processed", sim.events_processed)
        block.inc("run_calls", self.run_calls)
        self.tel.gauge("sim.wall_s", self.wall_s, sim_ns=sim.now)
        self.sample(sim)


class FluidProbe:
    """Sampled probe over the fluid engine's ``_advance`` kernel."""

    __slots__ = ("tel", "every", "steps", "kernel_s", "_since")

    def __init__(self, tel: Telemetry, every: int = 256) -> None:
        self.tel = tel
        self.every = every
        self.steps = 0
        self.kernel_s = 0.0
        self._since = 0

    def record_step(self, engine, wall_s: float) -> None:
        """One ``_advance(dt)`` call finished; sample every Nth."""
        self.steps += 1
        self.kernel_s += wall_s
        self._since += 1
        if self._since < self.every:
            return
        self._since = 0
        self.sample(engine)

    def sample(self, engine) -> None:
        """Emit population gauges and the link-saturation histogram."""
        tel = self.tel
        now = engine.now
        tel.gauge("fluid.active_flows", engine._alive_n, sim_ns=now)
        tel.gauge("fluid.parked_flows", len(engine._parked), sim_ns=now)
        if self.kernel_s > 0:
            tel.gauge("fluid.flow_steps_per_s",
                      engine.flow_steps / self.kernel_s, sim_ns=now)
            tel.gauge("fluid.steps_per_s", engine.steps / self.kernel_s,
                      sim_ns=now)
        arrays = engine.arrays
        mask = arrays.egress & (arrays.buffer > 0)
        if mask.any():
            occupancy = arrays.queue[mask] / arrays.buffer[mask]
            buckets: dict[str, int] = {}
            for threshold, label in _SAT_EDGES:
                count = int((occupancy <= threshold).sum())
                buckets[label] = count - sum(buckets.values())
            buckets["over"] = int(occupancy.size) - sum(buckets.values())
            tel.hist("fluid.link_saturation", buckets, sim_ns=now)

    def finish(self, engine) -> None:
        """Emit lifetime totals; call once when the run completes."""
        block = self.tel.counters("fluid")
        block.inc("steps", engine.steps)
        block.inc("flow_steps", engine.flow_steps)
        block.inc("flows_finished", len(engine.fct_records))
        self.tel.gauge("fluid.kernel_s", self.kernel_s, sim_ns=engine.now)
        self.sample(engine)


def instrument_simulator(sim, tel: Telemetry, every: int = 64) -> SimProbe:
    """Attach a :class:`SimProbe`; detach with ``sim.telemetry = None``."""
    probe = SimProbe(tel, every=every)
    sim.telemetry = probe
    return probe


def instrument_fluid(engine, tel: Telemetry,
                     every: int = 256) -> FluidProbe:
    """Attach a :class:`FluidProbe`; detach with ``engine.telemetry = None``."""
    probe = FluidProbe(tel, every=every)
    engine.telemetry = probe
    return probe
