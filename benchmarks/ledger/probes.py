"""Isolated probes: min-of-5 timings of one layer's public functions.

Each probe drives a layer through package-level public names only
(``repro.sim``, ``repro.core``, ``repro.runner``, ``repro.report``) on
synthetic or caller-supplied input and takes well under a second, so a
layer's own cost can be read without the rest of the system around it.
The ``host.calib_*`` spins are fixed work that touches no repo code:
they move only when the host does.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

REPEATS = 5
#: Multiplier on every probe's iteration count; ``--quick`` shrinks it.
SCALE = 1.0


def best_of(fn) -> float:
    """Minimum wall time of ``fn()`` over ``REPEATS`` calls, seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# -- host calibration -------------------------------------------------------------

def py_spin(iterations: int) -> float:
    """Wall seconds of a fixed pure-Python integer loop."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - started


def calib_py() -> float:
    """Best of five 1.5M-iteration spins, seconds."""
    return min(py_spin(int(1_500_000 * SCALE)) for _ in range(REPEATS))


class HostGate:
    """Hold off measuring while the host is visibly impaired.

    Besides its second-scale noise this sandbox has episodes, a minute
    or so long, in which everything runs at half speed; one such episode
    spans two or three consecutive runs and no statistic over a run's
    own reps can see through it.  Before each timed rep the gate times a
    40 ms spin; while that reads more than ``SLOW`` times the best spin
    this checkout has shown (kept in ``state``, a file under
    ``.ledger_tmp/``), it sleeps and tries again, for at most
    ``BUDGET_S`` per run.  Nothing measured is ever rescaled.
    """

    SLOW = 1.8
    BUDGET_S = 60.0
    ITERATIONS = 500_000

    def __init__(self, state: Path) -> None:
        self.state = state
        self.held_s = 0.0
        try:
            self.best = float(state.read_text())
        except (OSError, ValueError):
            self.best = float("inf")

    def wait(self) -> None:
        while True:
            spin = py_spin(self.ITERATIONS)
            if spin < self.best:
                self.best = spin
                self.state.write_text(repr(spin))
            if spin <= self.SLOW * self.best or self.held_s >= self.BUDGET_S:
                return
            time.sleep(0.5)
            self.held_s += 0.5 + spin


def calib_np() -> float:
    """Fixed numpy spin (bincount + cumulative min on 1M elements), seconds."""
    import numpy as np

    idx = np.arange(1_000_000) % 4096
    vals = np.linspace(0.0, 1.0, 1_000_000)

    def spin():
        for _ in range(max(1, int(8 * SCALE))):
            np.minimum.accumulate(np.bincount(idx, weights=vals,
                                              minlength=4096))
            (vals * 1.0001).sum()
    return best_of(spin)


# -- layer probes -----------------------------------------------------------------

def engine_chain_ns_per_event() -> float:
    from repro.sim import Simulator

    n_events = int(200_000 * SCALE)

    def chain_run():
        sim = Simulator()

        def chain(remaining):
            if remaining:
                sim.schedule(1.0, chain, remaining - 1)

        chain(n_events)
        sim.run()
        if sim.events_processed != n_events:
            raise RuntimeError("event chain lost events")
    return best_of(chain_run) / n_events * 1e9


class _FlowStandIn:
    """The three attributes ``Hpcc.on_ack`` reads and writes on a flow."""

    __slots__ = ("rate", "window", "snd_nxt")

    def __init__(self) -> None:
        self.rate = 0.0
        self.window = 0.0
        self.snd_nxt = 0


def hpcc_ns_per_ack(n_hops: int = 5) -> float:
    """``Hpcc.on_ack`` on one reused ACK whose five INT hops advance.

    Advancing the hops costs about as much as the call under test, so
    the same loop is timed around a no-op and subtracted.
    """
    from repro.core import CcEnv, get_scheme
    from repro.sim import IntHop, Packet, PacketType, Simulator

    n_acks = int(20_000 * SCALE)
    env = CcEnv(sim=Simulator(), line_rate=12.5, base_rtt=13_000.0,
                mtu=1000, header=90)
    ack = Packet(PacketType.ACK, flow_id=1, src=1, dst=0)
    ack.int_hops = [IntHop(12.5, 0.0, 0, 0) for _ in range(n_hops)]

    def replay(make_on_ack):
        flow = _FlowStandIn()
        on_ack = make_on_ack(flow)
        hops = ack.int_hops
        for i in range(1, n_acks + 1):
            now = i * 1000.0
            for k, hop in enumerate(hops):
                hop.ts = now
                hop.tx_bytes = i * (11_800 + 100 * k)
                hop.qlen = (i * 37 + k * 1000) % 30_000
            ack.seq = i * 1000
            flow.snd_nxt = ack.seq + 13_000
            on_ack(flow, ack, now)
        return flow

    def hpcc(flow):
        cc = get_scheme("hpcc").make(env, {})
        cc.install(flow)
        return cc.on_ack

    def with_hpcc():
        flow = replay(hpcc)
        if not 0.0 < flow.rate <= env.line_rate:
            raise RuntimeError(f"hpcc probe left rate {flow.rate}")

    harness = best_of(lambda: replay(lambda flow: lambda f, a, now: None))
    return (best_of(with_hpcc) - harness) / n_acks * 1e9


def spec_hash_us(spec) -> float:
    n = int(2000 * SCALE)

    def hash_many():
        for _ in range(n):
            spec.spec_hash
    return best_of(hash_many) / n * 1e6


def record_json_ms(record) -> float:
    from repro.runner import RunRecord

    def round_trip():
        text = json.dumps(record.to_json(), sort_keys=True)
        back = RunRecord.from_json(json.loads(text))
        if back.events_processed != record.events_processed:
            raise RuntimeError("record JSON round trip changed the record")
    return best_of(round_trip) * 1e3


def cache_put_get_ms(record, tmp: Path) -> tuple[float, float]:
    from repro.runner import RunCache

    cache = RunCache(tmp / "probe_cache")
    put = best_of(lambda: cache.put(record)) * 1e3

    def get():
        if cache.get(record.spec) is None:
            raise RuntimeError("cache probe missed its own entry")
    return put, best_of(get) * 1e3


def svg_ms_per_panel(panels: list) -> float:
    from repro.report import render_panel

    def render_all():
        for panel in panels:
            render_panel(panel)
    return best_of(render_all) / len(panels) * 1e3


def score_ms(scored: list[tuple]) -> float:
    """``score_figure`` over ``(render, ref)`` pairs, ms per figure."""
    from repro.report import score_figure

    def score_all():
        for render, ref in scored:
            score_figure(render, ref)
    return best_of(score_all) / len(scored) * 1e3


def run_all(spec, record, tmp: Path, panels: list,
            scored: list[tuple]) -> dict[str, float]:
    """Every probe metric; the report probes read 0 without a built report."""
    put_ms, get_ms = cache_put_get_ms(record, tmp)
    return {
        "host.calib_py_s": calib_py(),
        "host.calib_np_s": calib_np(),
        "sim.engine.chain_ns_per_event": engine_chain_ns_per_event(),
        "core.hpcc.ns_per_ack": hpcc_ns_per_ack(),
        "runner.spec_hash_us": spec_hash_us(spec),
        "runner.record_json_ms": record_json_ms(record),
        "runner.cache_put_ms": put_ms,
        "runner.cache_get_ms": get_ms,
        "report.svg_ms_per_panel": svg_ms_per_panel(panels) if panels else 0.0,
        "report.score_ms": score_ms(scored) if scored else 0.0,
    }
