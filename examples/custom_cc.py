#!/usr/bin/env python3
"""Extending the library: plug in your own congestion-control scheme.

Implements a deliberately naive AIMD scheme against the public
``CcAlgorithm`` interface, registers it, and races it against HPCC on the
same incast: one spec per scheme, the registered name as the spec's
``cc``, run through :class:`~repro.runner.SweepRunner`.  Use this as the
template for experimenting with new algorithms on the simulator.

The scheme is registered in this process, so the sweep runs here too
(``SweepRunner()``'s default ``jobs=1``).

Run:  python examples/custom_cc.py
"""

from repro.core import CcAlgorithm, CcEnv, SchemeInfo, register
from repro.metrics import percentile
from repro.metrics.reporter import format_table
from repro.runner import CcChoice, ScenarioGrid, ScenarioSpec, SweepRunner, \
    cc_axis
from repro.sim.ecn import EcnPolicy
from repro.sim.units import KB, MS, US, gbps


class NaiveAimd(CcAlgorithm):
    """ECN-echo AIMD: halve the window on a marked ACK, +1 MSS per RTT."""

    needs_int = False

    def __init__(self, env: CcEnv) -> None:
        super().__init__(env)
        self.last_cut = -float("inf")
        self.acked_since_increase = 0

    def install(self, flow) -> None:
        flow.window = self.env.bdp
        flow.rate = self.env.line_rate

    def on_ack(self, flow, ack, now: float) -> None:
        if ack.ecn and now - self.last_cut > self.env.base_rtt:
            flow.window = self.clamp_window(flow.window / 2.0)
            self.last_cut = now
        else:
            self.acked_since_increase += ack.payload + 1000
            if self.acked_since_increase >= flow.window:
                flow.window = self.clamp_window(flow.window + self.env.mtu)
                self.acked_since_increase = 0
        flow.rate = self.clamp_rate(flow.window / self.env.base_rtt)


register(SchemeInfo(
    name="naive-aimd",
    needs_int=False,
    make=lambda env, params: NaiveAimd(env),
    default_ecn=lambda params: EcnPolicy(
        kmin=30 * KB, kmax=30 * KB, pmax=1.0, ref_rate=gbps(10)
    ),
))


# An 8-to-1 incast on 25Gbps, the bottleneck (switch 9 -> receiver 8)
# sampled every 5us; one cell per scheme.
INCAST = ScenarioSpec(
    program="flows",
    topology="star",
    topology_params={"n_hosts": 9, "host_rate": "25Gbps",
                     "link_delay": "1us"},
    workload={"flows": [[s, 8, 2_000_000] for s in range(8)],
              "deadline": 40 * MS},
    config={"base_rtt": 9 * US},
    measure={"sample_interval": 5 * US,
             "sample_ports": [["b", "between", 9, 8]]},
)


def main() -> None:
    grid = ScenarioGrid(INCAST, cc_axis(
        [CcChoice("naive-aimd"), CcChoice("hpcc")]))
    rows = []
    for record in SweepRunner().run(grid.expand()):
        fcts = [r.fct for r in record.fct_records()]
        _, qlens = record.queue_series("b")
        rows.append((
            record.label, f"{len(fcts)}/8",
            f"{max(fcts) / MS:.2f}" if fcts else "nan",
            f"{percentile(qlens, 95) / 1000:.1f}",
        ))
    print(format_table(
        ["scheme", "flows done", "worst FCT (ms)", "queue p95 (KB)"],
        rows, title="Your scheme vs HPCC on an 8-to-1 incast (25Gbps)",
    ))


if __name__ == "__main__":
    main()
