"""Simulator-substrate performance: raw event throughput and a reference
packet-forwarding scenario.

These are classic timing benchmarks (multiple rounds) — they track the
cost of the substrate itself, which determines how far the paper's
full-scale experiments are from feasible in pure Python.
"""

from repro.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.topology import star


def test_engine_event_throughput(benchmark):
    """Schedule/run cost of the bare event loop."""

    def run_events():
        sim = Simulator()
        count = 20_000

        def chain(remaining):
            if remaining:
                sim.schedule(1.0, chain, remaining - 1)

        chain(count)
        sim.run()
        return sim.events_processed

    processed = benchmark(run_events)
    assert processed == 20_000


def test_packet_forwarding_throughput(benchmark):
    """End-to-end packets/second through a 4-host star under HPCC."""

    def run_transfer():
        net = Network(star(4, host_rate="100Gbps"),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
        net.add_flow(net.make_flow(0, 3, 1_000_000))
        net.add_flow(net.make_flow(1, 3, 1_000_000))
        net.run_until_done(deadline=10 * MS)
        return net.sim.events_processed

    events = benchmark(run_transfer)
    # The scenario is deterministic, so the count is pinned exactly
    # (captured on 296a431): this smoke doubles as a determinism check.
    assert events == 17_887
