"""One base-RTT rule on both engines: packet and fluid price every pair alike.

FCT slowdown divides a flow's FCT by its own uncontended FCT (``ideal``):
its wire bytes at the bottleneck host rate plus the round trip of its
ECMP path, which both engines price with
:func:`~repro.sim.routing.round_trip`.  For every ordered host pair of
each refdata figure's bench topology, plus the ``dual_trunk`` fixture
(parallel trunk members that fluid pools into one link, of which a
packet crosses one), at HPCC's 90-byte header and DCQCN's 48-byte one,
the packet network and the fluid engine must give the same base RTT and
``ideal``, bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import EXPERIMENTS
from repro.fluid import FluidEngine
from repro.network import Network, NetworkConfig
from repro.report.refdata import available_refdata
from repro.runner.execute import build_topology
from repro.sim.flow import FlowSpec
from repro.topology import dual_trunk


def bench_topologies() -> dict[str, object]:
    """Every distinct topology the refdata figures' bench grids build,
    plus the ``dual_trunk`` fixture."""
    topologies = {"dual_trunk": dual_trunk()}
    for figure in available_refdata():
        for spec in EXPERIMENTS[figure][1].scenarios("bench"):
            if not spec.topology:
                continue                # an analytic cell: no network
            key = f"{spec.topology}{json.dumps(spec.topology_params, sort_keys=True)}"
            if key not in topologies:
                topologies[key] = build_topology(spec)
    return topologies


TOPOLOGIES = bench_topologies()


@pytest.mark.parametrize("cc_name,header", [("hpcc", 90), ("dcqcn", 48)])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_host_pair_prices_alike_on_both_engines(name, cc_name, header):
    topology = TOPOLOGIES[name]
    net = Network(topology, NetworkConfig(cc_name=cc_name))
    engine = FluidEngine(topology, cc_name=cc_name)
    assert net.header == engine.header == header
    differ = []
    flow_id = 0
    for src in topology.hosts:
        for dst in topology.hosts:
            if src == dst:
                continue
            flow_id += 1
            spec = FlowSpec(flow_id, src, dst, 100_000, 0.0)
            net.add_flow(spec)
            engine.add_flow(spec)
            flow = engine._starts[-1]
            packet = (net.flow_base_rtt(spec), net.ideal_fct(spec))
            fluid = (flow.path.base_rtt, flow.ideal)
            if packet != fluid:
                differ.append((src, dst, packet, fluid))
    assert not differ, f"{len(differ)} of {flow_id} pairs differ: {differ[:3]}"
