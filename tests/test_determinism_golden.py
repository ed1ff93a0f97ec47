"""Golden determinism fixtures for the packet engine.

One small congestive scenario per CC scheme, run under a fixed seed, with
``events_processed`` and a digest of the FCT records pinned to values
captured on the pre-refactor engine.  Any engine change that alters event
*ordering* or timer semantics — not just timing bugs, but accidental
reorderings from heap or timer refactors — fails these loudly.

The DCQCN scenario intentionally includes an RTO firing (flow 1 stalls
behind CNP-driven rate cuts and recovers via timeout), so retransmission-
timer refactors are covered, not just the happy path.

``events_processed`` counts *logical* simulation events — the canonical
serialize-done / propagate / deliver event structure — which the engine
guarantees is invariant to internal optimizations (event fusion, lazy
timer re-arming).  That is what makes these values stable across engine
implementations.  The guarantee is exact for runs that complete (all
golden scenarios do); a run truncated mid-serialization by a deadline may
lead the canonical count by the ports still serializing (see
``sim/queues.py``).
"""

import hashlib

import pytest

from repro.network import Network, NetworkConfig
from repro.sim.units import MS, US
from repro.topology import star

# cc_name -> (events_processed, sha256 of FCT records).
# Captured on the seed tuple-heap-free engine (PR 2 tip); see the digest
# helper below for the exact digest input format.
GOLDEN = {
    "hpcc": (19632, "5686e6ce3972315d03a3a28f0b9631a063d37b722290bc0faa65101d9dcf6a0f"),
    "dcqcn": (18105, "12a45cde9f85e722f4eb89bbbccc3cf67673e0878cd72d7acca5d7b6a89e5fa3"),
    "timely": (17980, "21ede42fa0d70b8fbada2eea0d56708b5d4f7c50891c28d9c2ea8a3a5b994a0e"),
    "dctcp": (17603, "7c9a9a6916b8bfa648a8fb883fb6a97a91be2c0b37a897c0bf47484269cc6dc9"),
}


def fct_digest(records) -> str:
    """Full-precision digest of (flow, start, finish) for every FCT record."""
    recs = sorted(records, key=lambda r: r.spec.flow_id)
    text = ";".join(f"{r.spec.flow_id}:{r.start!r}:{r.finish!r}" for r in recs)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_run(cc_name: str):
    """3 staggered flows incast into host 3 of a 100Gbps star."""
    net = Network(
        star(4, host_rate="100Gbps"),
        NetworkConfig(cc_name=cc_name, base_rtt=9 * US, seed=3),
    )
    net.add_flow(net.make_flow(0, 3, 1_000_000, start_time=1_000.0))
    net.add_flow(net.make_flow(1, 3, 700_000, start_time=1_003.0))
    net.add_flow(net.make_flow(2, 3, 500_000, start_time=1_007.0))
    done = net.run_until_done(deadline=5 * MS)
    assert done, f"{cc_name} golden scenario did not finish"
    return net


@pytest.mark.parametrize("cc_name", sorted(GOLDEN))
def test_golden_determinism(cc_name):
    expected_events, expected_digest = GOLDEN[cc_name]
    net = golden_run(cc_name)
    assert net.sim.events_processed == expected_events, (
        f"{cc_name}: events_processed changed "
        f"({net.sim.events_processed} vs golden {expected_events}) — "
        "the engine refactor altered event structure or ordering"
    )
    assert fct_digest(net.metrics.fct_records) == expected_digest, (
        f"{cc_name}: FCT records diverged from the golden capture — "
        "the engine refactor is not bit-identical"
    )


def test_golden_run_is_repeatable():
    """Same-process re-runs are bit-identical (no hidden global state)."""
    first = golden_run("hpcc")
    second = golden_run("hpcc")
    assert first.sim.events_processed == second.sim.events_processed
    assert fct_digest(first.metrics.fct_records) == fct_digest(
        second.metrics.fct_records
    )


# cc_name -> (events_processed, sha256 of FCT records) for the failover
# scenario below, captured at the PR-3 tip — before the incremental
# routing-reconvergence layer replaced the one-shot table rebuild.  Any
# divergence means the scoped recompute is not equivalent to the full
# rebuild (tables, member ordering, or event structure changed).
GOLDEN_FAILOVER = {
    "hpcc": (51960, "20feb4669239d1d18e699fbe4b0816168f1c71f911f22fc8789bab57f95e818b"),
    "dcqcn": (48032, "69ac64505a7e2c37b9244f99641cc48b65a7fdd59462b7ed9af5a1fe51a95404"),
}


def golden_failover_run(cc_name: str):
    """2 cross-rack flows on a dual trunk; one trunk cut at 0.2ms and
    restored at 0.6ms — fail *and* restore both exercise reconvergence."""
    from repro.topology.simple import dual_trunk

    net = Network(
        dual_trunk(n_pairs=2),
        NetworkConfig(cc_name=cc_name, base_rtt=9 * US, rto=300 * US, seed=3),
    )
    net.add_flow(net.make_flow(0, 2, 2_000_000, start_time=1_000.0))
    net.add_flow(net.make_flow(1, 3, 2_000_000, start_time=1_003.0))
    net.sim.at(0.2 * MS, lambda: net.reconverge(net.fail_link(4, 5)))
    net.sim.at(0.6 * MS, lambda: net.reconverge(net.restore_link(4, 5)))
    done = net.run_until_done(deadline=50 * MS)
    assert done, f"{cc_name} golden failover scenario did not finish"
    return net


@pytest.mark.parametrize("cc_name", sorted(GOLDEN_FAILOVER))
def test_golden_failover_determinism(cc_name):
    expected_events, expected_digest = GOLDEN_FAILOVER[cc_name]
    net = golden_failover_run(cc_name)
    assert net.sim.events_processed == expected_events, (
        f"{cc_name}: failover events_processed changed "
        f"({net.sim.events_processed} vs golden {expected_events}) — "
        "incremental reconvergence altered event structure or ordering"
    )
    assert fct_digest(net.metrics.fct_records) == expected_digest, (
        f"{cc_name}: failover FCT records diverged from the golden "
        "capture — the scoped recompute is not bit-identical to the "
        "one-shot table rebuild"
    )


# (events_processed, sha256 of FCT records) for the two scenarios below,
# captured on 296a431 — the parent of the one-frame switch hop
# (``Switch.receive``'s uncontended branch).  The star and dual-trunk
# goldens above never refuse a packet and never pause a switch; these two
# reach the admission-drop and pause-propagation statements that branch
# re-states, and ``tests/switch_reference.py`` runs on the *new*
# port/link code, so only a parent-captured value pins them.
GOLDEN_LOSSY = (8230, "fce1e8c05235d187ae2e48d6bde0b47977eaf64063eae9e2d10181123087f651")
GOLDEN_PAUSE_TREE = {
    "dcqcn": (17003, "8c56139cb6a62aea0478f9a3098b53fd4d9421fe2f12e1edb1af1ea6ddb87aca"),
    "hpcc": (17792, "46bcd1586ce2dc7b9515ac8105d626d3ef66e025d6a9dfbc18549f17d2625a30"),
}


def golden_lossy_run():
    """6-to-1 DCQCN incast on a lossy (no PFC) star with a 60KB buffer:
    the egress dynamic threshold drops, go-back-N rewinds and RTOs fire."""
    net = Network(
        star(7, host_rate="100Gbps"),
        NetworkConfig(cc_name="dcqcn", base_rtt=9 * US, pfc_enabled=False,
                      buffer_bytes=60_000, rto=300 * US, seed=3),
    )
    for src in range(6):
        net.add_flow(net.make_flow(src, 6, 120_000,
                                   start_time=1_000.0 + 3.0 * src))
    done = net.run_until_done(deadline=200 * MS)
    assert done, "golden lossy scenario did not finish"
    return net


def test_golden_lossy_determinism():
    net = golden_lossy_run()
    rewinds = sum(flow.sender.rewinds
                  for nic in net.nics.values() for flow in nic.flows.values())
    assert net.metrics.drop_count > 0 and rewinds > 0, (
        "the scenario no longer drops and rewinds, so it pins nothing")
    assert (net.sim.events_processed,
            fct_digest(net.metrics.fct_records)) == GOLDEN_LOSSY


def golden_pause_tree_run(cc_name: str):
    """4-to-1 incast across a 400Gbps dumbbell trunk with 200KB switches,
    plus a victim flow to the other right-hand host: the right switch
    pauses the left switch's trunk port, which backs up and pauses the
    hosts — PAUSE frames from two switches, one of them switch-to-switch."""
    from repro.topology.simple import dumbbell

    net = Network(
        dumbbell(4, 2, host_rate="100Gbps", trunk_rate="400Gbps"),
        NetworkConfig(cc_name=cc_name, base_rtt=13 * US,
                      buffer_bytes=200_000, seed=3),
    )
    for src in range(4):
        net.add_flow(net.make_flow(src, 4, 300_000,
                                   start_time=1_000.0 + 3.0 * src))
    net.add_flow(net.make_flow(0, 5, 200_000, start_time=1_011.0))
    done = net.run_until_done(deadline=200 * MS)
    assert done, f"{cc_name} golden pause-tree scenario did not finish"
    return net


@pytest.mark.parametrize("cc_name", sorted(GOLDEN_PAUSE_TREE))
def test_golden_pause_tree_determinism(cc_name):
    net = golden_pause_tree_run(cc_name)
    tracker = net.metrics.pause_tracker
    paused = {iv.device for iv in tracker.intervals}
    assert tracker.pause_count() > 0 and paused & set(net.switches), (
        "no switch port was paused, so the scenario pins no propagation")
    assert net.metrics.drop_count == 0
    assert (net.sim.events_processed,
            fct_digest(net.metrics.fct_records)) == GOLDEN_PAUSE_TREE[cc_name]


# (events_processed, sha256 of FCT records) for bidirectional pairs,
# captured on c2ea17b, before any change to the NIC's egress path.  The
# goldens above send data one way only, so a receiver's ACKs never wait
# behind its own data frames; here each host both sends and acknowledges,
# so every ACK contends with a data flow for the same NIC egress port.
# (ACKs interleaved with back-to-back CNPs are pinned by GOLDEN["dcqcn"]:
# its 3-to-1 incast receiver emits both.)
GOLDEN_BIDIR = {
    "dcqcn": (13604, "9473e0eeb0273c35af86b207e189aedfd4fb6ab170b6613b1f9dc4ac9ffb0e92"),
    "hpcc": (15202, "ddf60e1c7226048652b9f926ce5c18437c5acd2eb5f96ed76127288b68aa3ad3"),
}


def golden_bidir_run(cc_name: str):
    """Two hosts of a 100Gbps star, each sending to the other."""
    net = Network(
        star(2, host_rate="100Gbps"),
        NetworkConfig(cc_name=cc_name, base_rtt=9 * US, seed=3),
    )
    net.add_flow(net.make_flow(0, 1, 1_000_000, start_time=1_000.0))
    net.add_flow(net.make_flow(1, 0, 700_000, start_time=1_003.0))
    done = net.run_until_done(deadline=5 * MS)
    assert done, f"{cc_name} golden bidirectional scenario did not finish"
    return net


@pytest.mark.parametrize("cc_name", sorted(GOLDEN_BIDIR))
def test_golden_bidirectional_determinism(cc_name):
    net = golden_bidir_run(cc_name)
    records = net.metrics.fct_records
    assert min(r.finish for r in records) > max(r.start for r in records), (
        "the two flows no longer overlap, so no ACK meets a data frame")
    assert (net.sim.events_processed,
            fct_digest(net.metrics.fct_records)) == GOLDEN_BIDIR[cc_name]


# (events_processed, sha256 of FCT records) for HPCC on the bench Figure
# 11 FatTree, captured when the packet switches took up the ECMP rule
# they share with the fluid engine (``sim/routing.py::ecmp_next_hop``).
# Every other golden runs on a fabric whose switches have one next-hop
# peer per destination; here each ToR and Agg picks one of two for the
# cross-pod flows, so a change to that pick moves this value.
GOLDEN_FATTREE = (25561, "b2ac024b750b84ed5c97a5e78f90555833c91ae870fe3354781413c45253ffb9")


def golden_fattree_run():
    """40 staggered cross-rack HPCC flows on the bench FatTree."""
    from repro.topology import bench_fattree

    net = Network(
        bench_fattree(),
        NetworkConfig(cc_name="hpcc", base_rtt=13 * US, seed=3),
    )
    for i in range(40):
        src = i % 16
        dst = (src + 4 * (1 + i % 3)) % 16        # another ToR's host
        net.add_flow(net.make_flow(src, dst, 20_000 + 5_000 * (i % 5),
                                   start_time=1_000.0 + 2.0 * i))
    done = net.run_until_done(deadline=50 * MS)
    assert done, "golden FatTree scenario did not finish"
    return net


def test_golden_fattree_determinism():
    net = golden_fattree_run()
    topo = net.topology
    assert any(len(group) > 1 for tor in topo.switch_tiers["tor"]
               for group in net.switches[tor].routing_table.values()), (
        "no ToR has two next-hop peers, so the scenario pins no ECMP pick")
    assert all(any(port.tx_bytes for port in net.switches[core].ports.values())
               for core in topo.switch_tiers["core"])
    assert (net.sim.events_processed,
            fct_digest(net.metrics.fct_records)) == GOLDEN_FATTREE
