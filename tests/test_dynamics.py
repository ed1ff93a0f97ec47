"""The network-dynamics subsystem: DSL, routing reconvergence, driver.

Covers the three layers plus the compatibility contract:

* timeline DSL — construction, validation, JSON round-trip, flap
  expansion, spec integration (hash distinctness, legacy hash
  preservation pinned to the pre-dynamics value);
* incremental routing — ``RoutingState``'s scoped recompute must equal a
  from-scratch build over the alive subgraph (``rebuilt_reference``)
  after any sequence of failures/restores;
* the timeline driver — detection delay, symmetric fail/restore
  accounting, outage pairing, degrade, burst injection, fluid parking,
  and the zero-detection-delay fail/restore golden (same FCTs, same event count as the pre-dynamics
  hook — values captured at the PR-3 tip).
"""

import hashlib
from collections import deque

import pytest

from repro.dynamics import (
    DegradeLink,
    FailLink,
    FlapLink,
    InjectBurst,
    RestoreLink,
    Timeline,
    burst_flow_specs,
    dynamics_axis,
)
from repro.fluid import FluidEngine
from repro.network import Network, NetworkConfig
from repro.runner import ScenarioGrid, ScenarioSpec, execute_spec
from repro.sim.flow import FlowSpec
from repro.sim.routing import RoutingState
from repro.sim.units import MS, US
from repro.topology import star
from repro.topology.base import Topology
from repro.topology.fattree import FatTreeSpec, fattree
from repro.topology.simple import dual_trunk


class TestTimelineDsl:
    def test_events_sort_by_time(self):
        tl = Timeline([RestoreLink(at=5.0, a=1, b=2), FailLink(at=1.0, a=1, b=2)])
        assert [e.kind for e in tl] == ["fail_link", "restore_link"]

    def test_json_round_trip(self):
        tl = Timeline(
            [
                FailLink(at=1.0, a=4, b=5),
                DegradeLink(at=2.0, a=0, b=4, rate_factor=0.5),
                FlapLink(at=3.0, a=4, b=5, period=10.0, down_time=2.0, count=3),
                InjectBurst(at=4.0, dst=1, fan_in=3, flow_size=1000),
            ],
            detection_delay=7.0,
        )
        back = Timeline.from_json(tl.to_json())
        assert back == tl
        assert back.detection_delay == 7.0
        assert len(back) == 4

    def test_bare_event_list_accepted(self):
        tl = Timeline.from_json([{"type": "fail_link", "at": 1.0, "a": 0, "b": 1}])
        assert len(tl) == 1 and tl.detection_delay == 0.0

    @pytest.mark.parametrize("bad", [
        {"type": "melt_link", "at": 1.0, "a": 0, "b": 1},
        {"type": "fail_link", "at": -1.0, "a": 0, "b": 1},
        {"type": "fail_link", "at": 1.0, "a": 2, "b": 2},
        {"type": "fail_link", "at": 1.0, "a": 0, "b": 1, "frob": 3},
        {"type": "degrade_link", "at": 1.0, "a": 0, "b": 1},
        {"type": "degrade_link", "at": 1.0, "a": 0, "b": 1, "rate_factor": 0},
        {"type": "flap_link", "at": 1.0, "a": 0, "b": 1,
         "period": 1.0, "down_time": 2.0, "count": 2},
        {"type": "inject_burst", "at": 1.0, "dst": 0, "fan_in": 0,
         "flow_size": 10},
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            Timeline.from_json([bad])

    def test_flap_expands_to_alternating_primitives(self):
        tl = Timeline([FlapLink(at=10.0, a=1, b=2, period=5.0,
                                down_time=2.0, count=3)])
        prims = tl.primitives()
        kinds = [(e.kind, e.at) for _i, e in prims]
        assert kinds == [
            ("fail_link", 10.0), ("restore_link", 12.0),
            ("fail_link", 15.0), ("restore_link", 17.0),
            ("fail_link", 20.0), ("restore_link", 22.0),
        ]
        assert all(i == 0 for i, _e in prims)     # all from event 0


class TestSpecIntegration:
    # The failover HPCC spec hash at the PR-3 tip, before the dynamics
    # field existed.  Empty dynamics must not change any legacy hash
    # (the spec still hashes; ``validate_specs`` refuses to *run* its
    # ``workload["events"]`` list).
    LEGACY_FAILOVER_HASH = "7979982bd2e9634f"

    def legacy_spec(self):
        return ScenarioSpec(
            program="flows",
            topology="dual_trunk",
            topology_params={"n_pairs": 2},
            workload={
                "flows": [[0, 2, 2_000_000, 0.0, "bg"],
                          [1, 3, 2_000_000, 3.0, "bg"]],
                "deadline": 50 * MS,
                "events": [["fail_link", 0.2 * MS, 4, 5],
                           ["restore_link", 0.6 * MS, 4, 5]],
            },
            config={"base_rtt": 9 * US, "rto": 300 * US,
                    "goodput_bin": 50 * US},
            seed=3,
            label="legacy-shim",
        )

    def test_legacy_hash_unchanged(self):
        assert self.legacy_spec().spec_hash == self.LEGACY_FAILOVER_HASH

    def test_dynamics_is_hash_distinct(self):
        base = self.legacy_spec()
        timeline = Timeline([FailLink(at=0.2 * MS, a=4, b=5)])
        with_dynamics = base.replaced(dynamics=timeline)
        assert with_dynamics.spec_hash != base.spec_hash
        other = base.replaced(
            dynamics=Timeline([FailLink(at=0.3 * MS, a=4, b=5)])
        )
        assert other.spec_hash != with_dynamics.spec_hash

    def test_timeline_normalizes_and_round_trips(self):
        timeline = Timeline([FailLink(at=1.0, a=4, b=5)], detection_delay=2.0)
        spec = self.legacy_spec().replaced(dynamics=timeline)
        assert isinstance(spec.dynamics, dict)
        back = ScenarioSpec.from_json(spec.to_json())
        assert back == spec
        assert Timeline.from_json(back.dynamics) == timeline

    def test_invalid_dynamics_rejected_eagerly(self):
        with pytest.raises(ValueError):
            self.legacy_spec().replaced(
                dynamics={"events": [{"type": "nope", "at": 0.0}]}
            )

    def test_dynamics_axis_expands_grid(self):
        base = self.legacy_spec()
        timelines = [
            Timeline([FailLink(at=t, a=4, b=5)]) for t in (1e5, 2e5, 3e5)
        ]
        grid = ScenarioGrid(
            base, dynamics_axis(timelines, lambda i, _t: f"cut@{i}")
        )
        specs = grid.expand()
        assert len(specs) == 3
        assert len({s.spec_hash for s in specs}) == 3
        assert [s.label for s in specs] == ["cut@0", "cut@1", "cut@2"]


def tables_snapshot(net):
    return {sw: dict(switch.routing_table)
            for sw, switch in net.switches.items()}


def rebuilt_reference(net):
    """Ground truth: a from-scratch build over the alive subgraph."""
    alive, dead_ports = [], set()
    for spec, link in zip(net._link_specs, net.links):
        if link.up:
            alive.append(spec)
        else:
            dead_ports.add((spec.a, link.port_a.port_id))
            dead_ports.add((spec.b, link.port_b.port_id))
    view = Topology(
        name="ref", n_hosts=net.topology.n_hosts,
        n_switches=net.topology.n_switches, links=alive,
        switch_tiers=net.topology.switch_tiers,
    )
    # Per switch and destination: every peer one BFS hop closer, in
    # ascending peer id, with its up ports in wiring order.  The BFS is
    # a plain dict one, independent of the rows the routing reads.
    adj = view.adjacency()
    tables = {sw: {} for sw in view.switches}
    for dst in view.hosts:
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            for peer, _ in adj[node]:
                if peer not in dist:
                    dist[peer] = dist[node] + 1
                    frontier.append(peer)
        for switch in view.switches:
            if switch not in dist:
                continue
            peers = sorted({peer for peer, _ in adj[switch]
                            if dist.get(peer, -1) == dist[switch] - 1})
            group = tuple(
                (peer, tuple(p for p in net.port_map[(switch, peer)]
                             if (switch, p) not in dead_ports))
                for peer in peers
            )
            if group:
                tables[switch][dst] = group
    return tables


def planner_report(net, link):
    """The routing planner's full :class:`RerouteReport` for ``link``'s
    state change (``Network.reconverge`` returns its accounting
    fields only)."""
    return net.routing.set_link_state(net.links.index(link), link.up)


class TestIncrementalRouting:
    def test_initial_build_matches_reference(self):
        net = Network(fattree(FatTreeSpec(
            n_pods=2, tors_per_pod=2, aggs_per_pod=2, n_core=2,
            hosts_per_tor=2, host_rate="10Gbps", fabric_rate="40Gbps",
        )), NetworkConfig(cc_name="hpcc", base_rtt=13 * US))
        assert tables_snapshot(net) == rebuilt_reference(net)

    def test_fail_restore_sequence_matches_reference(self):
        """Scoped recompute == full rebuild after every toggle, including
        parallel-trunk members, fabric links and host uplinks."""
        net = Network(fattree(FatTreeSpec(
            n_pods=2, tors_per_pod=2, aggs_per_pod=2, n_core=2,
            hosts_per_tor=2, host_rate="10Gbps", fabric_rate="40Gbps",
        )), NetworkConfig(cc_name="hpcc", base_rtt=13 * US))
        tors = net.topology.switch_tiers["tor"]
        aggs = net.topology.switch_tiers["agg"]
        cores = net.topology.switch_tiers["core"]
        moves = [
            ("fail", tors[0], aggs[0]),
            ("fail", aggs[0], cores[0]),
            ("restore", tors[0], aggs[0]),
            ("fail", 0, tors[0]),              # host uplink
            ("restore", aggs[0], cores[0]),
            ("restore", 0, tors[0]),
        ]
        for op, a, b in moves:
            net.reconverge(getattr(net, f"{op}_link")(a, b))
            assert tables_snapshot(net) == rebuilt_reference(net), (op, a, b)

    def test_parallel_trunk_member_toggle_matches_reference(self):
        net = Network(dual_trunk(n_pairs=2),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
        for op in ("fail", "fail", "restore", "restore"):
            net.reconverge(getattr(net, f"{op}_link")(4, 5))
            assert tables_snapshot(net) == rebuilt_reference(net), op

    def test_reroute_report_counts(self):
        net = Network(dual_trunk(n_pairs=2),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
        link = net.fail_link(4, 5)
        report = planner_report(net, link)
        # Cross-rack destinations on both ToRs shrink their ECMP group.
        assert report.dests_recomputed == 4
        assert report.groups_changed == 4
        assert report.switches_touched == {4, 5}
        # Idempotent: the routing view already matches.
        assert net.reconverge(link) == {"reroutes": 0, "dests_recomputed": 0}

    def test_equidistant_link_change_is_skipped(self):
        """A link on no shortest path reroutes nothing — the scoped
        planner skips every destination.  A same-pod Agg-Agg shortcut is
        equidistant from every host (both aggs sit 2 hops from the pod's
        hosts and 4 from the other pod's)."""
        topo = fattree(FatTreeSpec(
            n_pods=2, tors_per_pod=2, aggs_per_pod=2, n_core=2,
            hosts_per_tor=2, host_rate="10Gbps", fabric_rate="40Gbps",
        ))
        from repro.topology.base import LinkSpec
        aggs = topo.switch_tiers["agg"]
        shortcut = Topology(
            name="shortcut", n_hosts=topo.n_hosts,
            n_switches=topo.n_switches,
            links=topo.links + [LinkSpec(aggs[0], aggs[1],
                                         topo.links[-1].rate, 1000.0)],
            switch_tiers=topo.switch_tiers,
        )
        net = Network(shortcut, NetworkConfig(cc_name="hpcc", base_rtt=13 * US))
        before = tables_snapshot(net)
        link = net.fail_link(aggs[0], aggs[1])
        report = planner_report(net, link)
        assert report.dests_recomputed == 0
        assert report.groups_changed == 0
        assert tables_snapshot(net) == before == rebuilt_reference(net)

    def test_restore_endpoint_scoped_update(self):
        """Restoring a parallel member moves no distances: only the two
        trunk endpoints' columns are touched."""
        net = Network(dual_trunk(n_pairs=2),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
        net.reconverge(net.fail_link(4, 5))
        link = net.restore_link(4, 5)
        report = planner_report(net, link)
        assert report.switches_touched <= {4, 5}
        assert report.groups_changed == 4
        assert tables_snapshot(net) == rebuilt_reference(net)


def dual_trunk_spec(timeline, n_pairs=2, seed=3, deadline=50 * MS, **overrides):
    spec = ScenarioSpec(
        program="flows",
        topology="dual_trunk",
        topology_params={"n_pairs": n_pairs},
        workload={
            "flows": [[i, n_pairs + i, 2_000_000, float(i), "bg"]
                      for i in range(n_pairs)],
            "deadline": deadline,
        },
        dynamics=timeline,
        config={"base_rtt": 9 * US, "rto": 300 * US, "goodput_bin": 50 * US},
        seed=seed,
    )
    return spec.replaced(**overrides) if overrides else spec


def fct_digest(fct_rows) -> str:
    rows = sorted(fct_rows, key=lambda r: r["flow_id"])
    text = ";".join(f"{r['flow_id']}:{r['start']!r}:{r['finish']!r}"
                    for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class TestFailRestoreGolden:
    """A zero-detection-delay fail/restore replays the pre-dynamics hook
    exactly.  Golden values captured at the PR-3 tip (before the
    subsystem existed, through the since-retired ``workload["events"]``
    list, which ran bit-identically to this timeline): the run must keep
    the same event count and bit-identical FCT records."""

    GOLDEN_EVENTS = 51960
    GOLDEN_DIGEST = (
        "8f3a587bb0d1a35dd97c8c7897d749d7ad1c87d38ed9d6587d3a6432b8fadfae"
    )

    def spec(self):
        return ScenarioSpec(
            program="flows",
            topology="dual_trunk",
            topology_params={"n_pairs": 2},
            workload={
                "flows": [[0, 2, 2_000_000, 0.0, "bg"],
                          [1, 3, 2_000_000, 3.0, "bg"]],
                "deadline": 50 * MS,
            },
            dynamics=Timeline([FailLink(at=0.2 * MS, a=4, b=5),
                               RestoreLink(at=0.6 * MS, a=4, b=5)]),
            config={"base_rtt": 9 * US, "rto": 300 * US,
                    "goodput_bin": 50 * US},
            seed=3,
        )

    def test_bit_identical_to_pre_dynamics_hook(self):
        record = execute_spec(self.spec())
        assert record.completed
        assert record.events_processed == self.GOLDEN_EVENTS
        assert fct_digest(record.fct) == self.GOLDEN_DIGEST

    def test_entry_shape(self):
        record = execute_spec(self.spec())
        fail, restore = record.link_events()
        assert fail["type"] == "fail_link" and fail["fired"]
        assert restore["type"] == "restore_link" and restore["fired"]
        # Symmetric accounting: both sides carry losses and reroutes.
        assert fail["packets_lost_down"] == restore["packets_lost_down"]
        assert fail["reroutes"] == 4 and restore["reroutes"] == 4
        assert fail["detected_at"] == fail["time"]     # zero detection delay


class TestPacketDriver:
    def test_detection_delay_defers_reconvergence(self):
        dd = 100 * US
        timeline = Timeline([FailLink(at=0.2 * MS, a=4, b=5)],
                            detection_delay=dd)
        record = execute_spec(dual_trunk_spec(timeline))
        [fail] = record.link_events()
        assert fail["fired"]
        assert fail["detected_at"] == pytest.approx(fail["time"] + dd)
        # The blackhole window costs packets: everything serialized into
        # the dead trunk before reroute is lost.
        assert fail["packets_lost_down"] > 0
        assert record.completed

    def test_restore_accounting_is_symmetric(self):
        dd = 100 * US
        timeline = Timeline(
            [FailLink(at=0.2 * MS, a=4, b=5),
             RestoreLink(at=0.8 * MS, a=4, b=5)],
            detection_delay=dd,
        )
        record = execute_spec(dual_trunk_spec(timeline))
        fail, restore = record.link_events()
        assert fail["packets_lost_down"] > 0
        assert restore["packets_lost_down"] == fail["packets_lost_down"]
        assert restore["reroutes"] > 0 and restore["dests_recomputed"] > 0
        assert restore["detected_at"] == pytest.approx(restore["time"] + dd)

    def test_degrade_link_slows_completion(self):
        flows = {"flows": [[0, 2, 2_000_000, 0.0, "bg"]], "deadline": 20 * MS}
        base = dual_trunk_spec(Timeline(), **{"workload": flows})
        degraded = base.replaced(dynamics=Timeline([
            DegradeLink(at=0.0, a=0, b=4, rate_factor=0.25),
        ]))
        fast = execute_spec(base)
        slow = execute_spec(degraded)
        assert fast.completed and slow.completed
        [entry] = slow.link_events()
        assert entry["type"] == "degrade_link" and entry["fired"]
        f_fct = fast.fct[0]["finish"] - fast.fct[0]["start"]
        s_fct = slow.fct[0]["finish"] - slow.fct[0]["start"]
        assert s_fct > 2.5 * f_fct      # uplink at 25% rate: ~4x slower

    def test_flap_produces_per_outage_accounting(self):
        timeline = Timeline([FlapLink(at=0.2 * MS, a=4, b=5,
                                      period=0.4 * MS, down_time=0.15 * MS,
                                      count=2)])
        record = execute_spec(dual_trunk_spec(timeline))
        events = record.link_events()
        kinds = [e["type"] for e in events]
        assert kinds == ["fail_link", "restore_link",
                         "fail_link", "restore_link"]
        assert all(e["fired"] for e in events)

    def test_burst_injects_tagged_flows(self):
        timeline = Timeline([InjectBurst(at=0.1 * MS, dst=2, fan_in=2,
                                         flow_size=100_000)])
        record = execute_spec(dual_trunk_spec(timeline))
        burst_ids = record.flow_ids("burst")
        assert len(burst_ids) == 2
        finished = {r["flow_id"] for r in record.fct}
        assert set(burst_ids) <= finished
        [entry] = [e for e in record.link_events()
                   if e["type"] == "inject_burst"]
        assert entry["fired"] and entry["flow_ids"] == burst_ids

    def test_unfired_events_after_completion(self):
        timeline = Timeline([FailLink(at=500 * MS, a=4, b=5)])
        record = execute_spec(dual_trunk_spec(timeline))
        assert record.completed
        [fail] = record.link_events()
        assert not fail["fired"]

    def test_dynamics_on_load_program(self):
        spec = ScenarioSpec(
            program="load",
            topology="star",
            topology_params={"n_hosts": 4, "host_rate": "10Gbps"},
            workload={"cdf": "fbhadoop", "size_scale": 0.1,
                      "load": 0.2, "n_flows": 10},
            dynamics=Timeline([
                InjectBurst(at=10_000.0, dst=0, fan_in=2, flow_size=50_000),
            ]),
            config={"base_rtt": 9 * US},
            seed=2,
        )
        record = execute_spec(spec)
        assert len(record.flow_ids("burst")) == 2
        [entry] = record.link_events()
        assert entry["type"] == "inject_burst" and entry["fired"]


class TestBurstDeterminism:
    def test_same_population_on_both_backends(self):
        timeline = Timeline([InjectBurst(at=0.1 * MS, dst=2, fan_in=2,
                                         flow_size=100_000)])
        spec = dual_trunk_spec(timeline)
        packet = execute_spec(spec)
        fluid = execute_spec(spec.replaced(backend="fluid"))
        key = lambda rows: sorted(
            (r["flow_id"], r["src"], r["dst"], r["size"], r["start_time"])
            for r in rows
        )
        assert key(packet.fct) == key(fluid.fct)

    def test_burst_helper_is_deterministic(self):
        timeline = Timeline([InjectBurst(at=5.0, dst=1, fan_in=3,
                                         flow_size=10)])
        one, _ = burst_flow_specs(timeline, range(8), seed=7, next_flow_id=10)
        two, _ = burst_flow_specs(timeline, range(8), seed=7, next_flow_id=10)
        assert [(f.flow_id, f.src) for f in one] == \
            [(f.flow_id, f.src) for f in two]
        other, _ = burst_flow_specs(timeline, range(8), seed=8, next_flow_id=10)
        assert [f.src for f in one] != [f.src for f in other]


class TestLinkHandles:
    """The engine link methods the timeline driver calls: a cut returns
    an outage handle carrying that outage's loss, the restore returns
    the same handle, and a degrade returns its accounting fields."""

    def test_packet_outage_counts_only_its_own_losses(self):
        from repro.sim.packet import Packet, PacketType

        net = Network(dual_trunk(n_pairs=2),
                      NetworkConfig(cc_name="hpcc", base_rtt=9 * US))
        link = net.fail_link(4, 5)
        link.transmit(Packet(PacketType.DATA, 1, 0, 2, payload=100),
                      link.port_a, ser_delay=8.0)
        assert link.packets_lost_down == 1
        assert net.restore_link(4, 5) is link
        assert net.fail_link(4, 5) is link
        assert link.packets_lost_down == 0

    def test_fluid_restore_returns_the_member_it_brings_back(self):
        engine = FluidEngine(dual_trunk(n_pairs=2), cc_name="hpcc")
        first, second = engine.fail_link(4, 5), engine.fail_link(5, 4)
        assert first is not second
        assert engine.restore_link(4, 5) is first
        assert engine.fail_link(4, 5) is first
        assert engine.restore_link(5, 4) is first
        assert engine.restore_link(4, 5) is second

    def test_fluid_degrade_refreshes_paths_and_reports(self):
        engine = FluidEngine(star(n_hosts=3, host_rate="10Gbps"),
                             cc_name="hpcc", base_rtt=9 * US)
        engine.add_flow(FlowSpec(1, 0, 2, 2_000_000, 0.0))
        seen = []

        def degrade():
            [flow] = engine._starts
            before = flow.path.base_rtt
            seen.append(engine.degrade_link(2, 3, delay_factor=4.0))
            seen.append(flow.path.base_rtt > before)

        engine.schedule_event(50 * US, degrade)
        assert engine.run(deadline=50 * MS)
        assert seen == [{"detected_at": 50 * US, "reroutes": 0}, True]


class TestOutagePairing:
    """A restore closes the outage of the member it brings back, on both
    backends: ``restore_link`` returns the handle ``fail_link`` did.

    Both trunk members are cut, the first is restored, cut again and
    restored, then the second comes back.  Either engine restores the
    first down member in link order, so the restores close the 1st,
    3rd and 2nd cuts — not the order the cuts happened in."""

    TIMELINE = Timeline([
        FailLink(at=5 * US, a=8, b=9),
        FailLink(at=10 * US, a=8, b=9),
        RestoreLink(at=100 * US, a=8, b=9),
        FailLink(at=150 * US, a=8, b=9),
        RestoreLink(at=300 * US, a=8, b=9),
        RestoreLink(at=400 * US, a=8, b=9),
    ], detection_delay=20 * US)

    def events(self, backend):
        spec = dual_trunk_spec(
            self.TIMELINE, n_pairs=4, backend=backend,
            topology_params={"n_pairs": 4, "host_rate": "50Gbps"})
        record = execute_spec(spec)
        assert record.completed
        return record.link_events()

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    def test_each_restore_carries_its_own_outage_loss(self, backend):
        f1, f2, r1, f3, r2, r3 = self.events(backend)
        assert [e["type"] for e in (f1, f2, f3)] == ["fail_link"] * 3
        assert [e["type"] for e in (r1, r2, r3)] == ["restore_link"] * 3
        # The three outages lost different amounts, so a mispaired
        # restore would show.
        lost = [f["packets_lost_down"] for f in (f1, f2, f3)]
        assert len(set(lost)) == 3, lost
        for fail, restore in ((f1, r1), (f3, r2), (f2, r3)):
            assert restore["packets_lost_down"] == fail["packets_lost_down"]

    def test_entry_keys_match_across_backends(self):
        packet, fluid = self.events("packet"), self.events("fluid")
        # Fluid has no ECMP columns to count; every other key is shared.
        assert [set(e) for e in packet] == [
            set(e) | {"dests_recomputed"} for e in fluid]


class TestFluidDriver:
    def test_full_cut_parks_then_restore_completes(self):
        timeline = Timeline([
            FailLink(at=0.1 * MS, a=2, b=3),
            RestoreLink(at=1.0 * MS, a=2, b=3),
        ])
        spec = ScenarioSpec(
            program="flows",
            topology="star",
            topology_params={"n_hosts": 3, "host_rate": "25Gbps"},
            workload={"flows": [[0, 2, 300_000, 0.0, "bg"]],
                      "deadline": 50 * MS},
            dynamics=timeline,
            config={"base_rtt": 9 * US},
            backend="fluid",
        )
        record = execute_spec(spec)
        assert record.completed
        [r] = record.fct
        assert r["finish"] > 1.0 * MS          # stalled across the outage
        fail, restore = record.link_events()
        assert fail["fired"] and restore["fired"]
        assert restore["reroutes"] >= 1        # the parked flow re-admitted

    def test_cut_without_restore_blackholes(self):
        timeline = Timeline([FailLink(at=0.1 * MS, a=2, b=3)])
        spec = ScenarioSpec(
            program="flows",
            topology="star",
            topology_params={"n_hosts": 3, "host_rate": "25Gbps"},
            workload={"flows": [[0, 2, 300_000, 0.0, "bg"]],
                      "deadline": 3 * MS},
            dynamics=timeline,
            config={"base_rtt": 9 * US},
            backend="fluid",
        )
        record = execute_spec(spec)
        assert not record.completed
        assert record.fct == ()

    def test_unfired_events_after_completion_fluid(self):
        """Backend-neutral accounting: like the packet path, fluid stops
        when every flow finished, leaving later events unfired."""
        timeline = Timeline([FailLink(at=500 * MS, a=4, b=5)])
        record = execute_spec(
            dual_trunk_spec(timeline, **{"backend": "fluid"})
        )
        assert record.completed
        [fail] = record.link_events()
        assert not fail["fired"]
        assert record.duration_ns < 500 * MS

    def test_degrade_scales_fluid_capacity(self):
        base = ScenarioSpec(
            program="flows",
            topology="star",
            topology_params={"n_hosts": 3, "host_rate": "25Gbps"},
            workload={"flows": [[0, 2, 1_000_000, 0.0, "bg"]],
                      "deadline": 50 * MS},
            config={"base_rtt": 9 * US},
            backend="fluid",
        )
        fast = execute_spec(base)
        slow = execute_spec(base.replaced(dynamics=Timeline([
            DegradeLink(at=0.0, a=2, b=3, rate_factor=0.25),
        ])))
        assert fast.completed and slow.completed
        f = fast.fct[0]["finish"] - fast.fct[0]["start"]
        s = slow.fct[0]["finish"] - slow.fct[0]["start"]
        assert s > 2.5 * f

    def test_dual_trunk_cut_halves_pooled_capacity(self):
        timeline = Timeline([FailLink(at=1 * MS, a=8, b=9)])
        spec = ScenarioSpec(
            program="flows",
            topology="dual_trunk",
            topology_params={"n_pairs": 4},
            workload={
                "flows": [[i, 4 + i, 20_000_000, 0.0, "bg"]
                          for i in range(4)],
                "deadline": 40 * MS,
            },
            dynamics=timeline,
            config={"base_rtt": 9 * US, "goodput_bin": 50 * US},
            backend="fluid",
        )
        record = execute_spec(spec)
        goodput = record.goodput()
        ids = record.flow_ids("bg")
        before = sum(goodput.mean_gbps(f, 0.4 * MS, 1 * MS) for f in ids)
        after = sum(goodput.mean_gbps(f, 1.5 * MS, 3.0 * MS) for f in ids)
        # 4x25G offered into 2x50G trunks -> 1x50G: aggregate halves.
        assert after == pytest.approx(before / 2, rel=0.25)
