"""The hybrid backend: equivalence pins, mixed-mode agreement, chaos.

The suite is the co-simulation's contract, in three tiers:

* **degenerate bit-identity** — an all-foreground hybrid run must be
  *bit-identical* (events processed + FCT digest) to the pure packet
  backend, and an all-background run to the pure fluid backend.  This
  holds by construction (degenerate partitions delegate wholesale), so
  any drift here means the delegation or the None-gated coupling hooks
  leaked into a pure path.
* **bounded mixed-mode agreement** — with a real split, each foreground
  flow's FCT/goodput must agree with the pure packet run within the
  same tolerances ``tests/test_fluid.py`` grants the fluid model
  (slowdowns rel=0.30, shares abs=0.05), on the 2-flow, incast and
  fig11 FatTree scenarios.
* **fabric integration** — hybrid cells flow through the sweep
  quarantine/watchdog/resume machinery and the dynamics timelines
  exactly like the pure backends.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dynamics import FailLink, FlapLink, RestoreLink, Timeline
from repro.hybrid import DEFAULT_SELECTOR, parse_foreground, partition_specs
from repro.runner import (
    CcChoice,
    RunCache,
    RunRecord,
    ScenarioSpec,
    SweepRunner,
    execute_spec,
    plan_resume,
)
from repro.runner.execute import backend_class, validate_specs
from repro.sim.flow import FlowSpec
from repro.sim.units import MS, US

BASE_RTT = 9 * US

#: The documented fluid-vs-packet tolerances (tests/test_fluid.py);
#: mixed-mode foreground agreement is held to the same bar.
SLOWDOWN_REL = 0.30
SHARE_ABS = 0.05


def two_flow_spec(backend: str = "hybrid", **updates) -> ScenarioSpec:
    """Two 600KB flows into one star receiver (test_fluid's pair)."""
    spec = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={"n_hosts": 5, "host_rate": "10Gbps",
                         "link_delay": "1us"},
        workload={"flows": [[0, 4, 600_000, 0.0, "a"],
                            [1, 4, 600_000, 0.0, "b"]],
                  "deadline": 50e6},
        config={"base_rtt": BASE_RTT},
        backend=backend,
        label="hybrid-pair",
    )
    return spec.replaced(**updates) if updates else spec


def incast_spec(backend: str = "hybrid", **updates) -> ScenarioSpec:
    """Four 200KB senders into one star receiver."""
    spec = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={"n_hosts": 5, "host_rate": "10Gbps",
                         "link_delay": "1us"},
        workload={"flows": [[i, 4, 200_000, 0.0, f"s{i}"]
                            for i in range(4)],
                  "deadline": 50e6},
        config={"base_rtt": BASE_RTT},
        backend=backend,
        label="hybrid-incast",
    )
    return spec.replaced(**updates) if updates else spec


def load_spec(backend: str = "hybrid", **updates) -> ScenarioSpec:
    spec = ScenarioSpec(
        program="load",
        topology="star",
        topology_params={"n_hosts": 4, "host_rate": "10Gbps"},
        workload={"cdf": "fbhadoop", "size_scale": 0.1,
                  "load": 0.2, "n_flows": 15},
        config={"base_rtt": BASE_RTT},
        seed=2,
        backend=backend,
        label="hybrid-load",
    )
    return spec.replaced(**updates) if updates else spec


def foreground(spec: ScenarioSpec, selector) -> ScenarioSpec:
    return spec.replaced(**{"workload.foreground": selector})


def fct_digest(record: RunRecord) -> str:
    """The FCT payload, canonicalized — the bit-identity fingerprint."""
    payload = json.dumps(record.fct, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def slowdowns_by_id(record: RunRecord) -> dict[int, float]:
    return {r.spec.flow_id: r.slowdown for r in record.fct_records()}


def goodput_by_id(record: RunRecord) -> dict[int, float]:
    """Per-flow goodput as a fraction of its solo-ideal rate.

    ``ideal/fct`` normalizes each flow against the uncontended run, so
    the comparison is per-flow (the ISSUE's *foreground* contract) and
    not skewed by what the other half's flows did.
    """
    return {r.spec.flow_id: r.ideal / r.fct for r in record.fct_records()}


# -- the foreground selector -------------------------------------------------------


class TestForegroundSelector:
    def test_parse_all_forms(self):
        assert parse_foreground("all") == {"kind": "all"}
        assert parse_foreground("none") == {"kind": "none"}
        assert parse_foreground("count:3") == {"kind": "count", "n": 3}
        assert parse_foreground("frac:0.25") == {"kind": "frac", "x": 0.25}
        assert parse_foreground("tag:a,b") == {"kind": "tag",
                                               "tags": ["a", "b"]}

    @pytest.mark.parametrize("text", [
        "", "most", "count:", "count:-1", "count:x",
        "frac:1.5", "frac:-0.1", "frac:", "tag:", "tag:,",
    ])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_foreground(text)

    def test_default_selector_is_ten_percent(self):
        assert DEFAULT_SELECTOR == {"kind": "frac", "x": 0.1}

    def test_count_picks_earliest_starters(self):
        specs = [
            FlowSpec(1, 0, 3, 1000, start_time=5.0),
            FlowSpec(2, 1, 3, 1000, start_time=0.0),
            FlowSpec(3, 2, 3, 1000, start_time=2.0),
        ]
        fg, bg = partition_specs(specs, {"kind": "count", "n": 2})
        assert sorted(fs.flow_id for fs in fg) == [2, 3]
        assert [fs.flow_id for fs in bg] == [1]
        # Input order is preserved inside each half.
        assert [fs.flow_id for fs in fg] == [2, 3]

    def test_tag_selector_membership(self):
        specs = [FlowSpec(1, 0, 3, 1000, 0.0, tag="web"),
                 FlowSpec(2, 1, 3, 1000, 0.0, tag="batch")]
        fg, bg = partition_specs(specs, {"kind": "tag", "tags": ["web"]})
        assert [fs.flow_id for fs in fg] == [1]
        assert [fs.flow_id for fs in bg] == [2]

    def test_frac_rounds_to_population(self):
        specs = [FlowSpec(i, 0, 3, 1000, float(i)) for i in range(1, 11)]
        fg, _ = partition_specs(specs, {"kind": "frac", "x": 0.25})
        assert len(fg) == 2   # floor(10 * 0.25) with a min of... exact split
        fg_all, bg_none = partition_specs(specs, {"kind": "all"})
        assert len(fg_all) == 10 and not bg_none

    def test_selector_changes_spec_hash(self):
        base = two_flow_spec()
        tagged = foreground(base, {"kind": "count", "n": 1})
        assert tagged.spec_hash != base.spec_hash


# -- backend dispatch --------------------------------------------------------------


class TestBackendDispatch:
    def test_hybrid_is_a_known_backend(self):
        assert backend_class("hybrid").__name__ == "HybridBackend"

    def test_unknown_backend_raises_with_known_list(self):
        with pytest.raises(ValueError, match="fluid, hybrid, packet"):
            backend_class("quantum")

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            two_flow_spec(backend="quantum")

    def test_validate_specs_rejects_smuggled_backend(self):
        # A spec whose backend was mutated after construction (the
        # validation bypass a pickle/json round-trip of a future schema
        # could produce) must still be caught at sweep submission.
        spec = two_flow_spec()
        object.__setattr__(spec, "backend", "quantum")
        with pytest.raises(ValueError, match="backend"):
            validate_specs([spec])

    def test_chaos_helper_guards_backend(self):
        from tests.helpers import chaos_execute_spec

        spec = two_flow_spec()
        object.__setattr__(spec, "backend", "quantum")
        with pytest.raises(ValueError, match="unknown backend"):
            chaos_execute_spec(spec)

    def test_hybrid_hash_distinct_from_pure(self):
        hashes = {two_flow_spec(backend=b).spec_hash
                  for b in ("packet", "fluid", "hybrid")}
        assert len(hashes) == 3


# -- degenerate bit-identity -------------------------------------------------------


class TestDegenerateEquivalence:
    """All-foreground == pure packet; all-background == pure fluid."""

    def assert_identical(self, hybrid: RunRecord, pure: RunRecord):
        assert hybrid.events_processed == pure.events_processed
        assert fct_digest(hybrid) == fct_digest(pure)
        assert hybrid.duration_ns == pure.duration_ns
        assert hybrid.completed == pure.completed

    def test_all_foreground_matches_packet_flows(self):
        hybrid = execute_spec(foreground(two_flow_spec(), {"kind": "all"}))
        pure = execute_spec(two_flow_spec(backend="packet"))
        assert hybrid.extras["hybrid_mode"] == "all_foreground"
        assert hybrid.spec.backend == "hybrid"
        self.assert_identical(hybrid, pure)

    def test_all_background_matches_fluid_flows(self):
        hybrid = execute_spec(foreground(two_flow_spec(), {"kind": "none"}))
        pure = execute_spec(two_flow_spec(backend="fluid"))
        assert hybrid.extras["hybrid_mode"] == "all_background"
        assert hybrid.spec.backend == "hybrid"
        self.assert_identical(hybrid, pure)

    def test_all_foreground_matches_packet_load(self):
        hybrid = execute_spec(foreground(load_spec(), {"kind": "all"}))
        pure = execute_spec(load_spec(backend="packet"))
        self.assert_identical(hybrid, pure)

    def test_all_background_matches_fluid_load(self):
        hybrid = execute_spec(foreground(load_spec(), {"kind": "none"}))
        pure = execute_spec(load_spec(backend="fluid"))
        self.assert_identical(hybrid, pure)

    def test_all_background_matches_fluid_fig11_cell(self):
        from repro.experiments import figure11
        from repro.runner import CcChoice

        [spec] = figure11.scenarios(
            scale="bench", cases=("50%",),
            schemes=(CcChoice("hpcc", label="HPCC"),),
        )
        hybrid = execute_spec(foreground(
            spec.replaced(backend="hybrid"), {"kind": "none"}))
        pure = execute_spec(spec.replaced(backend="fluid"))
        self.assert_identical(hybrid, pure)

    def test_delegated_record_roundtrips_with_hybrid_spec(self):
        record = execute_spec(foreground(two_flow_spec(), {"kind": "all"}))
        back = RunRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert back.spec.backend == "hybrid"
        assert back.spec == record.spec
        assert back.fct == record.fct


# -- bounded mixed-mode agreement --------------------------------------------------


class TestMixedModeAgreement:
    """A real split must keep foreground flows within the fluid bars."""

    @pytest.mark.parametrize("cc", ["hpcc", "dctcp"])
    def test_two_flow_foreground_slowdown_agrees(self, cc):
        hybrid = execute_spec(foreground(
            two_flow_spec(cc=CcChoice(cc)), {"kind": "count", "n": 1}))
        packet = execute_spec(two_flow_spec(backend="packet",
                                            cc=CcChoice(cc)))
        assert hybrid.extras["hybrid_mode"] == "mixed"
        assert hybrid.extras["foreground_flows"] == 1
        assert hybrid.extras["background_flows"] == 1
        assert hybrid.extras["hybrid_epochs"] > 0
        assert hybrid.completed
        [fg_id] = hybrid.extras["foreground_flow_ids"]
        h, p = slowdowns_by_id(hybrid), slowdowns_by_id(packet)
        assert h[fg_id] == pytest.approx(p[fg_id], rel=SLOWDOWN_REL)

    def test_two_flow_foreground_goodput_agrees(self):
        hybrid = execute_spec(foreground(two_flow_spec(),
                                         {"kind": "count", "n": 1}))
        packet = execute_spec(two_flow_spec(backend="packet"))
        [fg_id] = hybrid.extras["foreground_flow_ids"]
        h, p = goodput_by_id(hybrid), goodput_by_id(packet)
        assert h[fg_id] == pytest.approx(p[fg_id], abs=SHARE_ABS)

    def test_incast_foreground_agrees(self):
        hybrid = execute_spec(foreground(incast_spec(),
                                         {"kind": "count", "n": 2}))
        packet = execute_spec(incast_spec(backend="packet"))
        assert hybrid.extras["foreground_flows"] == 2
        assert hybrid.completed
        fg_ids = hybrid.extras["foreground_flow_ids"]
        h_slow, p_slow = slowdowns_by_id(hybrid), slowdowns_by_id(packet)
        h_mean = sum(h_slow[i] for i in fg_ids) / len(fg_ids)
        p_mean = sum(p_slow[i] for i in fg_ids) / len(fg_ids)
        assert h_mean == pytest.approx(p_mean, rel=SLOWDOWN_REL)
        h_good, p_good = goodput_by_id(hybrid), goodput_by_id(packet)
        for fid in fg_ids:
            assert h_good[fid] == pytest.approx(p_good[fid], abs=SHARE_ABS)

    def test_fig11_fattree_foreground_agrees(self):
        """A shrunken fig11 FatTree cell: 10% packet foreground."""
        from repro.experiments import figure11
        from repro.runner import CcChoice

        [spec] = figure11.scenarios(
            scale="bench", cases=("50%",),
            schemes=(CcChoice("hpcc", label="HPCC"),),
            overrides={"n_flows": 60},
        )
        hybrid = execute_spec(foreground(
            spec.replaced(backend="hybrid"), {"kind": "frac", "x": 0.1}))
        packet = execute_spec(spec)
        assert hybrid.extras["hybrid_mode"] == "mixed"
        fg_ids = hybrid.extras["foreground_flow_ids"]
        assert len(fg_ids) == 6
        h_slow, p_slow = slowdowns_by_id(hybrid), slowdowns_by_id(packet)
        h_mean = sum(h_slow[i] for i in fg_ids) / len(fg_ids)
        p_mean = sum(p_slow[i] for i in fg_ids) / len(fg_ids)
        assert h_mean == pytest.approx(p_mean, rel=SLOWDOWN_REL)
        # The whole population is present exactly once in the merged FCT.
        assert sorted(r["flow_id"] for r in hybrid.fct) == \
            sorted(r["flow_id"] for r in packet.fct)

    def test_merged_record_shape(self):
        spec = foreground(two_flow_spec(
            measure={"sample_interval": 10_000.0, "windows": True},
        ), {"kind": "count", "n": 1})
        record = execute_spec(spec)
        # Merged FCT is finish-sorted across both halves.
        finishes = [r["finish"] for r in record.fct]
        assert finishes == sorted(finishes)
        assert len(record.fct) == 2
        # Queue samples come from the packet half's switch labels.
        assert record.queues
        # Final windows cover both halves.
        assert set(record.final_windows()) == {1, 2}
        assert record.events_processed > 0
        assert record.extras["fluid_steps"] > 0

    def test_deterministic(self):
        spec = foreground(two_flow_spec(), {"kind": "count", "n": 1})
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first.to_json() == second.to_json() or (
            fct_digest(first) == fct_digest(second)
            and first.events_processed == second.events_processed
        )


# -- telemetry and decision taps ---------------------------------------------------


class TestHybridTelemetry:
    def test_probes_cover_both_halves(self):
        spec = foreground(two_flow_spec(), {"kind": "count", "n": 1})
        record = execute_spec(spec, telemetry=True)
        names = {event.get("name", "") for event in record.telemetry or []}
        # The SimProbe and FluidProbe streams both landed.
        assert any(n.startswith("sim.") for n in names), names
        assert any(n.startswith("fluid.") for n in names), names

    def test_decision_tap_sees_foreground_flows(self):
        from repro.obs.divergence import by_flow, decision_rows

        spec = foreground(two_flow_spec(), {"kind": "count", "n": 1})
        record = execute_spec(spec.replaced(**{"measure.decisions": True}))
        flows = by_flow(decision_rows(record.extras["decisions"]))
        [fg_id] = record.extras["foreground_flow_ids"]
        assert fg_id in flows            # packet-half CC decisions
        assert len(flows[fg_id]) > 0


# -- chaos: the sweep fabric with hybrid cells -------------------------------------


def chaos_runner(**kwargs):
    from tests.helpers import chaos_execute_spec

    kwargs.setdefault("jobs", 2)
    return SweepRunner(execute=chaos_execute_spec, **kwargs)


def tiny_hybrid_spec(**updates) -> ScenarioSpec:
    spec = foreground(
        two_flow_spec(**{"workload.flows": [[0, 4, 60_000, 0.0, "a"],
                                            [1, 4, 60_000, 0.0, "b"]],
                         "workload.deadline": 5e6}),
        {"kind": "count", "n": 1},
    )
    return spec.replaced(**updates) if updates else spec


class TestHybridChaos:
    """Hybrid cells through the PR 8 quarantine/watchdog/resume path."""

    @pytest.mark.chaos
    def test_error_and_ok_cells_quarantine(self, tmp_path):
        cache = RunCache(tmp_path)
        specs = [
            tiny_hybrid_spec(label="boom", **{"meta.chaos": "raise"}),
            tiny_hybrid_spec(label="fine", seed=3),
        ]
        records = chaos_runner(cache=cache).run(specs)
        by_label = {r.spec.label: r for r in records}
        assert by_label["fine"].ok
        assert by_label["fine"].spec.backend == "hybrid"
        bad = by_label["boom"]
        assert bad.status == "error" and not bad.ok
        assert bad.error["type"] == "ChaosError"
        # Only the healthy hybrid cell was persisted.
        assert len(cache) == 1

    @pytest.mark.chaos
    def test_hung_hybrid_cell_times_out(self):
        specs = [
            tiny_hybrid_spec(label="stuck", **{"meta.chaos": "hang"}),
            tiny_hybrid_spec(label="fine", seed=3),
        ]
        records = chaos_runner(spec_timeout=1.0).run(specs)
        by_label = {r.spec.label: r for r in records}
        assert by_label["fine"].ok
        assert by_label["stuck"].status == "timeout"

    @staticmethod
    def dynamics_spec(timeline) -> ScenarioSpec:
        """600KB flows so the 200us cut lands mid-flight of the fg flow."""
        return foreground(
            two_flow_spec(dynamics=timeline, **{"config.rto": 300 * US}),
            {"kind": "count", "n": 1},
        )

    @pytest.mark.chaos
    def test_fail_link_timeline_lands_ok(self):
        """A hybrid cell under a fail/restore timeline completes and
        records the fired events once (the packet driver's report)."""
        timeline = Timeline([FailLink(at=0.2 * MS, a=0, b=5),
                             RestoreLink(at=0.6 * MS, a=0, b=5)])
        [record] = chaos_runner(jobs=1).run([self.dynamics_spec(timeline)])
        assert record.ok
        events = record.link_events()
        assert [e["type"] for e in events] == ["fail_link", "restore_link"]
        assert all(e["fired"] for e in events)
        assert record.completed

    @pytest.mark.chaos
    def test_flap_link_timeline_lands_ok(self):
        timeline = Timeline([FlapLink(at=0.2 * MS, a=0, b=5,
                                      down_time=0.1 * MS, period=0.3 * MS,
                                      count=2)])
        [record] = chaos_runner(jobs=1).run([self.dynamics_spec(timeline)])
        assert record.ok
        assert record.completed
        assert len(record.link_events()) == 4   # 2 fail + 2 restore

    @pytest.mark.chaos
    def test_hybrid_resume_determinism(self, tmp_path):
        """A resumed hybrid sweep matches an uninterrupted one."""
        journal_path = tmp_path / "journal.jsonl"
        cache = RunCache(tmp_path / "cache")
        chaos_specs = [
            tiny_hybrid_spec(label="a", **{"meta.chaos": "raise"}),
            tiny_hybrid_spec(label="b", seed=3),
        ]
        clean_specs = [tiny_hybrid_spec(label="a"),
                       tiny_hybrid_spec(label="b", seed=3)]
        first = chaos_runner(cache=cache,
                             journal=str(journal_path)).run(chaos_specs)
        assert [r.status for r in first] == ["error", "ok"]

        to_run, skipped, _ = plan_resume(clean_specs, journal_path)
        assert [s.label for s in to_run] == ["a"]
        assert skipped == [clean_specs[1].spec_hash]

        resumed = SweepRunner(jobs=2, cache=cache,
                              journal=str(journal_path)).run(clean_specs)
        pristine = SweepRunner(jobs=2,
                               cache=RunCache(tmp_path / "c2")).run(clean_specs)

        def canonical(record):
            data = record.to_json()
            data.pop("wall_time_s")
            return data

        assert [canonical(r) for r in resumed] == \
            [canonical(r) for r in pristine]
        assert all(r.ok and r.spec.backend == "hybrid" for r in resumed)
