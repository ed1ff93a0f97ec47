"""The declarative scenario layer: specs, grids, execution, caching.

Includes the determinism guarantee the sweep runner is built on: the same
``ScenarioSpec`` produces identical results whether it runs serially,
in another process, or comes back from the cache.
"""

import json

import pytest

from repro.runner import (
    CcChoice,
    RunCache,
    RunRecord,
    ScenarioGrid,
    ScenarioSpec,
    SweepRunner,
    axis,
    build_topology,
    cc_axis,
    execute_spec,
    write_records_csv,
)
from repro.runner.results import fct_rows
from repro.sim.units import US


def tiny_load_spec(**updates) -> ScenarioSpec:
    spec = ScenarioSpec(
        program="load",
        topology="star",
        topology_params={"n_hosts": 4, "host_rate": "10Gbps"},
        cc=CcChoice("hpcc"),
        workload={"cdf": "fbhadoop", "size_scale": 0.1,
                  "load": 0.2, "n_flows": 15},
        config={"base_rtt": 9 * US},
        seed=2,
        label="tiny",
    )
    return spec.replaced(**updates) if updates else spec


def tiny_flows_spec(**updates) -> ScenarioSpec:
    spec = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
        cc=CcChoice("hpcc"),
        workload={"flows": [[0, 2, 60_000, 0.0, "a"], [1, 2, 60_000, 0.0, "b"]],
                  "deadline": 5e6},
        config={"base_rtt": 9 * US, "goodput_bin": 50_000.0},
        measure={"sample_interval": 10_000.0,
                 "sample_ports": [["bneck", "to_host", 2]],
                 "windows": True},
        label="tiny-flows",
    )
    return spec.replaced(**updates) if updates else spec


class TestScenarioSpec:
    def test_hashable_and_eq_by_content(self):
        a, b = tiny_load_spec(), tiny_load_spec()
        assert a == b and hash(a) == hash(b)
        assert a.spec_hash == b.spec_hash
        c = tiny_load_spec(seed=3)
        assert c != a and c.spec_hash != a.spec_hash
        assert len({a, b, c}) == 2

    def test_label_and_meta_do_not_change_identity(self):
        a = tiny_load_spec()
        b = tiny_load_spec(label="renamed", **{"meta.case": "30%"})
        assert a == b and a.spec_hash == b.spec_hash

    def test_json_roundtrip(self):
        spec = tiny_load_spec(**{"meta.case": "x"})
        back = ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert back == spec
        assert back.label == spec.label and back.meta == spec.meta
        assert back.cc == spec.cc

    def test_picklable(self):
        import pickle

        spec = tiny_load_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_replaced_dotted_paths_do_not_mutate(self):
        spec = tiny_load_spec()
        derived = spec.replaced(**{"workload.load": 0.5,
                                   "config.buffer_bytes": 1_000_000})
        assert spec.workload["load"] == 0.2
        assert "buffer_bytes" not in spec.config
        assert derived.workload["load"] == 0.5
        assert derived.config["buffer_bytes"] == 1_000_000

    def test_replaced_rejects_non_dict_descent(self):
        with pytest.raises(TypeError):
            tiny_load_spec(**{"seed.x": 1})

    def test_backend_is_identity(self):
        """Packet and fluid runs of one scenario must never share a hash."""
        packet = tiny_load_spec()
        fluid = tiny_load_spec(backend="fluid")
        assert packet.backend == "packet"
        assert packet != fluid
        assert packet.spec_hash != fluid.spec_hash

    def test_backend_json_roundtrip_and_legacy_default(self):
        spec = tiny_load_spec(backend="fluid")
        payload = spec.to_json()
        assert payload["backend"] == "fluid"
        assert ScenarioSpec.from_json(payload) == spec
        # Records persisted before the backend axis existed load as packet.
        legacy = tiny_load_spec().to_json()
        del legacy["backend"]
        assert ScenarioSpec.from_json(legacy).backend == "packet"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            tiny_load_spec(backend="quantum")

    def test_build_topology_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology(tiny_load_spec(topology="moebius"))

    def test_unknown_program_rejected(self):
        with pytest.raises(ValueError, match="unknown program"):
            execute_spec(tiny_load_spec(program="quantum"))


class TestScenarioGrid:
    def test_cartesian_expansion_row_major(self):
        grid = ScenarioGrid(
            tiny_load_spec(),
            axis("workload.load", [0.2, 0.4]),
            cc_axis([CcChoice("hpcc", label="HPCC"),
                     CcChoice("dcqcn", label="DCQCN")]),
        )
        specs = grid.expand()
        assert len(specs) == len(grid) == 4
        assert [s.label for s in specs] == ["HPCC", "DCQCN", "HPCC", "DCQCN"]
        assert [s.workload["load"] for s in specs] == [0.2, 0.2, 0.4, 0.4]
        assert len({s.spec_hash for s in specs}) == 4

    def test_coupled_axis_updates_multiple_fields(self):
        specs = ScenarioGrid(
            tiny_load_spec(),
            [{"config.transport": "gbn", "config.pfc_enabled": False,
              "label": "GBN"}],
        ).expand()
        assert specs[0].config["transport"] == "gbn"
        assert specs[0].config["pfc_enabled"] is False
        assert specs[0].label == "GBN"


class TestExecution:
    def test_load_program_record(self):
        record = execute_spec(tiny_load_spec())
        assert record.fct and record.events_processed > 0
        assert record.duration_ns > 0
        assert record.extras["n_hosts"] == 4
        assert record.wall_time_s > 0
        # FctRecord reconstruction round-trips the flow spec.
        fct = record.fct_records()
        assert all(r.slowdown > 0 and r.fct > 0 for r in fct)
        assert {r.spec.flow_id for r in fct} == {r["flow_id"] for r in record.fct}

    def test_flows_program_record(self):
        record = execute_spec(tiny_flows_spec())
        assert len(record.fct) == 2
        t, q = record.queue_series("bneck")
        assert len(t) == len(q) > 0
        assert record.flow_ids("a") == [1] and record.flow_ids("b") == [2]
        assert set(record.goodput().flow_ids()) == {1, 2}
        assert set(record.final_windows()) == {1, 2}

    def test_link_event_after_completion_still_yields_complete_entry(self):
        """A fail_link scheduled past the last flow's finish never fires;
        the record must still carry a complete (no-op) event entry."""
        spec = tiny_flows_spec(dynamics={"events": [
            {"type": "fail_link", "at": 4.9e6, "a": 3, "b": 0},
        ]})
        record = execute_spec(spec)
        [entry] = record.link_events()
        assert entry["fired"] is False
        assert entry["packets_lost_down"] == 0

    def test_unknown_link_event_rejected_eagerly(self):
        with pytest.raises(ValueError,
                           match="unknown dynamics event 'melt_link'"):
            tiny_flows_spec(dynamics={"events": [
                {"type": "melt_link", "at": 1.0, "a": 3, "b": 0},
            ]})

    def test_worker_execution_error_propagates_from_pool(self):
        """A broken spec must fail the sweep loudly, not silently degrade."""
        bad = tiny_flows_spec(topology="moebius")
        with pytest.raises(ValueError, match="unknown topology"):
            SweepRunner(jobs=2).run([bad, tiny_flows_spec()])

    def test_record_json_roundtrip_preserves_results(self):
        record = execute_spec(tiny_flows_spec())
        back = RunRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert back.fct == record.fct
        assert back.queues == record.queues
        assert back.events_processed == record.events_processed
        # Reconstructed trackers behave identically.
        assert back.goodput().total_series() == record.goodput().total_series()

    def test_record_json_roundtrip_carries_backend(self):
        """Round-trip must preserve the backend on both execution paths."""
        for backend in ("packet", "fluid"):
            record = execute_spec(tiny_flows_spec(backend=backend))
            payload = json.loads(json.dumps(record.to_json()))
            assert payload["spec"]["backend"] == backend
            back = RunRecord.from_json(payload)
            assert back.spec.backend == backend
            assert back.spec == record.spec
            assert back.fct == record.fct


class TestRecordExport:
    """What leaves a run as data: FCT rows, queue series, pause
    intervals and the sweep's one-row-per-record ``summary.csv``."""

    def test_fct_rows_invert_fct_records(self):
        record = execute_spec(tiny_flows_spec())
        assert fct_rows(record.fct_records()) == record.fct
        for r in record.fct_records():
            assert r.fct == pytest.approx(r.finish - r.start)
            assert r.slowdown > 0.9

    def test_queue_series_is_time_ordered(self):
        record = execute_spec(tiny_flows_spec())
        times, qlens = record.queue_series("bneck")
        assert times == sorted(times) and len(set(times)) == len(times)
        assert all(q >= 0 for q in qlens)
        assert record.all_queue_samples() == qlens

    def test_pause_intervals_rebuild_a_tracker(self):
        record = RunRecord(spec=tiny_flows_spec(), extras={
            "pause_intervals": [[3, 1, 100.0, 400.0], [4, 0, 50.0, 60.0]],
        })
        tracker = record.pause_tracker()
        assert tracker.pause_count() == 2
        assert sorted(i.end - i.start for i in tracker.intervals) \
            == [10.0, 300.0]

    def test_records_csv_one_row_per_record(self, tmp_path):
        import csv

        record = execute_spec(tiny_flows_spec())
        failed = RunRecord.failure(tiny_flows_spec(seed=3), "timeout",
                                   detail="watchdog")
        path = tmp_path / "summary.csv"
        assert write_records_csv([record, failed], path) == 2
        with path.open() as handle:
            ok_row, failed_row = csv.DictReader(handle)
        assert ok_row["spec_hash"] == record.spec_hash
        assert ok_row["status"] == "ok" and ok_row["cc"] == record.spec.cc.display
        assert int(ok_row["flows_finished"]) == 2
        assert 0.9 < float(ok_row["slowdown_p50"]) \
            <= float(ok_row["slowdown_p99"])
        # A failed cell finished no flows: its slowdowns stay blank.
        assert failed_row["status"] == "timeout"
        assert failed_row["flows_finished"] == "0"
        assert failed_row["slowdown_p50"] == failed_row["slowdown_p99"] == ""


class TestRunCache:
    def test_miss_compute_hit(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = tiny_flows_spec()
        assert cache.get(spec) is None
        runner = SweepRunner(cache=cache)
        [record] = runner.run([spec])
        assert not record.cached
        assert spec in cache and len(cache) == 1
        [again] = SweepRunner(cache=cache).run([spec])
        assert again.cached
        assert again.fct == record.fct
        assert again.events_processed == record.events_processed

    def test_relabelled_spec_hits_same_entry(self, tmp_path):
        cache = RunCache(tmp_path)
        SweepRunner(cache=cache).run([tiny_flows_spec()])
        [hit] = SweepRunner(cache=cache).run(
            [tiny_flows_spec(label="other-name", **{"meta.case": "x"})]
        )
        assert hit.cached
        assert hit.spec.label == "other-name"     # caller's labelling kept

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = tiny_flows_spec()
        SweepRunner(cache=cache).run([spec])
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None
        # The bad entry was quarantined, not left shadowing the slot.
        assert not cache.path_for(spec).exists()
        assert cache.path_for(spec).with_suffix(".corrupt").exists()
        assert cache.stats()["quarantined"] == 1
        [record] = SweepRunner(cache=cache).run([spec])
        assert not record.cached
        # The rerun repopulated the slot; a second lookup now hits.
        assert cache.get(spec) is not None

    def test_truncated_entry_is_quarantined(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = tiny_flows_spec()
        SweepRunner(cache=cache).run([spec])
        path = cache.path_for(spec)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(spec) is None
        assert path.with_suffix(".corrupt").exists()

    @pytest.mark.parametrize("fmt", [999, 1, None])
    def test_schema_mismatch_is_quarantined(self, tmp_path, fmt):
        """One readable format: a future one, the retired format 1 and a
        payload with no ``format`` are all refused by name, sidelined,
        and recomputed."""
        cache = RunCache(tmp_path)
        spec = tiny_flows_spec()
        SweepRunner(cache=cache).run([spec])
        path = cache.path_for(spec)
        data = json.loads(path.read_text())
        if fmt is None:
            del data["format"]
        else:
            data["format"] = fmt
        with pytest.raises(ValueError, match="reads format 2"):
            RunRecord.from_json(data)
        path.write_text(json.dumps(data))
        assert cache.get(spec) is None
        assert path.with_suffix(".corrupt").exists()
        [record] = SweepRunner(cache=cache).run([spec])
        assert not record.cached and cache.get(spec).cached

    def test_non_ok_record_refused_by_put(self, tmp_path):
        cache = RunCache(tmp_path)
        bad = RunRecord.failure(tiny_flows_spec(), "error",
                                exc=RuntimeError("boom"))
        with pytest.raises(ValueError, match="refusing to cache"):
            cache.put(bad)

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        SweepRunner(cache=cache).run([tiny_flows_spec()])
        assert cache.clear() == 1 and len(cache) == 0

    def test_backends_cached_separately(self, tmp_path):
        """A fluid run must never satisfy a packet lookup or vice versa."""
        cache = RunCache(tmp_path)
        packet, fluid = tiny_flows_spec(), tiny_flows_spec(backend="fluid")
        [packet_record] = SweepRunner(cache=cache).run([packet])
        assert cache.get(fluid) is None            # no cross-backend hit
        [fluid_record] = SweepRunner(cache=cache).run([fluid])
        assert not fluid_record.cached
        assert len(cache) == 2
        # Both entries hit independently afterwards.
        assert cache.get(packet).cached and cache.get(fluid).cached
        assert cache.get(packet).spec.backend == "packet"
        assert cache.get(fluid).spec.backend == "fluid"

    def test_stats_breaks_down_by_backend(self, tmp_path):
        cache = RunCache(tmp_path)
        SweepRunner(cache=cache).run(
            [tiny_flows_spec(), tiny_flows_spec(backend="fluid"),
             tiny_load_spec()]
        )
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert stats["corrupt"] == 0
        assert stats["by_kind"] == {
            ("packet", "flows"): 1,
            ("fluid", "flows"): 1,
            ("packet", "load"): 1,
        }


class TestSweepRunner:
    def test_preserves_input_order_and_progress(self):
        specs = [tiny_flows_spec(), tiny_load_spec(),
                 tiny_flows_spec(seed=9)]
        seen = []
        runner = SweepRunner(progress=lambda r, done, total: seen.append((done, total)))
        records = runner.run(specs)
        assert [r.spec.spec_hash for r in records] == [s.spec_hash for s in specs]
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_duplicate_specs_computed_once(self):
        specs = [tiny_flows_spec(label="a"), tiny_flows_spec(label="b")]
        runs = []
        runner = SweepRunner(progress=lambda r, d, t: runs.append(r))
        records = runner.run(specs)
        assert len(runs) == 2                      # both notified...
        assert records[0].fct is records[1].fct    # ...one computation shared
        assert records[0].spec.label == "a"
        assert records[1].spec.label == "b"

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestDeterminism:
    """Satellite requirement: the same spec (same seed) run serially and
    via the process pool yields identical FCT records and
    ``events_processed``."""

    def grid(self):
        return ScenarioGrid(
            tiny_load_spec(),
            cc_axis([CcChoice("hpcc", label="HPCC"),
                     CcChoice("dcqcn", label="DCQCN")]),
            axis("seed", [2, 7]),
        ).expand()

    def test_serial_rerun_is_identical(self):
        specs = self.grid()
        first = SweepRunner().run(specs)
        second = SweepRunner().run(specs)
        assert [r.fct for r in first] == [r.fct for r in second]
        assert [r.events_processed for r in first] == \
            [r.events_processed for r in second]

    def test_pool_matches_serial(self):
        specs = self.grid()
        serial = SweepRunner(jobs=1).run(specs)
        pooled = SweepRunner(jobs=4).run(specs)
        assert [r.fct for r in serial] == [r.fct for r in pooled]
        assert [r.queues for r in serial] == [r.queues for r in pooled]
        assert [r.extras for r in serial] == [r.extras for r in pooled]
        assert [r.events_processed for r in serial] == \
            [r.events_processed for r in pooled]

    def test_cached_record_matches_fresh(self, tmp_path):
        spec = tiny_load_spec()
        fresh = execute_spec(spec)
        cache = RunCache(tmp_path)
        cache.put(fresh)
        hit = cache.get(spec)
        assert hit.fct == fresh.fct
        assert hit.events_processed == fresh.events_processed


class TestFaultTolerance:
    """The sweep fabric's chaos suite: crashing, hanging and dying
    workers must land as quarantined records, not torn-down sweeps."""

    def chaos_runner(self, **kwargs):
        from tests.helpers import chaos_execute_spec

        kwargs.setdefault("jobs", 2)
        return SweepRunner(execute=chaos_execute_spec, **kwargs)

    @pytest.mark.chaos
    def test_error_is_quarantined(self, tmp_path):
        cache = RunCache(tmp_path)
        specs = [
            tiny_flows_spec(label="boom", **{"meta.chaos": "raise"}),
            tiny_flows_spec(label="fine", seed=3),
        ]
        records = self.chaos_runner(cache=cache).run(specs)
        by_label = {r.spec.label: r for r in records}
        assert by_label["fine"].ok
        bad = by_label["boom"]
        assert bad.status == "error" and not bad.ok
        assert bad.error["type"] == "ChaosError"
        assert "injected failure" in bad.error["message"]
        assert "chaos_execute_spec" in bad.error["traceback"]
        # Only the ok cell was cached; the failure is never persisted.
        assert len(cache) == 1
        assert cache.get(specs[1]) is not None

    @pytest.mark.chaos
    def test_raise_policy_reraises_original(self):
        from tests.helpers import ChaosError

        specs = [tiny_flows_spec(**{"meta.chaos": "raise"}),
                 tiny_flows_spec(seed=3)]
        with pytest.raises(ChaosError, match="injected failure"):
            self.chaos_runner(failures="raise").run(specs)

    @pytest.mark.chaos
    def test_serial_path_quarantines_too(self):
        records = self.chaos_runner(jobs=1).run(
            [tiny_flows_spec(**{"meta.chaos": "raise"}),
             tiny_flows_spec(seed=3)]
        )
        assert [r.status for r in records] == ["error", "ok"]

    @pytest.mark.chaos
    def test_hung_spec_times_out(self):
        specs = [
            tiny_flows_spec(label="stuck", **{"meta.chaos": "hang"}),
            tiny_flows_spec(label="fine", seed=3),
        ]
        records = self.chaos_runner(spec_timeout=1.0).run(specs)
        by_label = {r.spec.label: r for r in records}
        assert by_label["fine"].ok
        stuck = by_label["stuck"]
        assert stuck.status == "timeout"
        assert stuck.wall_time_s >= 1.0
        assert "wall-clock budget" in stuck.error["message"]

    @pytest.mark.chaos
    def test_lone_hung_spec_times_out(self):
        """The watchdog arms for a single spec too (a re-run with one
        failed cell left): it runs in the pool, not in-process."""
        [stuck] = self.chaos_runner(spec_timeout=1.0).run(
            [tiny_flows_spec(label="stuck", **{"meta.chaos": "hang"})])
        assert stuck.status == "timeout" and stuck.attempts == 1
        assert "wall-clock budget" in stuck.error["message"]

    @pytest.mark.chaos
    def test_hung_cell_in_a_unit_times_out_alone(self):
        """A unit past its budget (``spec_timeout`` per cell) is split
        into units of one: the hung cell lands ``timeout``, its
        unit-mates ``ok``."""
        specs = [tiny_flows_spec(backend="fluid", seed=seed, label=f"m{seed}")
                 for seed in (1, 2, 3)]
        specs[2] = specs[2].replaced(label="stuck", **{"meta.chaos": "hang"})
        assert [len(u) for u in SweepRunner(jobs=2)._units(
            {s.spec_hash: s for s in specs})] == [2, 1]
        records = self.chaos_runner(spec_timeout=1.0).run(specs)
        assert [r.status for r in records] == ["ok", "ok", "timeout"]
        assert [r.attempts for r in records] == [1, 1, 1]
        assert records[2].wall_time_s >= 1.0
        for spec, record in zip(specs[:2], records):
            assert record.to_json() | {"wall_time_s": 0} \
                == execute_spec(spec).to_json() | {"wall_time_s": 0}

    @pytest.mark.chaos
    def test_dead_worker_in_a_unit_spares_its_mates(self):
        """A worker that dies holding a unit sends each of its cells
        back as a unit of one, at no cost: the culprit is quarantined
        once its retries run out, and its batchable unit-mates land ok."""
        specs = [tiny_flows_spec(backend="fluid", seed=seed, label=f"m{seed}")
                 for seed in (1, 2, 3, 4, 5)]
        specs[2] = specs[2].replaced(label="dead", **{"meta.chaos": "die"})
        units = SweepRunner(jobs=2)._units({s.spec_hash: s for s in specs})
        assert [len(u) for u in units] == [3, 2]
        records = self.chaos_runner(retries=2).run(specs)
        dead = records.pop(2)
        assert dead.status == "error" and dead.attempts == 3
        assert "worker lost 3 times" in dead.error["message"]
        assert all(r.ok for r in records)

    @pytest.mark.chaos
    def test_units_lost_to_a_death_are_split_free(self):
        """Cells lost in a larger unit are not charged: with no retries,
        the culprit (a unit of one) is quarantined after one attempt and
        the three cells of the unit that died beside it land ok."""
        specs = [tiny_flows_spec(backend="fluid", seed=seed, label=f"m{seed}")
                 for seed in (1, 2, 3, 4, 5, 6)]
        specs.insert(1, tiny_flows_spec(label="dead", **{"meta.chaos": "die"}))
        units = SweepRunner(jobs=2)._units({s.spec_hash: s for s in specs})
        assert [len(u) for u in units] == [3, 1, 3]
        records = self.chaos_runner(retries=0).run(specs)
        dead = records.pop(1)
        assert dead.status == "error" and dead.attempts == 1
        assert "worker lost 1 times" in dead.error["message"]
        assert all(r.ok and r.attempts == 1 for r in records)

    @pytest.mark.chaos
    @pytest.mark.parametrize("healthy_sleep_s", [0.0, 0.6])
    def test_death_beside_others_charges_nobody(self, healthy_sleep_s):
        """With no retries, a cell that dies beside two healthy units of
        one quarantines only itself.  With the healthy cells still in
        flight (0.6 s), the death charges nobody, all three go back to
        run alone, and the culprit's lone death is its own; without the
        sleep they may land first, and the outcome is the same."""
        specs = [
            tiny_flows_spec(label="dead", **{"meta.chaos": "die",
                                             "meta.sleep_s": 0.1}),
            tiny_flows_spec(label="fine1", seed=3,
                            **{"meta.sleep_s": healthy_sleep_s}),
            tiny_flows_spec(label="fine2", seed=4,
                            **{"meta.sleep_s": healthy_sleep_s}),
        ]
        records = self.chaos_runner(jobs=3, retries=0).run(specs)
        dead = records.pop(0)
        assert dead.status == "error" and dead.attempts == 1
        assert "worker lost 1 times" in dead.error["message"]
        assert all(r.ok and r.attempts == 1 for r in records)

    @pytest.mark.chaos
    def test_dead_worker_is_retried(self, tmp_path):
        specs = [
            tiny_flows_spec(label="flaky", **{"meta.chaos": "die_once",
                                              "meta.flag_dir": str(tmp_path)}),
            tiny_flows_spec(label="fine", seed=3),
        ]
        records = self.chaos_runner(retries=3).run(specs)
        by_label = {r.spec.label: r for r in records}
        assert by_label["fine"].ok
        # It died once and was run again: charged (2 attempts) when it
        # died alone, free (1) when the death also took "fine" down.
        assert (tmp_path / f"{specs[0].spec_hash}.died").exists()
        assert by_label["flaky"].ok
        assert by_label["flaky"].attempts in (1, 2)

    @pytest.mark.chaos
    def test_retries_exhausted_becomes_error(self):
        specs = [
            tiny_flows_spec(label="d1", **{"meta.chaos": "die"}),
            tiny_flows_spec(label="d2", seed=3, **{"meta.chaos": "die"}),
        ]
        records = self.chaos_runner(retries=1).run(specs)
        assert all(r.status == "error" for r in records)
        assert all("worker lost" in r.error["message"] for r in records)
        assert all(r.attempts == 2 for r in records)

    @pytest.mark.chaos
    def test_acceptance_mixed_failure_sweep(self, tmp_path):
        """The ISSUE acceptance scenario: one crashing spec, one hanging
        spec and one healthy spec yield exactly one error, one timeout
        and one ok record — without raising."""
        journal_path = tmp_path / "journal.jsonl"
        specs = [
            tiny_flows_spec(label="crash", **{"meta.chaos": "raise"}),
            tiny_flows_spec(label="hang", seed=3, **{"meta.chaos": "hang"}),
            tiny_flows_spec(label="ok", seed=4),
        ]
        runner = self.chaos_runner(cache=RunCache(tmp_path / "cache"),
                                   spec_timeout=1.5, journal=str(journal_path))
        records = runner.run(specs)
        statuses = {r.spec.label: r.status for r in records}
        assert statuses == {"crash": "error", "hang": "timeout", "ok": "ok"}
        # The journal landed one line per cell.
        entries = [json.loads(line)
                   for line in journal_path.read_text().splitlines()]
        assert sorted(e["status"] for e in entries if e["kind"] == "cell") \
            == ["error", "ok", "timeout"]

    @pytest.mark.chaos
    def test_resume_reruns_only_failed_cells(self, tmp_path):
        """Re-running a sweep over its cache re-runs error/timeout cells
        only and matches an uninterrupted sweep record-for-record."""
        journal_path = tmp_path / "journal.jsonl"
        cache = RunCache(tmp_path / "cache")
        # Chaos twins share spec hashes with the clean specs below
        # (meta is excluded from identity).
        chaos_specs = [
            tiny_flows_spec(label="a", **{"meta.chaos": "raise"}),
            tiny_flows_spec(label="b", seed=3, **{"meta.chaos": "raise"}),
            tiny_flows_spec(label="c", seed=4),
        ]
        clean_specs = [tiny_flows_spec(label="a"),
                       tiny_flows_spec(label="b", seed=3),
                       tiny_flows_spec(label="c", seed=4)]
        first = self.chaos_runner(cache=cache,
                                  journal=str(journal_path)).run(chaos_specs)
        assert [r.status for r in first] == ["error", "error", "ok"]

        resumed = SweepRunner(jobs=2, cache=cache,
                              journal=str(journal_path)).run(clean_specs)
        # Only the failed cells re-ran; the ok one came back from the
        # cache, bit-identical.
        assert [r.cached for r in resumed] == [False, False, True]
        assert resumed[2].to_json() == first[2].to_json()

        # Record-for-record identical to a sweep that never failed.
        pristine = SweepRunner(jobs=2,
                               cache=RunCache(tmp_path / "c2")).run(clean_specs)

        def canonical(record):
            data = record.to_json()
            data.pop("wall_time_s")      # the only nondeterministic field
            return data

        assert [canonical(r) for r in resumed] == \
            [canonical(r) for r in pristine]
        assert all(r.ok for r in resumed)

    @pytest.mark.chaos
    def test_fault_telemetry_counters(self, tmp_path):
        from repro.obs import Telemetry
        from repro.obs.sinks import MemorySink

        sink = MemorySink()
        tel = Telemetry(run_id="chaos-sweep", sink=sink)
        self.chaos_runner(telemetry=tel, spec_timeout=1.0).run([
            tiny_flows_spec(label="boom", **{"meta.chaos": "raise"}),
            tiny_flows_spec(label="stuck", seed=3, **{"meta.chaos": "hang"}),
            tiny_flows_spec(label="fine", seed=4),
        ])
        tel.flush_counters()
        records = sink.drain()
        counters = {r["name"]: r["value"] for r in records
                    if r["kind"] == "counter"}
        assert counters.get("sweep.fault.quarantined") == 2
        assert counters.get("sweep.fault.timeouts") == 1
        events = [r["name"] for r in records if r["kind"] == "event"]
        assert "sweep.spec_failed" in events
        spans = [r["name"] for r in records if r["kind"] == "span"]
        assert "sweep.watchdog" in spans
