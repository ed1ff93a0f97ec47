"""Lockstep fluid batches: a cell's record does not depend on its batch.

:class:`~repro.fluid.FluidBatch` steps many fluid cells over one row
block; :func:`~repro.runner.execute.execute_batch` runs fluid
``load``/``flows`` specs that way, and ``SweepRunner(jobs=N)`` deals
every such spec of one ``run()`` call into N work units that each run
as lockstep batches.  Each test holds a batched cell against the same
cell run alone, record for record.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.dynamics import FailLink, RestoreLink, Timeline
from repro.fluid import ADAPTER_FAMILIES, FluidBatch, FluidEngine
from repro.fluid.adapters import RttAdapter
from repro.obs import Telemetry
from repro.runner import (
    CcChoice, RunCache, ScenarioSpec, SweepRunner, execute_spec,
)
from repro.runner.execute import execute_batch, shares_batch
from repro.sim.flow import FlowSpec
from repro.sim.units import US
from repro.topology import parking_lot, star


def payload(record) -> str:
    """A record as its cache file holds it, minus the wall time."""
    data = record.to_json()
    data.pop("wall_time_s")
    return json.dumps(data, sort_keys=True)


def count_ticks(monkeypatch) -> list[int]:
    """Record the number of cells each ``FluidBatch._advance`` steps."""
    ticks = []
    advance = FluidBatch._advance

    def counted(self, stepping):
        ticks.append(len(stepping))
        advance(self, stepping)

    monkeypatch.setattr(FluidBatch, "_advance", counted)
    return ticks


def in_order(specs, telemetry=False) -> list:
    """:func:`execute_batch`'s outcomes, in spec order."""
    out = dict(execute_batch(specs, telemetry))
    return [out[i] for i in range(len(specs))]


def load_spec(scheme: str, topology: str = "star", **updates) -> ScenarioSpec:
    params = {
        "star": {"n_hosts": 6, "host_rate": "10Gbps"},
        "parking_lot": {"n_segments": 8, "host_rate": "10Gbps"},
    }[topology]
    spec = ScenarioSpec(
        program="load",
        backend="fluid",
        topology=topology,
        topology_params=params,
        cc=CcChoice(scheme),
        workload={
            "cdf": "fbhadoop", "size_scale": 0.1, "load": 0.5, "n_flows": 40,
            "incast": {"fan_in": 4, "flow_size": 30_000, "load": 0.05},
        },
        config={"base_rtt": 9 * US},
        seed=3,
        label=f"{scheme}-{topology}",
    )
    return spec.replaced(**updates) if updates else spec


#: A dynamics cell: a trunk cut and restore with reconvergence, and one
#: flow that starts after the deadline (its window is the install one).
FAILOVER = ScenarioSpec(
    program="flows",
    backend="fluid",
    topology="dual_trunk",
    topology_params={"n_pairs": 2},
    cc=CcChoice("hpcc"),
    workload={
        "flows": [[0, 2, 400_000, 0.0, "a"], [1, 3, 400_000, 5_000.0, "b"],
                  [0, 3, 50_000, 3e6, "late"]],
        "deadline": 2e6,
    },
    dynamics=Timeline(
        [FailLink(at=60 * US, a=4, b=5), RestoreLink(at=160 * US, a=4, b=5)],
        detection_delay=10 * US,
    ),
    measure={"sample_interval": 10 * US, "windows": True},
    config={"base_rtt": 9 * US, "goodput_bin": 20 * US},
    label="failover",
)


def mixed_specs() -> list[ScenarioSpec]:
    """Every fluid scheme (INT tx and rx registers, ECN and non-ECN),
    three topologies — parking lots with paths longer than the hop
    matrix's eight columns — several T, queue sampling, goodput bins,
    decision taps, dynamics."""
    specs = []
    for i, scheme in enumerate(sorted(ADAPTER_FAMILIES)):
        updates = {}
        if i % 3 == 0:
            updates["measure"] = {"sample_interval": 5 * US}
        if i % 3 == 1:
            updates["config"] = {"base_rtt": 9 * US, "goodput_bin": 10 * US}
        if scheme in ("hpcc", "hpcc-rxrate", "dcqcn", "timely"):
            updates["measure"] = {"decisions": True, "windows": True}
        specs.append(load_spec(scheme, **updates))
    # Longer chains with their own T: every path sums its queueing
    # delay at its own cell's hop-matrix width (8, 11 and 16+ wide).
    for scheme, segments, base_rtt in (("hpcc", 8, 13 * US),
                                       ("timely", 10, 9 * US),
                                       ("dctcp", 24, 20 * US)):
        specs.append(load_spec(scheme, "parking_lot", **{
            "config": {"base_rtt": base_rtt}, "workload.load": 0.9,
            "topology_params": {"n_segments": segments,
                                "host_rate": "10Gbps"}}))
    specs.append(FAILOVER)
    return specs


class TestBatchEqualsSolo:
    def test_mixed_batch(self, monkeypatch):
        specs = mixed_specs()
        solo = [execute_spec(spec) for spec in specs]
        ticks = count_ticks(monkeypatch)
        batched = in_order(specs)
        for spec, alone, together in zip(specs, solo, batched):
            assert payload(together) == payload(alone), spec.label
        # Lockstep: one tick steps many cells, and every cell's own
        # step count (events_processed) is unchanged.
        assert sum(ticks) == sum(r.events_processed for r in solo)
        assert len(ticks) < sum(ticks) / 4
        assert "decisions" in batched[0].extras

    def test_wall_times_split_the_batch(self):
        """Each record's own setup and collect plus its share of the
        run: positive, and together no more than the batch took."""
        specs = [load_spec("hpcc"), load_spec("dcqcn"), FAILOVER]
        started = time.perf_counter()
        records = in_order(specs)
        elapsed = time.perf_counter() - started
        assert all(r.ok and r.wall_time_s > 0 for r in records)
        assert sum(r.wall_time_s for r in records) <= elapsed

    def test_telemetry_streams_stay_per_cell(self):
        specs = [load_spec("hpcc"), load_spec("dctcp")]
        solo = [execute_spec(spec, telemetry=True) for spec in specs]
        batched = in_order(specs, telemetry=True)

        def shape(record):
            spans = [t["name"] for t in record.telemetry
                     if t["kind"] == "span"]
            counts = {t["name"]: t["value"] for t in record.telemetry
                      if t["kind"] == "counter"}
            return spans, counts

        for alone, together in zip(solo, batched):
            assert {t["run_id"] for t in together.telemetry} \
                == {together.spec.spec_hash}
            assert shape(together) == shape(alone)
            assert shape(together)[0] == ["setup", "run", "collect", "total"]
            assert shape(together)[1]["fluid.steps"] \
                == together.events_processed


class TestFailureIsolation:
    def bad_spec(self) -> ScenarioSpec:
        # Hosts 0 and 1 of a star share no link: the cut raises from
        # inside the run, a quarter of a millisecond in.
        return load_spec("dcqcn", dynamics=Timeline(
            [FailLink(at=250 * US, a=0, b=1)]), label="bad")

    def test_cell_raising_mid_batch_lands_as_its_own_error(self, monkeypatch):
        good = [load_spec("hpcc"), load_spec("timely"), FAILOVER]
        specs = [good[0], self.bad_spec(), *good[1:]]
        ticks = count_ticks(monkeypatch)
        records = SweepRunner(jobs=1).run(specs)
        full = len(ticks)
        assert records[1].status == "error"
        assert records[1].error["type"] == "LookupError"
        assert "no link between 0 and 1" in records[1].error["message"]
        others = [r for r in records if r is not records[1]]
        for spec, record in zip(good, others):
            assert payload(record) == payload(execute_spec(spec))
        # Under "raise" the failure lands, and raises, when the cell
        # leaves: the batch stops there.
        del ticks[:]
        with pytest.raises(LookupError, match="no link between"):
            SweepRunner(jobs=1, failures="raise").run(specs)
        assert 0 < len(ticks) < full

    def test_adapter_raising_mid_fire(self, monkeypatch):
        """An exception from inside the batched fire takes only its own
        cell out; the others step on to their solo records."""
        def engine(scheme):
            e = FluidEngine(star(n_hosts=4, host_rate="10Gbps"), scheme,
                            base_rtt=9 * US)
            e.add_flows([FlowSpec(i, i % 3, 3, 200_000, i * 2_000.0)
                         for i in range(1, 7)])
            return e

        def outcome(e, completed):
            return [(r.spec.flow_id, r.finish) for r in e.fct_records], \
                e.steps, e.now, completed

        alone = {}
        for scheme in ("hpcc", "dcqcn"):
            e = engine(scheme)
            alone[scheme] = outcome(e, e.run(5e6))
        update = RttAdapter.update
        calls = []

        def flaky(self, proxy, sig):
            calls.append(sig.now)
            if len(calls) == 5:
                raise RuntimeError("adapter fault")
            update(self, proxy, sig)

        monkeypatch.setattr(RttAdapter, "update", flaky)
        cells = [engine("hpcc"), engine("timely"), engine("dcqcn")]
        results = dict(FluidBatch(cells).run([5e6] * 3))
        assert isinstance(results[1], RuntimeError)
        assert outcome(cells[0], results[0]) == alone["hpcc"]
        assert outcome(cells[2], results[2]) == alone["dcqcn"]
        with pytest.raises(RuntimeError, match="multi-cell"):
            cells[0].run(2e6)


class TestRunner:
    def specs(self) -> list[ScenarioSpec]:
        return [load_spec("hpcc"), load_spec("dcqcn+win"),
                load_spec("timely", "parking_lot"), FAILOVER]

    def test_serial_batch_equals_pool(self, tmp_path):
        specs = self.specs()
        SweepRunner(jobs=1, cache=RunCache(tmp_path / "serial")).run(specs)
        SweepRunner(jobs=2, cache=RunCache(tmp_path / "pool")).run(specs)

        def files(root):
            out = {}
            for path in sorted(root.glob("*.json")):
                data = json.loads(path.read_text())
                data.pop("wall_time_s")
                out[path.name] = data
            return out

        serial = files(tmp_path / "serial")
        assert len(serial) == len(specs)
        assert serial == files(tmp_path / "pool")

    def test_cells_at_the_cap_are_units_of_one(self, monkeypatch):
        """Only cells that can share a batch are dealt into units: one
        whose footprint, as its spec tells it, reaches the cap would run
        alone in any batch, so it is a unit of its own."""
        from repro.experiments import figure11

        large, bench = (figure11.scenarios(scale)[0].replaced(backend="fluid")
                        for scale in ("large", "bench"))
        assert not shares_batch(large) and shares_batch(bench)
        # Estimated footprints: 52 per star, 90 parking lot, 13 failover.
        monkeypatch.setattr(FluidBatch, "CAP", 60)
        specs = self.specs()
        label = {spec.spec_hash: spec.label for spec in specs}
        units = SweepRunner(jobs=2)._units(
            {spec.spec_hash: spec for spec in specs})
        assert [[label[key] for key in unit] for unit in units] == [
            ["hpcc-star", "failover"], ["dcqcn+win-star"],
            ["timely-parking_lot"]]

    def test_pool_units_step_as_batches(self, tmp_path, monkeypatch):
        """``jobs=2`` deals the batchable cells into two units, and each
        worker steps its unit as one lockstep batch: same records as the
        serial sweep's single batch."""
        log = tmp_path / "batches.log"
        init = FluidBatch.__init__

        def spy(self, cells):          # runs in the forked workers
            with log.open("a") as handle:
                handle.write(f"{os.getpid()} {len(cells)}\n")
            init(self, cells)

        monkeypatch.setattr(FluidBatch, "__init__", spy)
        specs = self.specs()
        serial = SweepRunner(jobs=1).run(specs)
        log.unlink()
        pooled = SweepRunner(jobs=2).run(specs)
        batches = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(size) for _, size in batches) == [2, 2]
        assert os.getpid() not in {int(pid) for pid, _ in batches}
        assert [payload(r) for r in pooled] == [payload(r) for r in serial]

    def test_cells_land_as_they_finish(self, tmp_path, monkeypatch):
        """Each batched cell is cached, journalled and reported when it
        leaves the batch: a sweep interrupted at the first lands re-runs
        with that cell served from the cache."""
        specs = self.specs()
        solo = [payload(execute_spec(spec)) for spec in specs]
        ticks = count_ticks(monkeypatch)
        in_order(specs)
        full = len(ticks)
        del ticks[:]
        cache = RunCache(tmp_path / "cache")
        journal = tmp_path / "journal.jsonl"
        landed = []

        def interrupt(record, done, total):
            lines = [json.loads(line)
                     for line in journal.read_text().splitlines()]
            assert lines[-1]["spec_hash"] == record.spec_hash
            assert cache.get(record.spec) is not None
            landed.append((record.spec_hash, len(ticks)))
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(jobs=1, cache=cache, journal=journal,
                        progress=interrupt).run(specs)
        [(first, at)] = landed
        assert 0 < at < full            # the batch had not finished
        records = SweepRunner(jobs=1, cache=cache, journal=journal).run(specs)
        assert [r.cached for r in records] \
            == [spec.spec_hash == first for spec in specs]
        assert [payload(r) for r in records] == solo

    def test_batches_close_at_the_cap(self, monkeypatch):
        """Cells join the open batch until its footprint reaches the
        cap; a cell that reaches it alone runs alone."""
        sizes = []
        init = FluidBatch.__init__

        def spy(self, cells):
            sizes.append(len(cells))
            init(self, cells)

        monkeypatch.setattr(FluidBatch, "__init__", spy)
        star_a, star_b, chain, failover = self.specs()
        specs = [star_a, chain, star_b, failover]
        solo = [payload(execute_spec(spec)) for spec in specs]
        for cap, expect in ((FluidBatch.CAP, [4]),
                            # 54 + 54 links and flows reach it; 79 alone
                            (79, [1, 2, 1]),
                            (1, [1, 1, 1, 1])):
            monkeypatch.setattr(FluidBatch, "CAP", cap)
            del sizes[:]
            assert [payload(r) for r in in_order(specs)] == solo
            assert sizes == expect, cap

    def test_serial_sweeps_batch_and_hooks_do_not(self, monkeypatch):
        import repro.runner.sweep as sweep

        batches = []
        real = sweep.execute_batch

        def spy(specs, telemetry=False):
            batches.append(len(specs))
            return real(specs, telemetry)

        monkeypatch.setattr(sweep, "execute_batch", spy)
        specs = self.specs() + [load_spec("hpcc").replaced(backend="packet")]
        SweepRunner(jobs=1).run(specs)
        SweepRunner(jobs=1, telemetry=Telemetry(run_id="sweep")).run(specs)
        assert batches == [4, 4]
        seen = []
        SweepRunner(jobs=1, execute=lambda spec, tel: (
            seen.append(spec.label), execute_spec(spec, tel))[1]).run(specs)
        assert batches == [4, 4] and len(seen) == len(specs)


class TestHopMatrixWidth:
    def test_long_paths_sum_at_their_cells_width(self):
        """Queueing delay is summed pairwise, so the hop-matrix width is
        arithmetic: a batch widened to 25 columns by one cell's paths
        still sums the other cell's 11-hop paths 11 wide, as alone."""
        cells = []
        for segments in (10, 24):
            engine = FluidEngine(parking_lot(segments, host_rate="10Gbps"),
                                 "dctcp", base_rtt=9 * US)
            engine.add_flow(FlowSpec(1, 2 * segments, 2 * segments + 1,
                                     10**6, 0.0))
            cells.append(engine)
        batch = FluidBatch(cells)
        for engine in cells:
            engine._next_dt(1e6)            # admits the flow, no step
        assert batch._H == 25 and [c._H for c in cells] == [11, 25]
        n = batch._n
        qdiv = np.append(np.random.default_rng(1).random(batch._dummy), 0.0)
        got = batch._path_qdelay(qdiv, np.arange(n))
        hops = batch._hopm[:n]
        for row, k in enumerate(batch._cell[:n].tolist()):
            assert got[row] == qdiv[hops[row, :cells[k]._H]].sum()
        assert got[0] != qdiv[hops[0]].sum()    # 25 wide would move it


class TestEngineSurface:
    def test_final_windows_of_a_flow_never_admitted(self):
        for scheme, window in (("hpcc", 1.25 * 9 * US), ("dcqcn", None)):
            engine = FluidEngine(star(n_hosts=3, host_rate="10Gbps"), scheme,
                                 base_rtt=9 * US)
            engine.add_flows([FlowSpec(1, 0, 2, 100_000, 0.0),
                              FlowSpec(2, 1, 2, 100_000, 5e6)])
            assert engine.run(deadline=1e6) is False
            windows = engine.final_windows()
            assert list(windows) == ["1", "2"]
            assert windows["2"] == window
            assert engine._starts[1].proxy is None     # never built

    def test_flows_share_one_env_per_line_rate(self):
        engine = FluidEngine(star(n_hosts=4, host_rate="10Gbps"), "hpcc",
                             base_rtt=9 * US)
        engine.add_flows([FlowSpec(i, i, 3, 1_000_000, 0.0)
                          for i in range(3)])
        engine.run(deadline=20 * US)
        envs = {id(f.adapter.env) for f in engine._batch._flows}
        assert len(envs) == 1 and len(engine._envs) == 1
