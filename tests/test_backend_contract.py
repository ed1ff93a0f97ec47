"""The backend contract: one ``load``/``flows`` program, three backends.

* **whole-record digests** — ``events_processed``, FCT rows, queue
  series, extras, duration and the completed flag, hashed together.
  The pinned values were captured on the commit *before* the three
  program copies were folded into one, so they hold the refactor to
  bit-identical records — including mixed-mode hybrid, which the rest
  of the suite holds only to tolerances.
* **dispatch** — every backend's ``load`` and ``flows`` go through the
  one setup.
* **composition** — a degenerate hybrid partition builds exactly the
  one half it needs.
* **record shape** — the extras keys the docs promise on every backend.
* **rejections** — a malformed spec is refused with an error that names
  the offending field, the rejected value and the accepted ones.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.fluid.programs as fluid_programs
import repro.runner.harness as harness
from repro.dynamics import FailLink, InjectBurst, RestoreLink, Timeline
from repro.runner import (
    BACKENDS,
    ScenarioSpec,
    SweepRunner,
    execute_spec,
    validate_specs,
)
from repro.runner.execute import backend_class
from repro.sim.units import US

LOAD = ScenarioSpec(
    program="load",
    topology="star",
    topology_params={"n_hosts": 6, "host_rate": "10Gbps"},
    workload={
        "cdf": "fbhadoop", "size_scale": 0.1, "load": 0.3, "n_flows": 30,
        "incast": {"fan_in": 3, "flow_size": 20_000, "load": 0.02},
    },
    dynamics=Timeline([
        InjectBurst(at=40 * US, dst=2, fan_in=3, flow_size=15_000,
                    tag="burst"),
    ]),
    measure={"sample_interval": 10 * US},
    config={"base_rtt": 9 * US},
    seed=2,
)

FLOWS = ScenarioSpec(
    program="flows",
    topology="dual_trunk",
    topology_params={"n_pairs": 2},
    workload={
        "flows": [[0, 2, 400_000, 0.0, "a"], [1, 3, 400_000, 5_000.0, "b"]],
        "deadline": 2e6,
    },
    dynamics=Timeline(
        [FailLink(at=60 * US, a=4, b=5), RestoreLink(at=160 * US, a=4, b=5)],
        detection_delay=10 * US,
    ),
    measure={
        "sample_interval": 10 * US,
        "sample_ports": [["trunk", "between", 4, 5], ["rx", "to_host", 2]],
        "windows": True,
    },
    config={"base_rtt": 9 * US, "goodput_bin": 20 * US, "rto": 500 * US},
)

#: variant name -> (backend, foreground selector)
VARIANTS = {
    "packet": ("packet", None),
    "fluid": ("fluid", None),
    "hybrid_mixed": ("hybrid", {"kind": "frac", "x": 0.5}),
    "hybrid_all": ("hybrid", {"kind": "all"}),
    "hybrid_none": ("hybrid", {"kind": "none"}),
}

#: Captured on the parent of the backend-contract refactor (97002d7).
#: The three fluid-half ``flows`` digests were re-captured when both
#: engines came to price a path alike: fluid had priced the dual trunk
#: at its pooled 100 Gbps, and each fluid flow's ``ideal`` rose by
#: 92 ns (146 348 -> 146 440 ns) to the packet value; nothing else in
#: those records moved.  The fluid and all-background ``flows`` digests
#: were re-captured again when fluid came to sample the declared probes:
#: diffed field by field, only ``queues`` moved, its six ``sw{a}->{b}``
#: series replaced by ``trunk`` and ``rx``, each equal to the parent's
#: ``sw4->5`` and ``sw5->2`` series.  All six fluid-half digests were
#: re-captured when a fluid arrival came to join the step it falls in
#: at its offset instead of cutting that step short: the fluid side's
#: finish times, goodput bins, queue samples, step counts and end time
#: moved.
PINNED = {
    ("load", "packet"):
        "84c9973af37b9d01f232c5d2e2b00c60ae102dc35a44c7d0cbbdad3c0520031d",
    ("load", "fluid"):
        "20845670978ba1ec7a24ffe9d45786ed83393885ce70c9899d6437571cc0eba7",
    ("load", "hybrid_mixed"):
        "963ec98fcf5b1ae6b3cc101c17290dcd7eefc3416205e561526bb17e5b136a2f",
    ("load", "hybrid_all"):
        "71e4d8ca266129a681785e347eed5dc5358aa22b211b1b63187eaafca707520e",
    ("load", "hybrid_none"):
        "d3719deb857a384be592128212ab88562db67c79c8c61a35ba98c0df7bee83ed",
    ("flows", "packet"):
        "8135142a0439bb0dfbafeb0ef8092244c718f38efb637f2b44c9e166374b5d66",
    ("flows", "fluid"):
        "50aa90983f9713e2493bf39fb4c1a2a1d60597d251c7d394a7f3e8ede2c53929",
    ("flows", "hybrid_mixed"):
        "72a1b907eca68cf9a5b81a9b7beb71dd9d8a5c3a3de3955daa62d3405c1c5182",
    ("flows", "hybrid_all"):
        "e8811cbc0d670e16e707bf999a78f284843c19070b74a1b150a98195e8b91c29",
    ("flows", "hybrid_none"):
        "3109156d404b12af6d4fbe0f79989b498045372b3367bd710f7527062ef4c048",
}


def variant(spec: ScenarioSpec, name: str) -> ScenarioSpec:
    backend, selector = VARIANTS[name]
    updates: dict = {"backend": backend}
    if selector is not None:
        updates["workload.foreground"] = selector
    return spec.replaced(**updates)


def record_digest(record) -> str:
    payload = json.dumps(
        [record.events_processed, record.fct, record.queues, record.extras,
         record.duration_ns, record.completed],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestWholeRecordDigests:
    @pytest.mark.parametrize("program,name", sorted(PINNED))
    def test_record_is_bit_identical_to_the_pinned_parent(self, program, name):
        spec = variant(LOAD if program == "load" else FLOWS, name)
        record = execute_spec(spec)
        assert record.fct, "the cell must finish some flows to pin anything"
        assert record_digest(record) == PINNED[program, name]


class TestDispatch:
    def test_one_program_serves_load_and_flows(self, monkeypatch):
        import repro.runner.execute as execute

        seen = []
        setup = execute._setup_network

        def spy(spec):
            seen.append((spec.program, spec.backend))
            return setup(spec)

        monkeypatch.setattr(execute, "_setup_network", spy)
        for spec in (LOAD, FLOWS):
            for backend in BACKENDS:
                execute_spec(spec.replaced(backend=backend))
        assert seen == [(spec.program, backend) for spec in (LOAD, FLOWS)
                        for backend in BACKENDS]

    def test_every_backend_resolves_to_a_contract_class(self):
        classes = {backend_class(name) for name in BACKENDS}
        assert len(classes) == len(BACKENDS)
        for cls in classes:
            for method in ("admit", "run", "record", "windows"):
                assert callable(getattr(cls, method))


class TestDegenerateComposition:
    """A degenerate hybrid cell *is* the one pure backend it collapses to."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"Network": 0, "FluidEngine": 0}

        def counting(cls, key):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    counts[key] += 1
                    super().__init__(*args, **kwargs)
            return Counted

        monkeypatch.setattr(
            harness, "Network", counting(harness.Network, "Network"))
        monkeypatch.setattr(
            fluid_programs, "FluidEngine",
            counting(fluid_programs.FluidEngine, "FluidEngine"))
        return counts

    def test_all_foreground_builds_one_network_and_no_engine(self, built):
        record = execute_spec(variant(LOAD, "hybrid_all"))
        assert record.extras["hybrid_mode"] == "all_foreground"
        assert built == {"Network": 1, "FluidEngine": 0}

    def test_all_background_builds_one_engine_and_no_network(self, built):
        record = execute_spec(variant(LOAD, "hybrid_none"))
        assert record.extras["hybrid_mode"] == "all_background"
        assert built == {"Network": 0, "FluidEngine": 1}

    def test_mixed_builds_one_of_each(self, built):
        record = execute_spec(variant(LOAD, "hybrid_mixed"))
        assert record.extras["hybrid_mode"] == "mixed"
        assert built == {"Network": 1, "FluidEngine": 1}


class TestCommonRecordShape:
    COMMON = {"n_hosts", "header_bytes", "drops", "pause_count",
              "pause_total_ns", "switch_queued_bytes"}

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_common_extras_on_every_backend(self, name):
        record = execute_spec(variant(FLOWS, name))
        assert self.COMMON <= set(record.extras)
        assert set(record.extras["flow_ids"]) == {"a", "b"}
        assert set(record.extras["final_windows"]) == {"1", "2"}


class TestDeclaredProbes:
    """Every backend samples the queues a spec declares, under the
    declared labels: one ``queues`` key set per spec."""

    @staticmethod
    def probed_cells() -> list[ScenarioSpec]:
        """The bench grids of every figure with refdata: the cells that
        declare ``measure.sample_ports``."""
        from repro.experiments import EXPERIMENTS
        from repro.report import available_refdata

        return [
            spec
            for key in available_refdata() if key in EXPERIMENTS
            for spec in EXPERIMENTS[key][1].scenarios(scale="bench")
            if "sample_ports" in spec.measure
        ]

    def test_packet_and_fluid_records_carry_the_declared_labels(self):
        import repro.runner.execute as execute

        cells = self.probed_cells()
        assert len(cells) >= 10, "fig6, fig9, fig13, fig14, appendix"
        for spec in cells:
            declared = [entry[0] for entry in spec.measure["sample_ports"]]
            for backend in ("packet", "fluid"):
                # The labels are fixed at setup: collect without running.
                job = execute._setup_network(spec.replaced(backend=backend))
                queues = job.backend.record(False).queues
                assert list(queues) == declared, (spec.label, backend)


class TestDiagnosableRejections:
    #: name -> (malformed spec, fragments the error message must carry)
    MALFORMED = {
        "sample_port": (
            FLOWS.replaced(**{"measure.sample_ports": [["b", "to_host", 77]]}),
            ("measure.sample_ports", "77", "hosts 0..3"),
        ),
        "cdf": (
            LOAD.replaced(**{"workload.cdf": "nope"}),
            ("workload.cdf", "'nope'", "fbhadoop, websearch"),
        ),
        "events": (
            FLOWS.replaced(**{"workload.events": [
                ["fail_link", 60_000.0, 4, 5], ["restore_link", 160_000.0, 4, 5],
            ]}),
            ('workload["events"]',
             'dynamics={"events": ['
             '{"type": "fail_link", "at": 60000.0, "a": 4, "b": 5}, '
             '{"type": "restore_link", "at": 160000.0, "a": 4, "b": 5}]}'),
        ),
        "deadline": (
            FLOWS.replaced(workload={"flows": FLOWS.workload["flows"]}),
            ("workload.deadline", "flows"),
        ),
    }

    @pytest.mark.parametrize("name,backend", [
        (name, backend) for name in sorted(MALFORMED)
        for backend in (sorted(VARIANTS) if name == "sample_port"
                        else ["packet"])
    ])
    def test_error_names_field_value_and_known_values(self, name, backend):
        spec, fragments = self.MALFORMED[name]
        with pytest.raises(ValueError) as err:
            execute_spec(variant(spec, backend))
        for fragment in fragments:
            assert fragment in str(err.value)

    @pytest.mark.parametrize("name", ["sample_port", "deadline"])
    def test_quarantined_record_carries_the_message(self, name):
        spec, fragments = self.MALFORMED[name]
        [record] = SweepRunner(failures="quarantine").run([spec])
        assert record.status == "error"
        assert record.error["type"] == "ValueError"
        assert fragments[0] in record.error["message"]

    def test_unknown_cdf_is_rejected_before_any_worker_starts(self):
        spec, _ = self.MALFORMED["cdf"]
        with pytest.raises(ValueError, match=r"workload\.cdf 'nope'"):
            validate_specs([spec])

    def test_workload_events_raise_under_quarantine_too(self):
        """A retired link schedule is an input error, not a run fault:
        dropping it silently would run the scenario without its cut."""
        spec, fragments = self.MALFORMED["events"]
        with pytest.raises(ValueError) as err:
            SweepRunner(failures="quarantine").run([spec])
        assert fragments[1] in str(err.value)
