"""The backend divergence analyzer (``repro.obs.divergence``).

Unit tests on synthetic decision streams — step alignment, first
divergence, attribution agreement — an end-to-end check that
``compare_decisions`` digests real ``measure["decisions"]`` records
from both backends, the record columns' round trip against the tap's
own decision dicts, and byte goldens of the drilldown and ``trace
diff`` artifacts.
"""

import hashlib
import json
import math

import pytest

from repro.obs.divergence import (
    _step_value,
    by_flow,
    compare_decisions,
    decision_records,
    decision_rows,
    format_divergence,
    rate_trajectory,
)

#: sha256 of the artifacts, captured at ``5b2c680`` from the runs that
#: read the decision telemetry stream: the ``report --fastest`` build's
#: ``divergence.json`` and ``fig13_cc-divergence.svg``, and ``trace diff
#: --out`` on fig13's HPCC cell and on that cell under DCQCN (a scheme
#: whose decisions carry no ``bottleneck_hop``).
GOLDEN_SHA256 = {
    "divergence.json":
        "2f0fd09a729269b568d4f07b5574260f4375e3d2fc0b39d323162b93a41dc280",
    "fig13_cc-divergence.svg":
        "d3547fc595d5d7f1c8dca111d45efefd94e8c18398fe6a3e6945104d89839cdc",
    "trace-diff-hpcc.json":
        "71119c27ad6fe8aa7342d66d97efdcd21705f177902433f78352712caf9dd107",
    "trace-diff-dcqcn.json":
        "73db17aeebf6bcb02d27fc8cbf4fe4bf9cbfa5933565b960ad2817731a562365",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dec(flow, sim_ns, rate, hop=None, scheme="hpcc", event="ack"):
    """One synthetic decision record (only the fields the analyzer reads)."""
    inputs = {} if hop is None else {"bottleneck_hop": hop}
    return {"kind": "decision", "name": "cc.decision", "t": 0.0,
            "run_id": "r", "sim_ns": sim_ns, "flow": flow,
            "scheme": scheme, "event": event, "branch": "AI",
            "rate_before": rate, "rate_after": rate,
            "window_before": None, "window_after": None, "inputs": inputs}


class TestPrimitives:
    def test_decision_records_filters_kinds(self):
        stream = [{"kind": "gauge", "name": "g"}, dec(1, 0.0, 1.0),
                  {"kind": "span", "name": "s"}]
        assert decision_records(stream) == [stream[1]]

    def test_by_flow_groups_and_sorts(self):
        flows = by_flow([dec(2, 5.0, 1.0), dec(1, 9.0, 1.0),
                         dec(1, 3.0, 2.0)])
        assert sorted(flows) == [1, 2]
        assert [d["sim_ns"] for d in flows[1]] == [3.0, 9.0]

    def test_rate_trajectory_skips_unusable_rates(self):
        stream = [dec(1, 0.0, 2.0), dec(1, 5.0, None), dec(1, 9.0, "nan"),
                  dec(1, 12.0, 3.0)]
        assert rate_trajectory(stream) == ([0.0, 12.0], [2.0, 3.0])

    def test_step_value_holds_last_breakpoint(self):
        times, values = [10.0, 20.0, 30.0], [1.0, 2.0, 3.0]
        assert _step_value(times, values, 5.0) == 1.0    # before first
        assert _step_value(times, values, 10.0) == 1.0   # at breakpoint
        assert _step_value(times, values, 25.0) == 2.0   # between
        assert _step_value(times, values, 99.0) == 3.0   # past last


class TestCompareDecisions:
    def test_identical_streams_never_diverge(self):
        stream = [dec(1, 0.0, 10.0, hop=1), dec(1, 100.0, 8.0, hop=1)]
        div = compare_decisions(list(stream), list(stream))
        entry = div["flows"]["1"]
        assert entry["time_weighted_rate_error"] == 0.0
        assert entry["first_divergence_ns"] is None
        assert entry["attribution"] == {"compared": 2, "agree": 2,
                                        "mismatch": 0}
        s = div["summary"]
        assert s["flows_compared"] == 1 and s["flows_diverged"] == 0
        assert s["first_divergence_ns"] is None
        assert s["attribution_agreement"] == 1.0
        assert div["scheme"] == "hpcc"

    def test_constant_gap_diverges_at_overlap_start(self):
        packet = [dec(1, 0.0, 10.0), dec(1, 100.0, 10.0)]
        fluid = [dec(1, 0.0, 5.0), dec(1, 100.0, 5.0)]
        div = compare_decisions(packet, fluid, threshold=0.25)
        entry = div["flows"]["1"]
        # |10-5| / max(10,5) = 0.5 everywhere.
        assert math.isclose(entry["time_weighted_rate_error"], 0.5)
        assert entry["first_divergence_ns"] == 0.0
        assert div["summary"]["flows_diverged"] == 1

    def test_threshold_gates_first_divergence(self):
        packet = [dec(1, 0.0, 10.0), dec(1, 100.0, 10.0)]
        fluid = [dec(1, 0.0, 9.0), dec(1, 100.0, 9.0)]   # 10% gap
        div = compare_decisions(packet, fluid, threshold=0.25)
        entry = div["flows"]["1"]
        assert entry["first_divergence_ns"] is None      # below threshold
        assert math.isclose(entry["time_weighted_rate_error"], 0.1)

    def test_late_divergence_timed_to_the_causing_decision(self):
        packet = [dec(1, 0.0, 10.0), dec(1, 50.0, 10.0),
                  dec(1, 100.0, 10.0)]
        fluid = [dec(1, 0.0, 10.0), dec(1, 60.0, 4.0),
                 dec(1, 100.0, 4.0)]
        div = compare_decisions(packet, fluid, threshold=0.25)
        assert div["flows"]["1"]["first_divergence_ns"] == 60.0

    def test_flow_missing_on_one_backend_reported_not_fatal(self):
        div = compare_decisions([dec(1, 0.0, 10.0)], [])
        entry = div["flows"]["1"]
        assert entry["packet_decisions"] == 1
        assert entry["fluid_decisions"] == 0
        assert entry["time_weighted_rate_error"] is None
        assert entry["first_divergence_ns"] is None
        assert div["summary"]["mean_rate_error"] is None

    def test_attribution_mismatch_counted(self):
        packet = [dec(1, 0.0, 10.0, hop=1), dec(1, 50.0, 10.0, hop=2)]
        fluid = [dec(1, 0.0, 10.0, hop=1), dec(1, 40.0, 10.0, hop=3)]
        div = compare_decisions(packet, fluid)
        assert div["flows"]["1"]["attribution"] == {
            "compared": 2, "agree": 1, "mismatch": 1}
        assert div["summary"]["attribution_agreement"] == 0.5

    def test_no_attribution_inputs_yields_none(self):
        div = compare_decisions([dec(1, 0.0, 10.0)], [dec(1, 0.0, 10.0)])
        assert div["flows"]["1"]["attribution"] is None
        assert div["summary"]["attribution_agreement"] is None

    def test_mixed_schemes_joined_in_header(self):
        div = compare_decisions([dec(1, 0.0, 1.0, scheme="hpcc")],
                                [dec(1, 0.0, 1.0, scheme="dcqcn")])
        assert div["scheme"] == "dcqcn,hpcc"


class TestFormatDivergence:
    def test_renders_summary_and_per_flow_rows(self):
        packet = [dec(1, 0.0, 10.0, hop=1), dec(2, 0.0, 10.0)]
        fluid = [dec(1, 0.0, 5.0, hop=1), dec(2, 0.0, 10.0)]
        text = format_divergence(compare_decisions(packet, fluid))
        assert "decision-trace diff (hpcc" in text
        assert "flows compared: 2, diverged: 1" in text
        assert "time-weighted rate error" in text
        assert "first divergence: 0.00us" in text
        assert "bottleneck attribution: 100.0%" in text

    def test_renders_gracefully_with_no_overlap(self):
        text = format_divergence(compare_decisions([dec(1, 0.0, 1.0)], []))
        assert "diverged: 0" in text
        assert "never" in text and "n/a" in text


class TestEndToEnd:
    def test_real_backend_streams_compare(self):
        from repro.runner import ScenarioSpec
        from repro.runner.execute import execute_spec
        from repro.sim.units import US

        spec = ScenarioSpec(
            program="flows",
            topology="star",
            topology_params={"n_hosts": 3, "host_rate": "10Gbps"},
            workload={"flows": [[0, 2, 40_000], [1, 2, 40_000]],
                      "deadline": 5e6},
            config={"base_rtt": 9 * US},
            seed=1,
            label="div-e2e",
        )
        streams = {
            backend: decision_rows(execute_spec(spec.replaced(
                backend=backend, **{"measure.decisions": True},
            )).extras["decisions"])
            for backend in ("packet", "fluid")
        }
        div = compare_decisions(streams["packet"], streams["fluid"])
        s = div["summary"]
        assert s["flows_compared"] == 2
        assert s["mean_rate_error"] is not None
        assert s["attribution_compared"] > 0
        for entry in div["flows"].values():
            assert entry["packet_decisions"] > 0
            assert entry["fluid_decisions"] > 0
        assert "decision-trace diff" in format_divergence(div)


# -- the record's decision columns --------------------------------------------------

def analyzer_view(rows: list[dict]) -> list[tuple]:
    """Decision rows reduced to what ``compare_decisions`` reads, as it
    reads them: a non-finite rate is no rate, a missing hop is -1."""
    view = []
    for row in rows:
        rate = row["rate_after"]
        view.append((
            int(row["flow"]), row["scheme"], float(row["sim_ns"]),
            rate if rate is not None and math.isfinite(rate) else None,
            int(row["inputs"].get("bottleneck_hop", -1)),
        ))
    return view


def tapped_run(backend: str, scheme: str, maxlen: int):
    """A 3-to-1 incast with a small-ring tap riding the ambient
    telemetry, exactly where ``execute_spec`` puts its own."""
    from repro.obs import DecisionTap, Telemetry, using
    from repro.runner import CcChoice, ScenarioSpec, execute_spec
    from repro.sim.units import US

    spec = ScenarioSpec(
        program="flows",
        topology="star",
        topology_params={"n_hosts": 4, "host_rate": "100Gbps"},
        workload={"flows": [[0, 3, 400_000], [1, 3, 300_000, 2_000.0],
                            [2, 3, 200_000, 4_000.0]],
                  "deadline": 2e6},
        config={"base_rtt": 9 * US},
        cc=CcChoice(scheme, params={"kmin": 40_000, "kmax": 160_000}
                    if scheme == "dcqcn" else {}),
        backend=backend,
    )
    tel = Telemetry(run_id="columns")
    tel.decisions = DecisionTap(maxlen=maxlen)
    with using(tel):
        execute_spec(spec)
    return tel.decisions


class TestDecisionColumns:
    # Rings small enough that at least one flow per run overflowed
    # (fluid DCQCN decides four times per flow here, packet HPCC per ACK).
    @pytest.mark.parametrize("backend,scheme,maxlen", [
        ("packet", "hpcc", 16), ("fluid", "hpcc", 16),
        ("packet", "dcqcn", 6), ("fluid", "dcqcn", 3),
    ])
    def test_rows_round_trip_the_tap(self, backend, scheme, maxlen):
        tap = tapped_run(backend, scheme, maxlen)
        assert any(trace.dropped for trace in tap.traces.values())
        expected = analyzer_view(tap.decisions())
        assert expected
        columns = tap.columns()
        assert analyzer_view(decision_rows(columns)) == expected
        # A cached record reads the columns back from sorted-key JSON.
        cached = json.loads(json.dumps(columns, sort_keys=True))
        assert decision_rows(cached) == decision_rows(columns)

    def test_absent_values_are_minus_one(self):
        from repro.obs import DecisionTap

        tap = DecisionTap()
        trace = tap.trace(3, "hpcc")
        trace.record(1.0, "ack", "AI", 1.0, None, None, None, {})
        trace.record(2.0, "ack", "AI", 1.0, None, math.inf, None,
                     {"bottleneck_hop": 0})
        trace.record(3.0, "ack", "MI", 1.0, None, 0.5, None,
                     {"bottleneck_hop": 2})
        assert tap.columns() == {"3": {
            "scheme": "hpcc", "sim_ns": [1.0, 2.0, 3.0],
            "rate_after": [-1, -1, 0.5], "bottleneck_hop": [-1, 0, 2],
        }}
        assert analyzer_view(decision_rows(tap.columns())) \
            == analyzer_view(tap.decisions())


# -- byte goldens -------------------------------------------------------------------

class TestGoldens:
    """``trace diff``'s two; ``tests/test_report_cli.py`` checks the
    ``--fastest`` build's files against the other two."""

    def test_trace_diff_out(self, tmp_path):
        from repro.cli import main
        from repro.experiments import figure13
        from repro.runner import CcChoice

        hpcc = tmp_path / "hpcc.json"
        assert main(["trace", "diff", "fig13", "--scenario", "HPCC",
                     "--out", str(hpcc)]) == 0
        assert sha256(hpcc.read_bytes()) \
            == GOLDEN_SHA256["trace-diff-hpcc.json"]

        spec = next(s for s in figure13.scenarios() if s.label == "HPCC")
        spec = spec.replaced(cc=CcChoice("dcqcn", label="DCQCN"),
                             label="DCQCN")
        spec_path = tmp_path / "dcqcn-spec.json"
        spec_path.write_text(json.dumps(spec.to_json()))
        dcqcn = tmp_path / "dcqcn.json"
        assert main(["trace", "diff", str(spec_path),
                     "--out", str(dcqcn)]) == 0
        assert sha256(dcqcn.read_bytes()) \
            == GOLDEN_SHA256["trace-diff-dcqcn.json"]
