"""Run-telemetry subsystem: probes, spans, sinks, and the flight recorder.

The reproduction's own observability layer — "measure precisely, then
act" applied to the simulator instead of the network.  One import
surface for everything instrumented code needs:

* :class:`Telemetry` — the per-run/per-sweep registry (counters,
  gauges, histograms, spans, events) with the ambient-context helpers
  :func:`current` / :func:`using` / :func:`maybe_span`.
* :class:`JsonlSink` / :class:`MemorySink` /
  :class:`~repro.obs.sinks.FlightRecorder` — where records go.
* :func:`instrument_simulator` / :func:`instrument_fluid` — attach the
  engine probes.
* :class:`DecisionTap` (re-exported from :mod:`repro.core.base`) and
  :mod:`repro.obs.divergence` — the control-loop flight recorder and
  the packet-vs-fluid decision-timeline analyzer behind
  ``hpcc-repro trace diff``.
* :mod:`repro.obs.schema` — the versioned JSONL record layout,
  validated by ``tele summarize``.

Everything is opt-in: with no telemetry attached, the engines and the
runner take branch-free (or single-``None``-check) paths; see
``benchmarks/bench_telemetry_overhead.py`` for the enforced budget and
``docs/observability.md`` for the probe catalog.
"""

from ..core.base import DecisionTap, FlowTrace
from .divergence import compare_decisions, decision_records, format_divergence
from .probes import (FluidProbe, SimProbe, instrument_fluid,
                     instrument_simulator)
from .schema import SCHEMA_NAME, SCHEMA_VERSION, meta_record, validate_record
from .sinks import FlightRecorder, JsonlSink, MemorySink
from .telemetry import CounterBlock, Telemetry, current, maybe_span, using

__all__ = [
    "CounterBlock", "DecisionTap", "FlightRecorder", "FlowTrace",
    "FluidProbe", "JsonlSink", "MemorySink", "SCHEMA_NAME", "SCHEMA_VERSION",
    "SimProbe", "Telemetry", "compare_decisions", "current",
    "decision_records", "format_divergence", "instrument_fluid",
    "instrument_simulator", "maybe_span", "meta_record", "using",
    "validate_record",
]
