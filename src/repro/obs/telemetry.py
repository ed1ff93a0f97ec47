"""The ``Telemetry`` registry: counters, gauges, spans, and the ambient
current-telemetry context.

Design rule (the reason this lives outside the engines): **zero
overhead when off**.  Code that might emit telemetry asks
:func:`current` once at a phase boundary — never per event or per
step — and takes a no-instrumentation branch when it returns ``None``.
The engines' hot loops contain no telemetry code at all; probes hook
their *call sites* (see :mod:`repro.obs.probes`).

A :class:`Telemetry` instance is scoped to one run or one sweep:

* ``counters(prefix)`` hands out a :class:`CounterBlock` — a plain
  dict-backed accumulator whose totals are emitted once, at
  :meth:`Telemetry.close`, so incrementing is just a dict update.
* ``gauge``/``hist``/``event`` emit immediately (they are *sampled*,
  not per-event, so immediacy is cheap and keeps the JSONL tailable).
* ``span(name)`` is a context manager emitting one ``span`` record
  with the measured duration on exit (labelled with the exception type
  if one escaped).
* every emit also feeds the :class:`~repro.obs.sinks.FlightRecorder`
  ring, so incident dumps work regardless of the primary sink.

Worker processes build a run-scoped ``Telemetry`` over a
:class:`~repro.obs.sinks.MemorySink`, ``drain()`` it into the pickled
``RunRecord``, and the parent ``ingest()``s those records into its own
(file-backed) instance — that is how sweep telemetry crosses the
process pool.

The ambient context (:func:`current` / :func:`using` /
:func:`maybe_span`) is a module-level variable, not thread-local: runs
are single-threaded within a process (parallelism is process-based),
and a plain global keeps the off-path check to one load.
"""

from __future__ import annotations

import contextlib
import math
import operator
import time
from typing import Iterator

from .schema import json_number, meta_record
from .sinks import FlightRecorder, MemorySink


class CounterBlock:
    """Cheap named-counter accumulator; totals emitted at close.

    ``inc`` is a dict update — no record construction, no I/O — so
    probes can call it on every sample without meaningful cost.
    """

    __slots__ = ("prefix", "values")

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.values: dict[str, float] = {}

    def inc(self, name: str, n: float = 1) -> None:
        values = self.values
        values[name] = values.get(name, 0) + n


class Span:
    """Context manager timing one phase; emits a ``span`` record on exit."""

    __slots__ = ("_tel", "name", "labels", "_started", "dur")

    def __init__(self, tel: "Telemetry", name: str, labels: dict) -> None:
        self._tel = tel
        self.name = name
        self.labels = labels
        self._started = 0.0
        self.dur = 0.0

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.dur = time.perf_counter() - self._started
        labels = self.labels
        if exc_type is not None:
            labels = {**labels, "error": exc_type.__name__}
        self._tel.record_span(self.name, self.dur, **labels)


class Telemetry:
    """One run's (or one sweep's) telemetry registry and emitter.

    ``sink`` is any object with ``write(record)``/``close()``
    (default: an in-memory sink, for workers).  ``t`` stamps are
    seconds since this instance was created; its ``meta`` record
    anchors that timebase for readers.
    """

    #: Optional :class:`~repro.core.base.DecisionTap` riding this
    #: instance: the execution layer attaches it to the engines and
    #: exports its traces via :meth:`export_decisions` after the run.
    decisions = None

    def __init__(self, run_id: str, sink=None, labels: dict | None = None,
                 flight_maxlen: int = 256) -> None:
        self.run_id = run_id
        self.sink = sink if sink is not None else MemorySink()
        self.flight = FlightRecorder(maxlen=flight_maxlen)
        self._blocks: dict[str, CounterBlock] = {}
        self._closed = False
        self._t0 = time.perf_counter()
        self.sink.write(meta_record(run_id, labels))

    # -- emission -----------------------------------------------------

    def _emit(self, record: dict, labels: dict | None = None) -> None:
        record["t"] = round(time.perf_counter() - self._t0, 6)
        record["run_id"] = self.run_id
        if labels:
            record["labels"] = labels
        self.flight.write(record)
        self.sink.write(record)

    def gauge(self, name: str, value: float, sim_ns: float | None = None,
              **labels) -> None:
        """Emit one sampled measurement of a fluctuating quantity."""
        record = {"kind": "gauge", "name": name, "value": json_number(value)}
        if sim_ns is not None:
            record["sim_ns"] = json_number(sim_ns)
        self._emit(record, labels)

    def hist(self, name: str, buckets: dict[str, float],
             sim_ns: float | None = None, **labels) -> None:
        """Emit one sampled histogram as a ``bucket label -> count`` map."""
        record = {
            "kind": "hist", "name": name,
            "buckets": {key: json_number(v) for key, v in buckets.items()},
        }
        if sim_ns is not None:
            record["sim_ns"] = json_number(sim_ns)
        self._emit(record, labels)

    def event(self, name: str, sim_ns: float | None = None, **labels) -> None:
        """Emit a point-in-time occurrence (exception, overrun, ...)."""
        record = {"kind": "event", "name": name}
        if sim_ns is not None:
            record["sim_ns"] = json_number(sim_ns)
        self._emit(record, labels)

    def count(self, name: str, n: float = 1) -> None:
        """Increment a top-level counter (emitted as a total at close)."""
        self.counters("").inc(name, n)

    def counters(self, prefix: str) -> CounterBlock:
        """Return the (cached) counter block for ``prefix``."""
        block = self._blocks.get(prefix)
        if block is None:
            block = self._blocks[prefix] = CounterBlock(prefix)
        return block

    def span(self, name: str, **labels) -> Span:
        """Time a phase: ``with tel.span("run"): ...`` emits on exit."""
        return Span(self, name, labels)

    def record_span(self, name: str, dur: float, **labels) -> None:
        """Emit a phase timed elsewhere — e.g. a run's share of a batch
        that stepped several runs at once."""
        self._emit({"kind": "span", "name": name, "dur": json_number(dur)},
                   labels)

    def export_decisions(self, tap) -> int:
        """Emit a :class:`~repro.core.base.DecisionTap`'s traces.

        One ``decision`` record per control decision, in (sim_ns, flow)
        order; returns the number emitted.  Ring evictions are surfaced
        as a ``decisions_dropped`` event so truncation is never silent.

        Decision records go straight to the sink: a batch export of
        thousands of records would otherwise both dominate the export's
        own cost and flush every *other* record out of the flight ring
        (the ring exists for incident context, which a bulk historical
        dump is not).  Records are built inline from the ring tuples —
        one dict per decision, non-finite encoding only where a value
        actually is non-finite — because this runs once per traced
        run over potentially tens of thousands of decisions.
        """
        t = round(time.perf_counter() - self._t0, 6)
        run_id = self.run_id
        sink_write = self.sink.write
        isfinite = math.isfinite
        rows = []
        for flow_id, trace in tap.traces.items():
            scheme = trace.scheme
            rows.extend([(rec[0], flow_id, scheme, rec)
                         for rec in trace.ring])
        rows.sort(key=operator.itemgetter(0, 1))
        for now, flow_id, scheme, rec in rows:
            _, event, branch, rate0, win0, rate1, win1, inputs = rec
            # The ring owns each inputs dict exclusively (algorithms
            # build a fresh one per decision), so the clean common case
            # passes it through without a copy.
            for v in inputs.values():
                if isinstance(v, float) and not isfinite(v):
                    inputs = {
                        k: v if not isinstance(v, float) or isfinite(v)
                        else json_number(v)
                        for k, v in inputs.items()
                    }
                    break
            sink_write({
                "kind": "decision", "name": "cc.decision",
                "t": t, "run_id": run_id,
                "sim_ns": now if isfinite(now) else json_number(now),
                "flow": flow_id, "scheme": scheme,
                "event": event, "branch": branch,
                "rate_before": rate0 if rate0 is None or isfinite(rate0)
                else json_number(rate0),
                "rate_after": rate1 if rate1 is None or isfinite(rate1)
                else json_number(rate1),
                "window_before": win0 if win0 is None or isfinite(win0)
                else json_number(win0),
                "window_after": win1 if win1 is None or isfinite(win1)
                else json_number(win1),
                "inputs": inputs,
            })
        dropped = tap.total_dropped
        if dropped:
            self.event("decisions_dropped", dropped=dropped)
        return len(rows)

    # -- lifecycle ----------------------------------------------------

    def ingest(self, records: list[dict]) -> None:
        """Re-emit records drained from another (worker) instance.

        Records keep their original ``run_id`` and ``t`` (relative to
        *their* run's meta, per the schema), so ingestion is a pure
        pass-through to the sink and flight ring.
        """
        for record in records:
            self.flight.write(record)
            self.sink.write(record)

    def flush_counters(self) -> None:
        """Emit every counter block's totals as ``counter`` records."""
        for prefix, block in self._blocks.items():
            for name in sorted(block.values):
                full = f"{prefix}.{name}" if prefix else name
                self._emit({"kind": "counter", "name": full,
                            "value": json_number(block.values[name])})
        self._blocks.clear()

    def close(self) -> None:
        """Flush counter totals and close the sink (idempotent)."""
        if self._closed:
            return
        self.flush_counters()
        self._closed = True
        self.sink.close()

    def drain(self) -> list[dict]:
        """Close and return all records (memory-sink instances only)."""
        self.close()
        drain = getattr(self.sink, "drain", None)
        return drain() if drain is not None else []


# -- ambient context --------------------------------------------------

_current: Telemetry | None = None


def current() -> Telemetry | None:
    """The telemetry instance active for this process, if any."""
    return _current


@contextlib.contextmanager
def using(tel: Telemetry | None) -> Iterator[Telemetry | None]:
    """Make ``tel`` the ambient instance for the duration of the block."""
    global _current
    previous = _current
    _current = tel
    try:
        yield tel
    finally:
        _current = previous


@contextlib.contextmanager
def maybe_span(name: str, **labels) -> Iterator[None]:
    """Span against the ambient telemetry; exact no-op when none is set."""
    tel = _current
    if tel is None:
        yield
        return
    with tel.span(name, **labels):
        yield
