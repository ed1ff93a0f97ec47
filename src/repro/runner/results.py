"""Run results: serializable records, persistence and the on-disk cache.

A :class:`RunRecord` is everything a figure needs from one scenario run,
as plain JSON-able data: the finished flows (an :class:`FctTable` of
typed columns), queue-length series, goodput bins, pause intervals and
assorted counters.  Reconstruction helpers hand back the same objects
the live network would have produced
(:class:`~repro.sim.flow.FctRecord`,
:class:`~repro.metrics.timeseries.GoodputTracker`,
:class:`~repro.sim.pfc.PauseTracker`), so figure post-processing is
byte-identical whether a record came from a fresh run, another process,
or the cache.

:class:`RunCache` is content-addressed on the spec hash: re-running a
figure skips every already-computed cell.
"""

from __future__ import annotations

import csv
import json
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..metrics.fct import percentile
from ..metrics.timeseries import GoodputTracker
from ..sim.flow import FctRecord, FlowSpec
from ..sim.pfc import PauseInterval, PauseTracker
from .spec import ScenarioSpec

#: The one record layout written and read: 2 added ``status``/``error``/
#: ``attempts`` (the fault-tolerance fields), 3 stores the finished flows
#: as columns (``"fct": {column: [values]}``) instead of one object per
#: flow.
RECORD_FORMAT = 3

#: Terminal execution outcomes a record can carry.
RECORD_STATUSES = ("ok", "error", "timeout")

#: The FCT table's columns, in the key order of a :attr:`RunRecord.fct` row.
FCT_COLUMNS = ("flow_id", "src", "dst", "size", "start_time", "tag",
               "start", "finish", "ideal")


def _column(name: str, values) -> array | tuple:
    """``tag`` as a tuple of interned strings; every other column an
    ``array('i')`` while all its values are ints that fit, else
    ``array('q')``, else ``array('d')``, so a value reads back as the
    type it was stored as (a declared ``0`` start stays ``0``; a column
    mixing ints and floats reads floats)."""
    if name == "tag":
        return tuple(map(sys.intern, values))
    for typecode in "iq":
        try:
            return array(typecode, values)
        except (TypeError, OverflowError):
            pass
    return array("d", values)


class _Row(dict):
    """One row of :attr:`RunRecord.fct`.  Rows are rebuilt from the table
    on every access, so they refuse writes rather than drop them."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("RunRecord.fct rows are read-only views of "
                        "RunRecord.fct_table")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


@dataclass(frozen=True, slots=True)
class FctTable:
    """A run's finished flows as typed columns, one entry per flow:
    ≈72 bytes a flow, against ≈400 for a dict per flow."""

    flow_id: array
    src: array
    dst: array
    size: array
    start_time: array
    tag: tuple
    start: array
    finish: array
    ideal: array

    @classmethod
    def of(cls, records: Iterable[FctRecord] = ()) -> "FctTable":
        """The table of ``records``, in their order: every backend's FCT
        payload, and the inverse of :meth:`records`."""
        records = list(records)
        specs = [r.spec for r in records]
        return cls.from_json({
            "flow_id": [s.flow_id for s in specs],
            "src": [s.src for s in specs],
            "dst": [s.dst for s in specs],
            "size": [s.size for s in specs],
            "start_time": [s.start_time for s in specs],
            "tag": [s.tag for s in specs],
            "start": [r.start for r in records],
            "finish": [r.finish for r in records],
            "ideal": [r.ideal for r in records],
        })

    @classmethod
    def from_json(cls, data: dict) -> "FctTable":
        """The table of ``{column: [values]}``, as :meth:`to_json` writes."""
        table = {name: _column(name, data[name]) for name in FCT_COLUMNS}
        if len({len(values) for values in table.values()}) > 1:
            raise ValueError("FCT columns differ in length")
        # Every producer writes ``start = spec.start_time``: one array
        # then holds both columns.
        start, start_time = table["start"], table["start_time"]
        if start.typecode == start_time.typecode and start == start_time:
            table["start"] = start_time
        return cls(**table)

    def columns(self) -> tuple:
        return tuple(getattr(self, name) for name in FCT_COLUMNS)

    def to_json(self) -> dict:
        return {name: list(values)
                for name, values in zip(FCT_COLUMNS, self.columns())}

    def __len__(self) -> int:
        return len(self.flow_id)

    def rows(self) -> tuple[dict, ...]:
        return tuple(_Row(zip(FCT_COLUMNS, values))
                     for values in zip(*self.columns()))

    def records(self) -> list[FctRecord]:
        return [
            FctRecord(
                spec=FlowSpec(flow_id=flow_id, src=src, dst=dst, size=size,
                              start_time=start_time, tag=tag),
                start=start, finish=finish, ideal=ideal,
            )
            for (flow_id, src, dst, size, start_time, tag, start, finish,
                 ideal) in zip(*self.columns())
        ]

    def merged(self, other: "FctTable") -> "FctTable":
        """Both tables' flows in ``(finish, flow_id)`` order."""
        joined = {name: [*getattr(self, name), *getattr(other, name)]
                  for name in FCT_COLUMNS}
        finish, flow_id = joined["finish"], joined["flow_id"]
        order = sorted(range(len(flow_id)),
                       key=lambda i: (finish[i], flow_id[i]))
        return self.from_json({name: [values[i] for i in order]
                               for name, values in joined.items()})


@dataclass
class RunRecord:
    """One executed scenario: the spec, its results, and run accounting."""

    spec: ScenarioSpec
    #: The finished flows, the record's one FCT storage; :attr:`fct` is
    #: its row view.
    fct_table: FctTable = field(default_factory=FctTable.of)
    queues: dict[str, dict] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    events_processed: int = 0
    duration_ns: float = 0.0
    completed: bool = False
    wall_time_s: float = 0.0
    #: Execution outcome: ``ok`` (results are valid), ``error`` (the
    #: program raised — see ``error``), ``timeout`` (killed by the sweep
    #: watchdog).  Only ``ok`` records are ever persisted to the cache.
    status: str = "ok"
    #: For non-ok records: ``{"type", "message", "traceback"}`` — the
    #: exception class name, its message, and a short traceback summary.
    error: dict | None = None
    #: Execution attempts consumed (retries after worker deaths included).
    attempts: int = 1
    cached: bool = False        # set by the cache on a hit; not persisted
    #: Telemetry records drained from the run's obs registry; carried
    #: across the process pool for the sweep sink, not persisted.
    telemetry: list = field(default_factory=list)
    #: The original exception object (when picklable) behind an ``error``
    #: status; carried across the process pool so the ``failures="raise"``
    #: policy can re-raise it verbatim.  Never persisted.
    exception: BaseException | None = None

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash

    @property
    def label(self) -> str:
        return self.spec.label or self.spec_hash

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def fct(self) -> tuple[dict, ...]:
        """The finished flows as rows, one read-only dict per flow with
        the keys of :data:`FCT_COLUMNS`, built from :attr:`fct_table` on
        each access and never stored."""
        return self.fct_table.rows()

    @classmethod
    def failure(cls, spec: ScenarioSpec, status: str,
                exc: BaseException | None = None,
                wall_time_s: float = 0.0, attempts: int = 1,
                detail: str = "") -> "RunRecord":
        """A quarantined outcome: no results, just the failure accounting."""
        if status not in RECORD_STATUSES or status == "ok":
            raise ValueError(f"not a failure status: {status!r}")
        import traceback as _tb

        if exc is not None:
            summary = "".join(
                _tb.format_exception(type(exc), exc, exc.__traceback__,
                                     limit=8)
            )
            error = {"type": type(exc).__name__, "message": str(exc),
                     "traceback": summary}
        else:
            error = {"type": status, "message": detail, "traceback": ""}
        return cls(spec=spec, status=status, error=error, exception=exc,
                   wall_time_s=wall_time_s, attempts=attempts)

    # -- reconstruction ---------------------------------------------------------

    def fct_records(self) -> list[FctRecord]:
        """The run's finished flows as live :class:`FctRecord` objects."""
        return self.fct_table.records()

    def finish_times(self) -> dict[int, float]:
        return dict(zip(self.fct_table.flow_id, self.fct_table.finish))

    def flow_ids(self, tag: str) -> list[int]:
        """Flow ids of one workload tag, in spec order."""
        ids = self.extras.get("flow_ids", {})
        return list(ids.get(tag, []))

    def goodput(self) -> GoodputTracker | None:
        """Rebuild the goodput tracker (if the run recorded one)."""
        data = self.extras.get("goodput")
        return GoodputTracker.from_payload(data) if data else None

    def pause_tracker(self) -> PauseTracker:
        """Rebuild a tracker from recorded intervals (requires the
        ``pause_intervals`` measure flag; otherwise only the summary
        counters in ``extras`` are available)."""
        tracker = PauseTracker()
        for device, port, start, end in self.extras.get("pause_intervals", []):
            tracker.intervals.append(PauseInterval(device, port, start, end))
        return tracker

    def final_windows(self) -> dict[int, float | None]:
        """Per-flow sender window at the end of the run (``windows`` flag)."""
        return {
            int(flow_id): window
            for flow_id, window in self.extras.get("final_windows", {}).items()
        }

    def switch_queued_bytes(self) -> dict[int, int]:
        """Bytes still buffered in each switch when the run ended."""
        return {
            int(sw): queued
            for sw, queued in self.extras.get("switch_queued_bytes", {}).items()
        }

    def link_events(self) -> list[dict]:
        """The run's dynamics accounting, one entry per timeline event.

        Every entry carries ``type``/``time``/``fired``; link events add
        ``a``/``b`` plus — symmetrically on both ``fail_link`` *and*
        ``restore_link`` — ``packets_lost_down`` (casualties of the down
        period the event opened or closed), ``reroutes`` (ECMP groups
        changed on the packet backend, flows repathed on fluid),
        ``dests_recomputed`` and ``detected_at`` (when routing
        reconverged — ``time + detection_delay``).  ``degrade_link``
        records its factors; ``inject_burst`` its ``flow_ids``.
        """
        return list(self.extras.get("link_events", []))

    def origin_map(self) -> dict[tuple[int, int], int]:
        return {
            (device, port): peer
            for device, port, peer in self.extras.get("origin_of", [])
        }

    def queue_series(self, label: str) -> tuple[list[float], list[int]]:
        data = self.queues[label]
        return data["times"], data["qlens"]

    def all_queue_samples(self) -> list[int]:
        merged: list[int] = []
        for data in self.queues.values():
            merged.extend(data["qlens"])
        return merged

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format": RECORD_FORMAT,
            "spec": self.spec.to_json(),
            "spec_hash": self.spec_hash,
            "fct": self.fct_table.to_json(),
            "queues": self.queues,
            "extras": self.extras,
            "events_processed": self.events_processed,
            "duration_ns": self.duration_ns,
            "completed": self.completed,
            "wall_time_s": self.wall_time_s,
            "status": self.status,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        fmt = data.get("format")
        if fmt != RECORD_FORMAT:
            raise ValueError(
                f"unreadable record format {fmt!r}; "
                f"this reader reads format {RECORD_FORMAT}"
            )
        status = data["status"]
        if status not in RECORD_STATUSES:
            raise ValueError(f"unknown record status {status!r}")
        return cls(
            spec=ScenarioSpec.from_json(data["spec"]),
            fct_table=FctTable.from_json(data["fct"]),
            queues=data["queues"],
            extras=data["extras"],
            events_processed=data["events_processed"],
            duration_ns=data["duration_ns"],
            completed=data["completed"],
            wall_time_s=data["wall_time_s"],
            status=status,
            error=data["error"],
            attempts=data["attempts"],
        )

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), sort_keys=True))
        return path

    @classmethod
    def read_json(cls, path: str | Path) -> "RunRecord":
        return cls.from_json(json.loads(Path(path).read_text()))


def write_records_csv(records: Iterable[RunRecord], path: str | Path) -> int:
    """One summary row per record; returns the row count."""
    path = Path(path)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([
            "spec_hash", "label", "program", "topology", "cc", "seed", "scale",
            "flows_finished", "completed", "duration_ns", "events_processed",
            "slowdown_p50", "slowdown_p95", "slowdown_p99", "wall_time_s",
            "cached", "status", "attempts",
        ])
        for record in records:
            table = record.fct_table
            slowdowns = [
                (finish - start) / ideal if ideal > 0 else float("inf")
                for start, finish, ideal
                in zip(table.start, table.finish, table.ideal)
            ]
            writer.writerow([
                record.spec_hash, record.spec.label, record.spec.program,
                record.spec.topology, record.spec.cc.display, record.spec.seed,
                record.spec.scale, len(table), record.completed,
                f"{record.duration_ns:.1f}", record.events_processed,
                f"{percentile(slowdowns, 50):.4f}" if slowdowns else "",
                f"{percentile(slowdowns, 95):.4f}" if slowdowns else "",
                f"{percentile(slowdowns, 99):.4f}" if slowdowns else "",
                f"{record.wall_time_s:.3f}", record.cached,
                record.status, record.attempts,
            ])
            count += 1
    return count


class RunCache:
    """Content-addressed record store: ``<root>/<spec_hash>.json``.

    Two specs that would compute the same thing share one entry; label
    and metadata changes never invalidate it (they are excluded from the
    hash — see :meth:`ScenarioSpec.identity`).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec: ScenarioSpec) -> Path:
        return self.root / f"{spec.spec_hash}.json"

    def get(self, spec: ScenarioSpec) -> RunRecord | None:
        path = self.path_for(spec)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            return None             # unreadable right now: miss, keep the file
        try:
            record = RunRecord.from_json(json.loads(text))
            if not record.ok:
                raise ValueError(f"non-ok record cached: {record.status}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self._quarantine(path)  # corrupt/alien entry: sideline it, miss
            return None
        record.spec = spec          # keep the caller's label/meta
        record.cached = True
        return record

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Rename a bad entry to ``*.corrupt`` so it stops shadowing the
        slot (a rerun can then repopulate it) but stays on disk for
        inspection.  ``cache stats`` counts the quarantined files."""
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass                    # racing cleaner/permission issue: leave it

    def put(self, record: RunRecord) -> Path:
        if not record.ok:
            raise ValueError(
                f"refusing to cache a {record.status!r} record "
                f"({record.spec_hash}): only ok results are reusable"
            )
        path = self.path_for(record.spec)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record.to_json(), sort_keys=True))
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __contains__(self, spec: ScenarioSpec) -> bool:
        return self.path_for(spec).exists()

    def clear(self) -> int:
        removed = 0
        for pattern in ("*.json", "*.corrupt"):
            for entry in self.root.glob(pattern):
                entry.unlink()
                removed += 1
        return removed

    def stats(self) -> dict:
        """Cache accounting: entry/byte totals plus a (backend, program)
        breakdown — what ``hpcc-repro cache stats`` prints."""
        entries = 0
        total_bytes = 0
        corrupt = 0
        by_kind: dict[tuple[str, str], int] = {}
        for path in self.root.glob("*.json"):
            entries += 1
            total_bytes += path.stat().st_size
            try:
                spec = json.loads(path.read_text()).get("spec", {})
            except (json.JSONDecodeError, OSError):
                corrupt += 1
                continue
            key = (spec.get("backend", "packet"), spec.get("program", "?"))
            by_kind[key] = by_kind.get(key, 0) + 1
        return {
            "entries": entries,
            "total_bytes": total_bytes,
            "by_kind": by_kind,
            "corrupt": corrupt,
            "quarantined": sum(1 for _ in self.root.glob("*.corrupt")),
        }
