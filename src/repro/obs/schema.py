"""Versioned record schema for the run-telemetry JSONL format.

Every telemetry artifact — the ``--telemetry`` sink, flight-recorder
dumps — is a sequence of JSON objects, one per line, in this schema.
The first line is a ``meta`` record naming the schema and its version;
every later line carries a ``kind`` from :data:`KINDS` plus that kind's
required fields.  Readers
(``hpcc-repro tele summarize``, the report builder) validate each line
with :func:`validate_record` and skip-and-count rather than abort on a
bad one, so a truncated file (e.g. a run killed mid-write) still
summarizes.

Field conventions shared by all kinds:

* ``t`` — seconds since the emitting run's ``meta`` record (wall
  clock).
* ``sim_ns`` — optional simulated-time stamp in nanoseconds.
* ``run_id`` — which run emitted the record; sweeps interleave runs in
  one file, so every record carries it.
* ``labels`` — optional flat dict of scalar dimensions.
* Non-finite floats are encoded as the strings ``"inf"``, ``"-inf"``,
  ``"nan"`` (same convention as ``report.json``).

Bump :data:`SCHEMA_VERSION` when a required field changes meaning or a
kind is removed; adding an optional field or a new kind is compatible.
"""

from __future__ import annotations

import math
import time
from typing import Any

#: Schema identifier stamped into every ``meta`` record.
SCHEMA_NAME = "hpcc-repro-telemetry"

#: Version of the record layout described in this module's docstring.
#: Version 2 added the ``decision`` kind (CC control-loop decision
#: records from :class:`~repro.core.base.DecisionTap`); it is the one
#: version written and read.
SCHEMA_VERSION = 2

#: Every record kind a writer may emit.
KINDS = frozenset(
    {"meta", "counter", "gauge", "hist", "span", "event", "decision"}
)

#: String spellings of non-finite floats (mirrors ``report.json``).
_NON_FINITE = {"inf", "-inf", "nan"}


def json_number(value: float) -> float | str:
    """Return ``value`` as-is if finite, else its string spelling."""
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def meta_record(run_id: str, labels: dict | None = None) -> dict:
    """Build the header record that must open every telemetry stream."""
    record = {
        "kind": "meta",
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "run_id": run_id,
        "created_unix": time.time(),
    }
    if labels:
        record["labels"] = dict(labels)
    return record


def _is_number(value: Any) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    return isinstance(value, str) and value in _NON_FINITE


def _check_labels(labels: Any) -> str | None:
    if not isinstance(labels, dict):
        return "labels must be an object"
    for key, value in labels.items():
        if not isinstance(key, str):
            return f"label key {key!r} is not a string"
        if value is not None and not isinstance(value, (str, int, float, bool)):
            return f"label {key!r} has non-scalar value"
    return None


def validate_record(obj: Any) -> str | None:
    """Return ``None`` if ``obj`` is a valid record, else an error string."""
    if not isinstance(obj, dict):
        return "record is not an object"
    kind = obj.get("kind")
    if kind not in KINDS:
        return f"unknown kind {kind!r}"

    if kind == "meta":
        if obj.get("schema") != SCHEMA_NAME:
            return f"meta schema is {obj.get('schema')!r}, not {SCHEMA_NAME!r}"
        if obj.get("version") != SCHEMA_VERSION:
            return (
                f"meta version {obj.get('version')!r} not in "
                f"[{SCHEMA_VERSION}]"
            )
        if not isinstance(obj.get("run_id"), str):
            return "meta missing run_id"
        if "labels" in obj:
            return _check_labels(obj["labels"])
        return None

    if not isinstance(obj.get("name"), str) or not obj["name"]:
        return f"{kind} record missing name"
    if not isinstance(obj.get("run_id"), str):
        return f"{kind} record missing run_id"
    if not _is_number(obj.get("t")):
        return f"{kind} record missing numeric t"
    if "sim_ns" in obj and not _is_number(obj["sim_ns"]):
        return "sim_ns must be a number"
    if "labels" in obj:
        err = _check_labels(obj["labels"])
        if err:
            return err

    if kind in ("counter", "gauge"):
        if not _is_number(obj.get("value")):
            return f"{kind} record missing numeric value"
    elif kind == "hist":
        buckets = obj.get("buckets")
        if not isinstance(buckets, dict):
            return "hist record missing buckets object"
        for key, value in buckets.items():
            if not isinstance(key, str) or not _is_number(value):
                return f"hist bucket {key!r} is not str -> number"
    elif kind == "span":
        dur = obj.get("dur")
        if not _is_number(dur):
            return "span record missing numeric dur"
        if isinstance(dur, (int, float)) and dur < 0:
            return "span dur is negative"
    elif kind == "decision":
        if not _is_number(obj.get("flow")):
            return "decision record missing numeric flow"
        for key in ("scheme", "event"):
            if not isinstance(obj.get(key), str) or not obj[key]:
                return f"decision record missing {key}"
        branch = obj.get("branch")
        if branch is not None and not isinstance(branch, str):
            return "decision branch must be a string or null"
        for key in ("rate_before", "rate_after",
                    "window_before", "window_after"):
            value = obj.get(key)
            if value is not None and not _is_number(value):
                return f"decision {key} must be a number or null"
        if "inputs" in obj:
            err = _check_labels(obj["inputs"])
            if err:
                return err.replace("labels", "inputs", 1)
    return None
