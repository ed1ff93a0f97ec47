"""The sweep journal: an append-only JSONL log of cell outcomes.

A sweep writes one line per landed cell — ``spec_hash``, terminal
``status`` (``ok``/``error``/``timeout``), attempts consumed, wall time
and whether the cache served it — fsynced as each cell finishes, so the
journal survives the sweep process dying mid-run.

The journal is *accounting*, not results: the run cache holds the data,
the journal holds the ledger of what was attempted and how it went.
Nothing reads it back to decide what to run: re-running the same sweep
over the same cache serves every ok cell from the cache and re-runs the
rest, and the journal's new lines (``"cached": true`` on the served
cells) say so.

Lines also carry a ``sweep`` header record (first line) with the spec
count and start timestamp, purely for humans reading the file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from .results import RunRecord

JOURNAL_FORMAT = 1


class SweepJournal:
    """Append-only JSONL ledger of sweep-cell outcomes.

    Each :meth:`record` call appends one line and fsyncs it — a killed
    sweep leaves at worst one truncated final line.  A re-run appends;
    for a spec hash the last line is its latest outcome.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = None

    # -- writing ----------------------------------------------------------------

    def open(self, n_specs: int) -> None:
        """Start (or continue) the journal file for a sweep of n_specs.

        A journal whose last line a killed sweep left torn is continued
        on a fresh line, so the torn line stays the only unreadable one.
        """
        torn = self._ends_torn()
        self._handle = self.path.open("a")
        if torn:
            self._handle.write("\n")
        self._append({
            "kind": "sweep",
            "format": JOURNAL_FORMAT,
            "n_specs": n_specs,
            "started_at": time.time(),
            "pid": os.getpid(),
        })

    def record(self, record: RunRecord) -> None:
        """Land one cell outcome; flushed before returning."""
        entry = {
            "kind": "cell",
            "spec_hash": record.spec_hash,
            "label": record.spec.label,
            "status": record.status,
            "attempts": record.attempts,
            "wall_time_s": round(record.wall_time_s, 6),
            "cached": record.cached,
        }
        if record.error is not None:
            entry["error"] = {
                "type": record.error.get("type", ""),
                "message": record.error.get("message", "")[:500],
            }
        self._append(entry)

    def _ends_torn(self) -> bool:
        """Whether the file's last byte is something other than a newline."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except FileNotFoundError:
            return False

    def _append(self, entry: dict) -> None:
        if self._handle is None:
            self._handle = self.path.open("a")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
