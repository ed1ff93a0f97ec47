"""The sweep fabric: guarded work units and the fault-tolerant runner.

:class:`SweepRunner` runs spec lists as work units (:func:`execute_unit`),
in-process or over a ``ProcessPoolExecutor``; every run is rebuilt from
its spec's seed, so serial and parallel sweeps are byte-identical.  With
telemetry on, each worker's drained records ride back on the
(non-persisted) ``RunRecord.telemetry`` field into the sweep's own sink.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from .journal import SweepJournal

from ..obs import Telemetry
from .execute import execute_specs, shares_batch, validate_specs
from .results import RunCache, RunRecord
from .spec import ScenarioSpec


def _pool_errors() -> tuple[type[BaseException], ...]:
    """Infrastructure failures that mean "this environment cannot fork a
    pool"; real execution errors inside a worker become error-status
    records.  The pool's modules load only when a pool starts."""
    from concurrent.futures.process import BrokenProcessPool

    return (BrokenProcessPool, OSError, PermissionError, ImportError)

ProgressFn = Callable[[RunRecord, int, int], None]

#: Exponential-backoff schedule for pool rebuilds after worker deaths:
#: ``min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**(rebuilds - 1))``.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0


def execute_unit(
    specs: list[ScenarioSpec], telemetry: bool = False,
    execute: Callable[[ScenarioSpec, bool], RunRecord] | None = None,
) -> Iterator[tuple[int, RunRecord]]:
    """The sweep's work unit — a list of specs — with failure isolation.

    Yields ``(i, record)`` as ``specs[i]`` finishes: the specs run
    through :func:`~repro.runner.execute.execute_specs`, or an injected
    ``execute`` (the chaos hooks) runs each spec in turn.  A spec that
    raises, or that a fault of the executor left unyielded, becomes an
    ``error`` record; the exception rides back on the non-persisted
    ``exception`` field (when picklable) for ``failures="raise"`` to
    re-raise verbatim.
    """
    started = time.perf_counter()
    if execute is not None:
        for i, spec in enumerate(specs):
            try:
                yield i, execute(spec, telemetry)
            except Exception as exc:
                yield i, _error_record(spec, exc, started)
            started = time.perf_counter()
        return
    left = set(range(len(specs)))
    try:
        for i, outcome in execute_specs(specs, telemetry):
            left.discard(i)
            yield i, (outcome if isinstance(outcome, RunRecord)
                      else _error_record(specs[i], outcome, started))
            started = time.perf_counter()
    except Exception as exc:
        for i in sorted(left):
            yield i, _error_record(specs[i], exc, started)


def _unit_records(specs: list[ScenarioSpec], telemetry: bool,
                  execute: Callable[[ScenarioSpec, bool], RunRecord] | None
                  ) -> list[tuple[int, RunRecord]]:
    """A pool task: :func:`execute_unit` run to its end."""
    return list(execute_unit(specs, telemetry, execute))


def _error_record(spec: ScenarioSpec, exc: Exception, started: float
                  ) -> RunRecord:
    """A failed execution as an ``error``-status record (the exception
    rides along when it can cross a process boundary)."""
    record = RunRecord.failure(
        spec, "error", exc=exc, wall_time_s=time.perf_counter() - started,
    )
    try:
        pickle.dumps(exc)
    except Exception:
        record.exception = None         # unpicklable: the summary suffices
    return record


class SweepTimeout(TimeoutError):
    """A spec exceeded its wall-clock budget under ``failures="raise"``."""


def raise_failure(record: RunRecord) -> None:
    """Raise a quarantined record's failure: the original exception when
    it survived the trip back, else a summary built from ``error``."""
    if record.exception is not None:
        raise record.exception
    error = record.error or {}
    detail = f"{record.label}: {error.get('type')}: {error.get('message')}"
    if record.status == "timeout":
        raise SweepTimeout(detail)
    raise RuntimeError(f"sweep cell failed: {detail}")


class SweepRunner:
    """Executes spec lists: cache first, then one compute loop over units.

    * ``jobs`` — worker processes; 1 (default) runs in-process.  The
      uncached specs that can share a fluid batch (:func:`shares_batch`)
      are dealt into ``min(jobs, n)`` units (:func:`execute_unit`), each
      run at its first spec's place; every other spec is a unit of one.
      A pool lands a unit's records when its worker returns.
    * ``cache`` — a :class:`RunCache` (or a path); hits skip computation
      and completed runs are persisted as soon as they land.
    * ``progress`` — optional callback ``(record, done, total)``.
    * ``telemetry`` — optional :class:`~repro.obs.Telemetry`; per-run
      records are ingested as they land, plus sweep-level counters
      (cache hits/misses, faults), per-spec wall-time gauges and a
      worker-utilization gauge.  The caller owns the instance.
    * ``failures`` — ``"quarantine"`` (default) turns a failing spec
      into an ``error``/``timeout``-status record and keeps sweeping;
      ``"raise"`` re-raises the first failure (the pre-fault behaviour).
      Input errors (unknown program/topology) raise under both policies.
    * ``retries`` — extra attempts for specs lost to *infrastructure*
      faults (a worker killed by the OOM killer, a broken pool); the
      pool is rebuilt with bounded exponential backoff, and a death
      charges an attempt only to a cell that was alone in flight (see
      :meth:`_run_pool`).  Deterministic execution errors are never
      retried — same spec, same exception.
    * ``spec_timeout`` — per-spec wall-clock budget in seconds (per cell
      of a unit); a spec still running past it has its worker killed
      and lands as a terminal ``timeout`` record.  ``"auto"`` derives
      the budget from observed runs (10x the slowest fresh ok cell,
      floor 5s; no enforcement until one fresh cell lands).  Enforced
      on the pool path only, which ``jobs>1`` takes whenever a budget is
      armed — a serial (``jobs=1``) run cannot kill itself.
    * ``journal`` — a :class:`~repro.runner.journal.SweepJournal` (or a
      path); every landed cell is appended and fsynced as it lands.
      With a cache, re-running a crashed or partly failed sweep is its
      resume: the ok cells come back from the cache.

    Duplicate specs (same :attr:`~ScenarioSpec.spec_hash`) are computed
    once and shared.  If the platform refuses to fork a process pool the
    runner silently degrades to serial execution — results are identical
    either way because every run is rebuilt from its spec.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: RunCache | str | None = None,
        progress: ProgressFn | None = None,
        telemetry: Telemetry | None = None,
        failures: str = "quarantine",
        retries: int = 2,
        spec_timeout: float | str | None = None,
        journal: "SweepJournal | str | None" = None,
        execute: Callable[[ScenarioSpec, bool], RunRecord] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if failures not in ("quarantine", "raise"):
            raise ValueError(
                f"failures must be 'quarantine' or 'raise', got {failures!r}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if spec_timeout is not None and spec_timeout != "auto" \
                and float(spec_timeout) <= 0:
            raise ValueError(f"spec_timeout must be > 0, got {spec_timeout}")
        self.jobs = jobs
        self.cache = RunCache(cache) if isinstance(cache, str) else cache
        self.progress = progress
        self.telemetry = telemetry
        self.failures = failures
        self.retries = retries
        self.spec_timeout = spec_timeout
        if isinstance(journal, (str, Path)):
            from .journal import SweepJournal

            journal = SweepJournal(journal)
        self.journal = journal
        self._execute = execute
        #: Slowest fresh-ok wall time seen this run (drives "auto" budgets).
        self._slowest_ok = 0.0

    # -- the outer loop ----------------------------------------------------------

    def run(self, specs: list[ScenarioSpec]) -> list[RunRecord]:
        """Execute every spec, returning records in input order.

        Under the default ``failures="quarantine"`` policy the returned
        list always has one record per spec; check ``record.ok`` (or
        ``record.status``) before using a cell's results.
        """
        validate_specs(specs)
        total = len(specs)
        records: list[RunRecord | None] = [None] * total
        done = 0
        tel = self.telemetry
        sweep_started = time.perf_counter()
        self._slowest_ok = 0.0
        if self.journal is not None:
            self.journal.open(total)

        def notify(record: RunRecord) -> None:
            nonlocal done
            done += 1
            if tel is not None:
                tel.gauge("sweep.spec_wall_s", record.wall_time_s,
                          label=record.label, cached=record.cached,
                          status=record.status)
            if self.progress is not None:
                self.progress(record, done, total)

        try:
            # Cache pass + dedupe: one computation per distinct spec hash.
            to_run: dict[str, ScenarioSpec] = {}
            indices: dict[str, list[int]] = {}
            for i, spec in enumerate(specs):
                key = spec.spec_hash
                if key in indices:
                    indices[key].append(i)
                    continue
                indices[key] = [i]
                cached = self.cache.get(spec) if self.cache is not None \
                    else None
                if cached is not None:
                    records[i] = cached
                    if self.journal is not None:
                        self.journal.record(cached)
                    notify(cached)
                else:
                    to_run[key] = spec
            if tel is not None:
                block = tel.counters("sweep.cache")
                block.inc("hits", len(indices) - len(to_run))
                block.inc("misses", len(to_run))

            units = self._units(to_run)
            computed: dict[str, RunRecord] = {}
            if self.jobs > 1 and (len(units) > 1 or (
                    units and self._current_timeout() is not None)):
                computed = self._run_pool(units, to_run, notify)
            for unit in units:                  # serial, or pool fallback
                keys = [key for key in unit if key not in computed]
                for i, record in execute_unit([to_run[key] for key in keys],
                                              tel is not None, self._execute):
                    computed[keys[i]] = record
                    self._land(record, notify)

            # Fan results back out to every index (duplicates keep their own
            # label/meta via spec reattachment, and their own progress tick).
            for key, positions in indices.items():
                base = records[positions[0]] \
                    if records[positions[0]] is not None else computed[key]
                for i in positions:
                    if records[i] is None:
                        records[i] = base if specs[i] is base.spec \
                            else replace(base, spec=specs[i])
                        if i != positions[0]:
                            notify(records[i])
        finally:
            if self.journal is not None:
                self.journal.close()
        if tel is not None:
            elapsed = time.perf_counter() - sweep_started
            busy = sum(r.wall_time_s for r in records
                       if r is not None and not r.cached)
            tel.gauge("sweep.wall_s", elapsed, specs=total, jobs=self.jobs)
            if elapsed > 0:
                tel.gauge("sweep.worker_utilization",
                          min(1.0, busy / (elapsed * self.jobs)),
                          jobs=self.jobs)
        return [r for r in records if r is not None]

    def _units(self, to_run: dict[str, ScenarioSpec]) -> list[list[str]]:
        """The call's work units (spec keys), in the order of their first
        spec: the specs that can share a batch (:func:`shares_batch`)
        dealt round-robin into ``min(jobs, n)`` units, every other spec a
        unit of one."""
        shared = [key for key, spec in to_run.items() if shares_batch(spec)]
        width = min(self.jobs, len(shared))
        dealt = {shared[j]: shared[j::width] for j in range(width)}
        riding = set(shared) - set(dealt)
        return [dealt.get(key, [key]) for key in to_run if key not in riding]

    # -- landing results ---------------------------------------------------------

    def _land(self, record: RunRecord, notify: Callable[[RunRecord], None]
              ) -> None:
        """One terminal outcome: cache, journal, telemetry, policy."""
        if record.ok:
            if not record.cached:
                self._slowest_ok = max(self._slowest_ok, record.wall_time_s)
            if self.cache is not None:
                self.cache.put(record)
        elif self.telemetry is not None:
            self.telemetry.counters("sweep.fault").inc("quarantined")
            self.telemetry.event(
                "sweep.spec_failed", label=record.label,
                status=record.status,
                error=(record.error or {}).get("type", ""),
            )
        if self.telemetry is not None and record.telemetry:
            self.telemetry.ingest(record.telemetry)
            record.telemetry = []
        if self.journal is not None:
            self.journal.record(record)
        notify(record)
        if not record.ok and self.failures == "raise":
            raise_failure(record)

    def _current_timeout(self) -> float | None:
        """The live per-spec budget (None while "auto" has no sample)."""
        if self.spec_timeout is None:
            return None
        if self.spec_timeout == "auto":
            if self._slowest_ok <= 0.0:
                return None
            return max(5.0, 10.0 * self._slowest_ok)
        return float(self.spec_timeout)

    # -- the pool path -----------------------------------------------------------

    def _run_pool(
        self, units: list[list[str]], to_run: dict[str, ScenarioSpec],
        notify: Callable[[RunRecord], None],
    ) -> dict[str, RunRecord]:
        """Parallel execution of the units with a watchdog; returns
        whatever completed (possibly nothing if the platform cannot spawn
        a pool — the caller's serial loop fills the gaps).

        At most ``jobs`` units run at once, so a unit's deadline
        (``spec_timeout`` per cell) counts from its submission.  An
        overdue unit gets the pool generation killed (SIGKILL: a hung
        worker may ignore anything milder) and, a unit of one, lands a
        terminal ``timeout``.  A worker death (OOM kill, segfault) breaks
        every inflight future, and the pool is rebuilt with bounded
        exponential backoff.  Only a cell that died alone — the one cell
        in flight — is charged an attempt: it is retried up to
        ``retries`` times, then quarantined.  A death that takes more
        than one cell down charges nobody, since culprit and collateral
        look alike: each of those cells goes back as a unit of one that
        runs alone from then on, so the culprit's next death is its own.
        """
        from concurrent.futures import FIRST_COMPLETED, wait

        pool_errors = _pool_errors()
        tel = self.telemetry
        computed: dict[str, RunRecord] = {}
        queue = deque(units)
        attempts = dict.fromkeys(to_run, 0)
        rebuilds = 0
        pool = self._new_pool()
        if pool is None:
            return computed
        inflight: dict = {}     # future -> (unit, started_at)

        def land(record: RunRecord, key: str) -> None:
            computed[key] = record
            self._land(record, notify)      # may raise: finally kills

        def split(unit: list[str]) -> None:
            """Send the unit's cells back as units of one, at no cost."""
            for key in unit:
                attempts[key] -= 1
                queue.append([key])

        alone: set[str] = set()     # cells lost beside others
        solo = False                # inflight holds one of them
        try:
            while queue or inflight:
                while queue and len(inflight) < self.jobs:
                    lone = queue[0][0] in alone
                    if inflight and (solo or lone):
                        break
                    solo = lone
                    unit = queue.popleft()
                    for key in unit:
                        attempts[key] += 1
                    try:
                        future = pool.submit(
                            _unit_records, [to_run[key] for key in unit],
                            tel is not None, self._execute,
                        )
                    except pool_errors:
                        return computed       # degrade to the serial path
                    inflight[future] = (unit, time.monotonic())

                timeout = self._current_timeout()
                wait_s = None if timeout is None else max(0.05, min(
                    started + timeout * len(unit)
                    for unit, started in inflight.values()
                ) - time.monotonic())
                finished, _ = wait(set(inflight), timeout=wait_s,
                                   return_when=FIRST_COMPLETED)

                lost: list[str] = []
                for future in finished:
                    unit, _started = inflight.pop(future)
                    try:
                        outcomes = future.result()
                    except pool_errors:
                        lost += unit
                        continue
                    for i, record in outcomes:
                        record.attempts = attempts[unit[i]]
                        land(record, unit[i])

                broken = bool(lost)
                if broken:
                    # One death poisons the whole generation: every other
                    # inflight future is about to raise BrokenProcessPool.
                    if tel is not None:
                        tel.counters("sweep.fault").inc("worker_lost")
                        tel.flight.dump("worker death", "sweep")
                    for unit, _started in inflight.values():
                        lost += unit
                    key = lost[0]
                    if len(lost) > 1:           # culprit unknown: free
                        split(lost)
                        alone.update(lost)
                    elif attempts[key] <= self.retries:
                        if tel is not None:
                            tel.counters("sweep.fault").inc("retries")
                        queue.append([key])
                    else:
                        land(RunRecord.failure(
                            to_run[key], "error", attempts=attempts[key],
                            detail=f"worker lost {attempts[key]} times "
                                   f"(retries={self.retries} exhausted)",
                        ), key)
                else:
                    timeout = self._current_timeout()
                    now = time.monotonic()
                    overdue = set() if timeout is None else {
                        future for future, (unit, started) in inflight.items()
                        if now - started > timeout * len(unit)
                    }
                    if not overdue:
                        continue
                    # Watchdog: kill the generation, land an overdue unit
                    # of one as a terminal timeout and requeue the rest.
                    span = tel.span("sweep.watchdog", overdue=len(overdue)) \
                        if tel is not None else nullcontext()
                    with span:
                        self._kill_pool(pool)
                        for future, (unit, started) in inflight.items():
                            if future not in overdue or len(unit) > 1:
                                split(unit)     # killed for another unit,
                                continue        # or for a larger unit
                            if tel is not None:
                                tel.counters("sweep.fault").inc("timeouts")
                            land(RunRecord.failure(
                                to_run[unit[0]], "timeout",
                                wall_time_s=now - started,
                                attempts=attempts[unit[0]],
                                detail=f"exceeded {timeout:.1f}s "
                                       f"wall-clock budget",
                            ), unit[0])
                inflight.clear()
                self._kill_pool(pool)
                rebuilds += 1
                if broken:
                    time.sleep(min(_BACKOFF_CAP_S,
                                   _BACKOFF_BASE_S * 2 ** (rebuilds - 1)))
                pool = self._new_pool()
                if pool is None:
                    return computed
        finally:
            self._kill_pool(pool)
        return computed

    # -- pool lifecycle ----------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor | None:
        from concurrent.futures import ProcessPoolExecutor

        try:
            return ProcessPoolExecutor(max_workers=self.jobs)
        except _pool_errors():
            return None

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor | None) -> None:
        """Tear a pool down without waiting on its workers.

        SIGKILL, not terminate: a spec stuck in a tight simulation loop
        never reaches a Python signal handler.  Reaches into
        ``pool._processes`` (CPython implementation detail) defensively —
        if the attribute moves, we degrade to a plain shutdown.
        """
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)
