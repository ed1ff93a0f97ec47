"""The sweep fabric: guarded execution and the fault-tolerant runner.

:class:`SweepRunner` fans spec lists out over a ``ProcessPoolExecutor``
(serial fallback included).  Because every run is rebuilt from the
spec's seed, serial and parallel sweeps produce byte-identical results.
With telemetry on, each worker's drained records ride back across the
pool on the (non-persisted) ``RunRecord.telemetry`` field and are
ingested into the sweep's own file-backed instance.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from .journal import SweepJournal

from ..obs import Telemetry
from .execute import batchable, execute_batch, execute_spec, validate_specs
from .results import RunCache, RunRecord
from .spec import ScenarioSpec

# Infrastructure failures that mean "this environment cannot fork a pool";
# real execution errors inside a worker become error-status records.
_POOL_ERRORS = (BrokenProcessPool, OSError, PermissionError, ImportError)

ProgressFn = Callable[[RunRecord, int, int], None]

#: Exponential-backoff schedule for pool rebuilds after worker deaths:
#: ``min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2**(rebuilds - 1))``.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0


def execute_spec_guarded(
    spec: ScenarioSpec, telemetry: bool = False,
    execute: Callable[[ScenarioSpec, bool], RunRecord] | None = None,
    attempt: int = 1,
) -> RunRecord:
    """The process-pool work unit, with failure isolation.

    Runs :func:`execute_spec` (or the injected ``execute`` callable —
    the chaos hooks in the test suite use this) and converts any
    in-worker exception into an ``error``-status :class:`RunRecord`
    instead of letting it tear down the pool.  The original exception
    rides back on the non-persisted ``exception`` field (when picklable)
    so the ``failures="raise"`` policy can re-raise it verbatim.
    """
    work = execute if execute is not None else execute_spec
    started = time.perf_counter()
    try:
        record = work(spec, telemetry)
    except Exception as exc:
        return _error_record(spec, exc, started, attempt)
    record.attempts = attempt
    return record


def _error_record(spec: ScenarioSpec, exc: Exception, started: float,
                  attempt: int = 1) -> RunRecord:
    """A failed execution as an ``error``-status record (the exception
    rides along when it can cross a process boundary)."""
    record = RunRecord.failure(
        spec, "error", exc=exc,
        wall_time_s=time.perf_counter() - started, attempts=attempt,
    )
    try:
        pickle.dumps(exc)
    except Exception:
        record.exception = None         # unpicklable: the summary suffices
    return record


def execute_batch_guarded(specs: list[ScenarioSpec],
                          telemetry: bool = False
                          ) -> Iterator[tuple[int, RunRecord]]:
    """:func:`~repro.runner.execute.execute_batch` with the failure
    isolation of :func:`execute_spec_guarded`: a spec that raised comes
    as its own ``error``-status record, and a fault of the batch itself
    fails each spec it had not yet yielded the same way."""
    started = time.perf_counter()
    left = set(range(len(specs)))
    try:
        for i, outcome in execute_batch(specs, telemetry):
            left.discard(i)
            yield i, (outcome if isinstance(outcome, RunRecord)
                      else _error_record(specs[i], outcome, started))
    except Exception as exc:
        for i in sorted(left):
            yield i, _error_record(specs[i], exc, started)


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
    """Executes spec lists: cache first, then parallel (or serial) compute.

    * ``jobs`` — worker processes; 1 (default) runs in-process, serially,
      stepping fluid ``load``/``flows`` specs in lockstep batches
      (:func:`~repro.runner.execute.execute_batch`), each record landing
      as its cell finishes.
    * ``cache`` — a :class:`RunCache` (or a path); hits skip computation
      and completed runs are persisted as soon as they finish.
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
      pool is rebuilt with bounded exponential backoff.  Deterministic
      execution errors are never retried — same spec, same exception.
    * ``spec_timeout`` — per-spec wall-clock budget in seconds; a spec
      still running past it has its worker killed and lands as a
      terminal ``timeout`` record.  ``"auto"`` derives the budget from
      observed runs (10x the slowest fresh ok cell, floor 5s; no
      enforcement until one fresh cell lands).  Enforced on the pool
      path only — a serial (``jobs=1``) run cannot kill itself.
    * ``journal`` — a :class:`~repro.runner.journal.SweepJournal` (or a
      path); every landed cell is appended and fsynced as it finishes,
      making the sweep resumable after a crash (``sweep --resume``).

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

            computed: dict[str, RunRecord] = {}
            if len(to_run) > 1 and self.jobs > 1:
                computed = self._run_pool(to_run, notify)
            batch = self._batch_keys(to_run)
            for key, spec in to_run.items():
                if key in computed:               # pooled or batched
                    continue
                if key in batch:                  # the batch's first spec
                    # Each record lands as its cell finishes, before the
                    # batch steps on.
                    for i, record in execute_batch_guarded(
                            [to_run[k] for k in batch], tel is not None):
                        computed[batch[i]] = record
                        self._land(record, notify)
                    continue
                record = execute_spec_guarded(     # serial / pool fallback
                    spec, tel is not None, self._execute
                )
                computed[key] = record
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

    def _batch_keys(self, to_run: dict[str, ScenarioSpec]) -> list[str]:
        """The serial path's lockstep fluid batch: with ``jobs=1`` and
        no injected ``execute``, every :func:`batchable` spec of the
        call (none when fewer than two).  It runs at the place of its
        first spec, in batches capped by
        :attr:`~repro.fluid.FluidBatch.CAP`."""
        if self.jobs != 1 or self._execute is not None:
            return []
        keys = [key for key, spec in to_run.items() if batchable(spec)]
        return keys if len(keys) > 1 else []

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
        self, to_run: dict[str, ScenarioSpec],
        notify: Callable[[RunRecord], None],
    ) -> dict[str, RunRecord]:
        """Parallel execution with a watchdog; returns whatever completed
        (possibly nothing if the platform cannot spawn a pool — the
        caller's serial loop fills the gaps).

        The submission window is bounded by ``jobs`` so every inflight
        future is actually *running* — which makes submit time a faithful
        start time, and the per-spec deadline meaningful.  Overdue specs
        get the whole pool generation killed (SIGKILL: a hung worker may
        ignore anything milder), land as terminal ``timeout`` records,
        and the collateral inflight specs are requeued onto a fresh pool.
        A worker death (OOM kill, segfault) breaks the pool for every
        inflight future; all of them are requeued — the culprit is
        indistinguishable from the collateral — with attempts bounded by
        ``retries`` and a bounded exponential backoff between rebuilds.
        """
        tel = self.telemetry
        computed: dict[str, RunRecord] = {}
        queue = deque(to_run.items())
        attempts: dict[str, int] = {key: 0 for key in to_run}
        max_attempts = 1 + self.retries
        rebuilds = 0
        pool = self._new_pool()
        if pool is None:
            return computed
        # future -> (key, spec, started_at) for everything submitted.
        inflight: dict = {}

        def land(record: RunRecord, key: str) -> None:
            computed[key] = record
            try:
                self._land(record, notify)
            except BaseException:
                self._kill_pool(pool)
                raise

        def requeue_lost(key: str, spec: ScenarioSpec) -> None:
            """A worker died under this spec: retry or quarantine."""
            if attempts[key] < max_attempts:
                if tel is not None:
                    tel.counters("sweep.fault").inc("retries")
                queue.append((key, spec))
            else:
                land(RunRecord.failure(
                    spec, "error", attempts=attempts[key],
                    detail=f"worker lost {attempts[key]} times "
                           f"(retries={self.retries} exhausted)",
                ), key)

        try:
            while queue or inflight:
                while queue and len(inflight) < self.jobs:
                    key, spec = queue.popleft()
                    attempts[key] += 1
                    try:
                        future = pool.submit(
                            execute_spec_guarded, spec, tel is not None,
                            self._execute, attempts[key],
                        )
                    except _POOL_ERRORS:
                        attempts[key] -= 1
                        queue.appendleft((key, spec))
                        return computed       # degrade to the serial path
                    inflight[future] = (key, spec, time.monotonic())

                timeout = self._current_timeout()
                wait_s = None
                if timeout is not None and inflight:
                    next_deadline = min(
                        started + timeout
                        for _, _, started in inflight.values()
                    )
                    wait_s = max(0.05, next_deadline - time.monotonic())
                finished, _ = wait(set(inflight), timeout=wait_s,
                                   return_when=FIRST_COMPLETED)

                broken = False
                for future in finished:
                    key, spec, _started = inflight.pop(future)
                    try:
                        record = future.result()
                    except _POOL_ERRORS:
                        broken = True
                        requeue_lost(key, spec)
                        continue
                    record.attempts = attempts[key]
                    land(record, key)

                if broken:
                    # One death poisons the whole generation: every other
                    # inflight future is about to raise BrokenProcessPool
                    # too.  Requeue them all and start a fresh pool.
                    if tel is not None:
                        tel.counters("sweep.fault").inc("worker_lost")
                        tel.flight.dump("worker death", "sweep")
                    for future, (key, spec, _started) in list(
                            inflight.items()):
                        requeue_lost(key, spec)
                    inflight.clear()
                    rebuilds += 1
                    pool = self._rebuild_pool(pool, rebuilds)
                    if pool is None:
                        return computed
                    continue

                timeout = self._current_timeout()
                if timeout is None or not inflight:
                    continue
                now = time.monotonic()
                overdue = {
                    future for future, (_k, _s, started) in inflight.items()
                    if now - started > timeout
                }
                if not overdue:
                    continue
                # Watchdog: kill the generation, record the overdue specs
                # as terminal timeouts, requeue the collateral.
                span = tel.span("sweep.watchdog", overdue=len(overdue)) \
                    if tel is not None else nullcontext()
                with span:
                    self._kill_pool(pool)
                    for future, (key, spec, started) in list(
                            inflight.items()):
                        if future in overdue:
                            if tel is not None:
                                tel.counters("sweep.fault").inc("timeouts")
                            land(RunRecord.failure(
                                spec, "timeout",
                                wall_time_s=now - started,
                                attempts=attempts[key],
                                detail=f"exceeded {timeout:.1f}s "
                                       f"wall-clock budget",
                            ), key)
                        else:
                            requeue_lost(key, spec)
                    inflight.clear()
                    rebuilds += 1
                    pool = self._rebuild_pool(pool, rebuilds,
                                              backoff=False)
                    if pool is None:
                        return computed
        finally:
            self._kill_pool(pool)
        return computed

    # -- pool lifecycle ----------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor | None:
        try:
            return ProcessPoolExecutor(max_workers=self.jobs)
        except _POOL_ERRORS:
            return None

    def _rebuild_pool(self, old: ProcessPoolExecutor | None, rebuilds: int,
                      backoff: bool = True) -> ProcessPoolExecutor | None:
        if old is not None:
            self._kill_pool(old)
        if backoff:
            time.sleep(min(_BACKOFF_CAP_S,
                           _BACKOFF_BASE_S * 2 ** (rebuilds - 1)))
        return self._new_pool()

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
