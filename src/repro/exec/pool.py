"""The executor: a fault-tolerant multiprocessing pool for simulation jobs.

Design
------
Up to ``jobs`` worker processes, each fed one point at a time over a
duplex pipe: an idle worker takes the next pending point (retries
first), and each reply lands in the cache and the progress
reporter as soon as its point finishes.  A worker serves at most
``batch_size`` points and then exits.  It holds the garbage collector
off for its whole life and never collects, so its points share one gc
epoch and its memory goes back to the OS when it exits; ``batch_size=1``
is a fresh process per point.  A worker that hard-crashes or hangs takes
down only the point in flight: that point is charged one attempt, the
parent ``terminate()``s deadline violators, and a fresh worker takes the
next point.  Job payloads and results cross the pipe as plain dicts, so
workers stay compatible with both ``fork`` and ``spawn`` start methods.
Kernels re-assemble once per worker via the process-global suite cache in
:mod:`repro.exec.jobs` — negligible next to a simulation.

A job resolves from the content-addressed
:class:`~repro.exec.cache.ResultCache` (if configured), else by actual
execution (serial in-process when ``jobs <= 1``, else the pool).  Every
successful execution is written to the cache as it lands, so the cache
is also the resume record of an interrupted batch.  A job that exhausts
its retries yields a structured :class:`~repro.exec.jobs.JobFailure`
row in its outcome — the batch always completes.

Serial mode (``jobs <= 1``) is the default everywhere and preserves the
historical strictly-sequential semantics: each point lands as it
finishes, exceptions are retried at once and reported structurally, and
chaos ``exit`` injection is treated as an ordinary failure rather than
killing the caller.  It takes no per-job timeout: there is no second
process to do the killing, so an executor with a ``timeout`` and
``jobs <= 1`` is refused at construction.
"""

from __future__ import annotations

import gc
import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..pipeline.core import gc_epoch
from ..sim.runner import RunResult, RunSpec
from ..workloads.suite import WorkloadSuite
from .cache import ResultCache, cache_key
from .jobs import (
    Chaos,
    Job,
    JobFailure,
    JobOutcome,
    execute_payload,
    job_to_payload,
    result_from_payload,
    result_to_payload,
    run_job,
)
from .progress import ProgressReporter

#: No caller: workers run ``execute_payload``.  The name stays bound only
#: because the benchmark's tracer (``perfbench/tracing.py``) patches it on
#: this module next to ``execute_payload``.
execute_payload_batch = None

#: Scheduler poll interval while waiting on workers (seconds).
_POLL_INTERVAL = 0.02


class ExecutionError(RuntimeError):
    """Raised by :meth:`Executor.map` when any job exhausted its retries."""

    def __init__(self, failures: Sequence[JobOutcome]):
        self.failures = list(failures)
        lines = ", ".join(
            f"{o.job.label()}: {o.failure.kind} ({o.failure.message})" for o in self.failures
        )
        super().__init__(f"{len(self.failures)} job(s) failed: {lines}")


def _apply_chaos(chaos: Optional[Chaos], attempt: int, allow_exit: bool) -> None:
    """Honour a job's fault-injection hooks for this attempt."""
    if chaos is None:
        return
    if attempt <= chaos.sleep_first_attempts and chaos.sleep_seconds > 0:
        time.sleep(chaos.sleep_seconds)
    if attempt <= chaos.exit_first_attempts:
        if allow_exit:
            os._exit(13)  # simulated hard crash: no exception, no cleanup
        raise RuntimeError("chaos: injected crash (serial mode)")
    if attempt <= chaos.fail_first_attempts:
        raise RuntimeError("chaos: injected failure")


def _serve(conn, inherited, iters: int, quota: int) -> None:
    """Top-level worker target (must be importable under ``spawn``).

    Serves up to ``quota`` points of the suite at ``iters`` iterations,
    each a ``(payload, chaos, attempt)`` message, and replies
    ``("ok", result_payload)`` or ``("error", message)`` as each
    finishes; ``None`` stops it early.
    ``execute_payload`` is looked up per point through this module's
    globals, so a wrapper installed on it before a fork is what the
    worker runs.

    ``inherited`` are the parent's pipe ends that a ``fork`` copied into
    this worker: its own and those of every live sibling.  Closing them
    all means that once the parent dies, no process holds the parent end
    of any worker's pipe, so every worker blocked in ``recv`` reads EOF.
    """
    for end in inherited:
        end.close()
    gc.disable()  # for good: the worker exits instead of collecting
    try:
        for _ in range(quota):
            message = conn.recv()
            if message is None:
                break
            payload, chaos, attempt = message
            try:
                _apply_chaos(chaos, attempt, allow_exit=True)
                reply = ("ok", execute_payload(payload, iters))
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent is gone
    finally:
        conn.close()


@dataclass
class _Worker:
    """One live worker process and the point it is serving, if any."""

    process: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    served: int = 0
    index: Optional[int] = None  # job index in flight; None while idle
    attempt: int = 0
    dispatched: float = 0.0

    def dispatch(self, index: int, attempt: int, job: Job) -> None:
        self.index, self.attempt, self.dispatched = index, attempt, time.monotonic()
        try:
            self.conn.send((job_to_payload(job), job.chaos, attempt))
        except OSError:
            pass  # it died idle: its pipe reads as EOF, a crash of this point

    def stop(self) -> None:
        """Send an idle worker the stop message, terminate a busy one, and
        join it."""
        if self.index is None:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already gone
        else:
            self.process.terminate()
        self.conn.close()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stubborn worker
            self.process.kill()
            self.process.join(timeout=1.0)


class Executor:
    """Runs batches of jobs with caching, retries, timeouts and progress.

    Parameters
    ----------
    jobs:
        Worker-pool width.  ``<= 1`` selects the serial in-process path.
    cache:
        A :class:`ResultCache`, a directory path to create one in, or None.
    retries:
        Extra attempts after the first failure (so ``retries=2`` means at
        most 3 attempts per job).
    timeout:
        Per-attempt wall-clock budget in seconds, counted from the
        point's dispatch: a worker past it is terminated and that one
        point's attempt counts as a ``"timeout"`` failure.  Only worker
        processes can be stopped, so it needs ``jobs >= 2``;
        :class:`ValueError` otherwise.
    progress:
        A :class:`ProgressReporter` shared across batches.
    batch_size:
        Points per worker process and per gc epoch.  ``1`` (the default)
        is a fresh process per point; ``N > 1`` lets a worker serve up to
        N points, one at a time, before it exits.  In serial mode N
        consecutive points share one gc epoch.  Either way each point
        lands and retries on its own.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[Union[ResultCache, str, "os.PathLike"]] = None,
        retries: int = 2,
        timeout: Optional[float] = None,
        progress: Optional[ProgressReporter] = None,
        batch_size: int = 1,
    ):
        self.jobs = max(1, int(jobs))
        if timeout is not None and self.jobs < 2:
            raise ValueError(f"a timeout needs jobs >= 2 (worker processes "
                             f"to stop), got jobs={jobs}")
        self.batch_size = max(1, int(batch_size))
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.progress = progress
        if progress is not None:
            progress.workers = max(progress.workers, self.jobs)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[Union[Job, RunSpec]], suite: Optional[WorkloadSuite] = None
    ) -> List[JobOutcome]:
        """Execute a batch; one outcome per job, input order preserved."""
        jobs = [job if isinstance(job, Job) else Job(spec=job) for job in jobs]
        suite = suite or WorkloadSuite()
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

        if self.progress is not None:
            self.progress.add_total(len(jobs))

        keys = self._resolve_keys(jobs, suite)

        pending: List[int] = []
        for index, job in enumerate(jobs):
            key = keys[index]
            payload = self.cache.get(key) if key is not None else None
            if payload is not None:
                outcomes[index] = JobOutcome(
                    job=job, result=result_from_payload(payload), cached=True
                )
                self._record(outcomes[index])
            else:
                pending.append(index)

        if pending:
            if self.jobs <= 1:
                self._run_serial(jobs, pending, suite, keys, outcomes)
            else:
                self._run_parallel(jobs, pending, suite, keys, outcomes)
        return [outcome for outcome in outcomes if outcome is not None]

    def map(self, jobs: Sequence[Union[Job, RunSpec]], suite: Optional[WorkloadSuite] = None) -> List[RunResult]:
        """Like :meth:`run` but unwraps results; raises on any failure."""
        outcomes = self.run(jobs, suite=suite)
        failed = [outcome for outcome in outcomes if not outcome.ok]
        if failed:
            raise ExecutionError(failed)
        return [outcome.result for outcome in outcomes]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_keys(self, jobs: Sequence[Job], suite: WorkloadSuite) -> List[Optional[str]]:
        if self.cache is None:
            return [None] * len(jobs)
        fingerprint = suite.fingerprint()
        return [cache_key(job, fingerprint) for job in jobs]

    def _record(self, outcome: JobOutcome) -> None:
        if self.progress is not None:
            self.progress.record(
                cached=outcome.cached,
                failed=not outcome.ok,
                elapsed=outcome.elapsed,
                label=outcome.job.label(),
            )

    def _commit(self, index: int, job: Job, key: Optional[str], payload: Dict,
                attempts: int, elapsed: float, outcomes: List[Optional[JobOutcome]]) -> None:
        """Store a fresh result in the cache and finalise it."""
        if key is not None:
            self.cache.put(key, payload, job=job)
        outcomes[index] = JobOutcome(
            job=job,
            result=result_from_payload(payload),
            attempts=attempts,
            elapsed=elapsed,
        )
        self._record(outcomes[index])

    def _fail(self, index: int, job: Job, kind: str, message: str, attempts: int,
              elapsed: float, outcomes: List[Optional[JobOutcome]]) -> None:
        outcomes[index] = JobOutcome(
            job=job,
            failure=JobFailure(kind=kind, message=message, attempts=attempts),
            attempts=attempts,
            elapsed=elapsed,
        )
        self._record(outcomes[index])

    # ------------------------------------------------------------------
    def _run_serial(self, jobs, pending, suite, keys, outcomes) -> None:
        """In-process path: each point lands as it finishes, a failed point
        is retried at once, and ``batch_size`` consecutive points share
        one gc epoch."""
        max_attempts = self.retries + 1
        for first in range(0, len(pending), self.batch_size):
            with gc_epoch():
                for index in pending[first:first + self.batch_size]:
                    job, started = jobs[index], time.monotonic()
                    for attempt in range(1, max_attempts + 1):
                        try:
                            _apply_chaos(job.chaos, attempt, allow_exit=False)
                            result = run_job(job, suite)
                        except Exception as exc:  # noqa: BLE001 - structured failure row
                            if attempt == max_attempts:
                                self._fail(index, job, "error", f"{type(exc).__name__}: {exc}",
                                           attempt, time.monotonic() - started, outcomes)
                        else:
                            self._commit(index, job, keys[index], result_to_payload(result),
                                         attempt, time.monotonic() - started, outcomes)
                            break

    # ------------------------------------------------------------------
    def _run_parallel(self, jobs, pending, suite, keys, outcomes) -> None:
        """Per-point dispatch over up to ``jobs`` workers.

        Every idle worker takes the next pending point (retries first),
        and workers are started up to ``jobs`` while work remains.  Each
        reply is committed the moment it arrives.  A dead worker
        (``"crash"``) or one past ``timeout`` since dispatch
        (``"timeout"``) charges an attempt to its point in flight only;
        a worker that has served its quota is joined and replaced.
        """
        max_attempts = self.retries + 1
        todo: Deque[Tuple[int, int]] = deque((index, 1) for index in pending)
        first_dispatched: Dict[int, float] = {}
        workers: List[_Worker] = []

        def start() -> _Worker:
            """A fresh worker.  Under ``fork`` it inherits the parent's end
            of its own pipe and of every live sibling's, and closes them
            all (see ``_serve``); under ``spawn`` it inherits none."""
            parent_end, child_end = self._ctx.Pipe()
            forked = self._ctx.get_start_method() == "fork"
            inherited = [parent_end] + [worker.conn for worker in workers] if forked else []
            process = self._ctx.Process(
                target=_serve,
                args=(child_end, inherited, suite.iters, self.batch_size),
                daemon=True,
            )
            process.start()
            child_end.close()  # the parent keeps only its own end
            workers.append(_Worker(process=process, conn=parent_end))
            return workers[-1]

        def settle(index: int, attempt: int, kind: str, message: str) -> None:
            """One attempt of a point ended without a result."""
            if attempt < max_attempts:
                todo.appendleft((index, attempt + 1))
            else:
                self._fail(index, jobs[index], kind, message, attempt,
                           time.monotonic() - first_dispatched[index], outcomes)

        def retire(worker: _Worker, kind: str) -> None:
            """Stop a dead or overdue worker; only its point in flight pays."""
            workers.remove(worker)
            worker.stop()
            message = (f"exceeded {self.timeout:.1f}s budget" if kind == "timeout"
                       else f"worker exited with code {worker.process.exitcode}")
            settle(worker.index, worker.attempt, kind, message)

        try:
            while True:
                idle = [worker for worker in workers if worker.index is None]
                while todo and (idle or len(workers) < self.jobs):
                    worker = idle.pop(0) if idle else start()
                    index, attempt = todo.popleft()
                    first_dispatched.setdefault(index, time.monotonic())
                    worker.dispatch(index, attempt, jobs[index])
                busy = {worker.conn: worker for worker in workers if worker.index is not None}
                if not busy:
                    break
                for conn in multiprocessing.connection.wait(list(busy), timeout=_POLL_INTERVAL):
                    worker = busy[conn]
                    try:
                        status, body = conn.recv()
                    except (EOFError, OSError):
                        retire(worker, "crash")
                        continue
                    index, attempt, worker.index = worker.index, worker.attempt, None
                    if status == "ok":
                        self._commit(index, jobs[index], keys[index], body, attempt,
                                     time.monotonic() - first_dispatched[index], outcomes)
                    else:
                        settle(index, attempt, "error", str(body))
                    worker.served += 1
                    if worker.served >= self.batch_size:
                        workers.remove(worker)
                        worker.stop()
                if self.timeout is not None:
                    now = time.monotonic()
                    for worker in [worker for worker in workers if worker.index is not None
                                   and now - worker.dispatched > self.timeout]:
                        retire(worker, "timeout")
        finally:
            for worker in workers:
                worker.stop()
