"""The executor: a fault-tolerant multiprocessing pool for simulation jobs.

Design
------
One OS process per job attempt (not a persistent pool): a worker that
hard-crashes or hangs takes down only its own attempt, the parent
``terminate()``s deadline violators, and retries are a fresh process with
clean state.  Job payloads and results cross the pipe as plain dicts, so
workers stay compatible with both ``fork`` and ``spawn`` start methods.
Kernels re-assemble once per worker via the process-global suite cache in
:mod:`repro.exec.jobs` — negligible next to a simulation.

Order of precedence when resolving a job:

1. the resume :class:`~repro.exec.cache.Journal` (if configured),
2. the content-addressed :class:`~repro.exec.cache.ResultCache`,
3. actual execution (serial in-process when ``jobs <= 1``, else the pool).

Every successful execution is written back to both stores.  A job that
exhausts its retries yields a structured :class:`~repro.exec.jobs.JobFailure`
row in its outcome — the batch always completes.

Serial mode (``jobs <= 1``) is the default everywhere and preserves the
historical strictly-sequential semantics: exceptions are still retried and
reported structurally, but per-job timeouts are not enforced (there is no
second process to do the killing) and chaos ``exit`` injection is treated
as an ordinary failure rather than killing the caller.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..sim.runner import RunResult, RunSpec
from ..workloads.suite import WorkloadSuite
from .cache import Journal, ResultCache, cache_key
from .jobs import (
    Chaos,
    Job,
    JobFailure,
    JobOutcome,
    execute_payload,
    execute_payload_batch,
    job_to_payload,
    result_from_payload,
    result_to_payload,
    run_slice,
)
from .progress import ProgressReporter

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


def group_batches(jobs: Sequence[Job], batch_size: int) -> List[List[int]]:
    """Partition job *indices* into slices of up to ``batch_size``.

    Jobs carrying chaos fault-injection run alone (chaos applies per
    attempt, which only makes sense for one-job attempts); the rest are
    chunked in input order.  ``batch_size <= 1`` yields all singletons.
    """
    slices: List[List[int]] = []
    chunk: List[int] = []
    for index, job in enumerate(jobs):
        if job.chaos is not None:
            slices.append([index])
            continue
        chunk.append(index)
        if len(chunk) >= batch_size:
            slices.append(chunk)
            chunk = []
    if chunk:
        slices.append(chunk)
    return slices


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


def _worker_entry(conn, payload: Dict, suite_args: Tuple[int, bool], chaos: Optional[Chaos], attempt: int) -> None:
    """Top-level worker target (must be importable under ``spawn``)."""
    try:
        _apply_chaos(chaos, attempt, allow_exit=True)
        result_payload = execute_payload(payload, suite_args)
        conn.send(("ok", result_payload))
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _batch_worker_entry(conn, payloads: List[Dict], suite_args: Tuple[int, bool]) -> None:
    """Top-level batch worker target: one slice per process.

    Replies ``("batch", [(status, body), ...])`` with one entry per
    payload; per-point failures are structured inside the list, so only
    a whole-slice failure (e.g. a malformed payload) uses the
    ``("error", message)`` shape.
    """
    try:
        conn.send(("batch", execute_payload_batch(payloads, suite_args)))
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    """Book-keeping for one in-flight worker process.

    ``indices`` holds one job index for a classic single-job attempt and
    the whole slice for a batch attempt.
    """

    indices: List[int]
    attempt: int
    process: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    started: float


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
        Per-attempt wall-clock budget in seconds (parallel mode only); a
        worker past its deadline is terminated and the attempt counts as a
        ``"timeout"`` failure.
    journal:
        A :class:`Journal`, a path to one, or None — completed results are
        appended as they land so an interrupted batch resumes for free.
    progress:
        A :class:`ProgressReporter` shared across batches.
    batch_size:
        Slice width.  ``1`` (the default) gives one job per attempt;
        ``N > 1`` makes each first attempt a slice of up to N jobs run
        back to back in one process, in one gc epoch
        (:func:`~repro.exec.jobs.run_slice`).  In parallel mode retries
        re-run failed points singly, ``timeout`` bounds a whole slice
        attempt, and a crashed or timed out slice falls back to
        singleton retries for every member.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[Union[ResultCache, str, "os.PathLike"]] = None,
        retries: int = 2,
        timeout: Optional[float] = None,
        journal: Optional[Union[Journal, str, "os.PathLike"]] = None,
        progress: Optional[ProgressReporter] = None,
        mp_context: Optional[str] = None,
        batch_size: int = 1,
    ):
        self.jobs = max(1, int(jobs))
        self.batch_size = max(1, int(batch_size))
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.retries = max(0, int(retries))
        self.timeout = timeout
        if journal is not None and not isinstance(journal, Journal):
            journal = Journal(journal)
        self.journal = journal
        self.progress = progress
        if progress is not None:
            progress.workers = max(progress.workers, self.jobs)
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)

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
        journaled = self.journal.load() if self.journal is not None else {}

        pending: List[int] = []
        for index, job in enumerate(jobs):
            payload = None
            key = keys[index]
            if key is not None and key in journaled:
                payload = journaled[key]
            elif key is not None and self.cache is not None:
                payload = self.cache.get(key)
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
        if self.cache is None and self.journal is None:
            return [None] * len(jobs)
        fingerprint = suite.fingerprint()
        version = self.cache.sim_version if self.cache is not None else None
        return [cache_key(job, fingerprint, version) for job in jobs]

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
        """Store a fresh result in the cache + journal and finalise it."""
        if key is not None:
            if self.cache is not None:
                self.cache.put(key, payload, job=job)
            if self.journal is not None:
                self.journal.append(key, payload)
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

    def _pending_batches(self, jobs, pending) -> List[List[int]]:
        """Group pending job indices into slices (:func:`group_batches`)."""
        groups = group_batches([jobs[index] for index in pending], self.batch_size)
        return [[pending[position] for position in group] for group in groups]

    # ------------------------------------------------------------------
    def _run_serial(self, jobs, pending, suite, keys, outcomes) -> None:
        """In-process path: each slice runs through :func:`run_slice`, and
        its failed members re-run together until the budget is spent."""
        max_attempts = self.retries + 1
        for indices in self._pending_batches(jobs, pending):
            started = time.monotonic()
            for attempt in range(1, max_attempts + 1):
                members = [jobs[index] for index in indices]
                try:
                    for job in members:  # a chaos job is always alone
                        _apply_chaos(job.chaos, attempt, allow_exit=False)
                except Exception as exc:  # noqa: BLE001 - structured failure row
                    replies = [("error", f"{type(exc).__name__}: {exc}")] * len(members)
                else:
                    replies = run_slice(members, suite)
                elapsed = time.monotonic() - started
                retry: List[int] = []
                for index, (status, body) in zip(indices, replies):
                    if status == "ok":
                        self._commit(index, jobs[index], keys[index],
                                     result_to_payload(body), attempt, elapsed, outcomes)
                    elif attempt < max_attempts:
                        retry.append(index)
                    else:
                        self._fail(index, jobs[index], "error", body, attempt,
                                   elapsed, outcomes)
                indices = retry
                if not indices:
                    break

    # ------------------------------------------------------------------
    def _spawn(self, indices: List[int], attempt: int, jobs, suite) -> _Running:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        suite_args = (suite.iters, suite.extended)
        if len(indices) == 1:
            job = jobs[indices[0]]
            args = (child_conn, job_to_payload(job), suite_args, job.chaos, attempt)
            target = _worker_entry
        else:
            payloads = [job_to_payload(jobs[index]) for index in indices]
            args = (child_conn, payloads, suite_args)
            target = _batch_worker_entry
        process = self._ctx.Process(target=target, args=args, daemon=True)
        process.start()
        child_conn.close()  # parent keeps only the read end
        return _Running(
            indices=list(indices), attempt=attempt, process=process,
            conn=parent_conn, started=time.monotonic(),
        )

    def _reap(self, handle: _Running) -> None:
        handle.conn.close()
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():  # pragma: no cover - stubborn worker
            handle.process.kill()
            handle.process.join(timeout=1.0)

    def _run_parallel(self, jobs, pending, suite, keys, outcomes) -> None:
        """Pool scheduler over work units of one-or-more job indices.

        With ``batch_size == 1`` every unit is a single index and this is
        the classic one-process-per-job-attempt pool.  With batching,
        first attempts are slices (one process runs the whole slice back
        to back) and any failure — a point error inside the slice, or the
        whole worker crashing or timing out — degrades the affected
        indices to singleton retries with the attempt budget carried
        over.
        """
        max_attempts = self.retries + 1
        # Work units awaiting a first attempt.
        queue: List[List[int]] = self._pending_batches(jobs, pending)
        retry_queue: List[Tuple[int, int]] = []  # (index, next attempt)
        running: List[_Running] = []
        started_at: Dict[int, float] = {}

        def launch_capacity() -> None:
            while len(running) < self.jobs and (retry_queue or queue):
                if retry_queue:
                    index, attempt = retry_queue.pop(0)
                    indices = [index]
                else:
                    indices, attempt = queue.pop(0), 1
                now = time.monotonic()
                for index in indices:
                    started_at.setdefault(index, now)
                running.append(self._spawn(indices, attempt, jobs, suite))

        def settle_index(index: int, attempt: int, kind: str, message: str) -> None:
            """One index's attempt ended without a usable result."""
            if attempt >= max_attempts:
                self._fail(
                    index, jobs[index], kind, message,
                    attempt, time.monotonic() - started_at[index], outcomes,
                )
            else:
                retry_queue.append((index, attempt + 1))

        def settle(handle: _Running, kind: str, message: str) -> None:
            """A whole attempt (single or slice) died: settle each member."""
            self._reap(handle)
            for index in handle.indices:
                settle_index(index, handle.attempt, kind, message)

        launch_capacity()
        while running:
            progressed = False
            for handle in list(running):
                if handle.conn.poll():
                    running.remove(handle)
                    progressed = True
                    try:
                        status, body = handle.conn.recv()
                    except (EOFError, OSError):
                        settle(handle, "crash", "worker died mid-reply")
                        continue
                    if status == "ok":
                        self._reap(handle)
                        index = handle.indices[0]
                        self._commit(
                            index, jobs[index], keys[index],
                            body, handle.attempt,
                            time.monotonic() - started_at[index], outcomes,
                        )
                    elif status == "batch":
                        self._reap(handle)
                        for index, (point_status, point_body) in zip(
                            handle.indices, body
                        ):
                            if point_status == "ok":
                                self._commit(
                                    index, jobs[index], keys[index],
                                    point_body, handle.attempt,
                                    time.monotonic() - started_at[index],
                                    outcomes,
                                )
                            else:
                                settle_index(
                                    index, handle.attempt, "error",
                                    str(point_body),
                                )
                    else:
                        settle(handle, "error", str(body))
                elif not handle.process.is_alive():
                    running.remove(handle)
                    progressed = True
                    code = handle.process.exitcode
                    settle(handle, "crash", f"worker exited with code {code}")
                elif (
                    self.timeout is not None
                    and time.monotonic() - handle.started > self.timeout
                ):
                    running.remove(handle)
                    progressed = True
                    handle.process.terminate()
                    settle(handle, "timeout", f"exceeded {self.timeout:.1f}s budget")
            launch_capacity()
            if running and not progressed:
                # Block until any worker has output (bounded, then re-check
                # liveness and deadlines).
                multiprocessing.connection.wait(
                    [handle.conn for handle in running], timeout=_POLL_INTERVAL
                )
