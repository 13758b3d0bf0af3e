"""Workers: turn leased tasks into results, locally or across hosts.

Local and remote workers share one execution path and one protocol —
lease → execute → complete/fail — differing only in transport:

* :class:`LocalWorkerPool` threads call the :class:`~repro.service.scheduler.Scheduler`
  directly (the head node's built-in capacity), which posts each call
  to its owner thread;
* :func:`run_worker` speaks the same three endpoints over HTTP
  (``repro-sim serve --worker http://head:PORT``), so a sweep grid
  shards across as many hosts as are pointed at the head.  Workers are
  stateless: results are pushed back into the head's artifact store and
  a worker that dies simply lets its lease expire and re-queue.

Execution itself is :func:`repro.exec.jobs.execute_payload` (local
threads, one task at a time — the function the multiprocessing pool's
workers run per point) or :func:`repro.exec.jobs.execute_payload_batch`
(a remote worker's lease, run back to back through the same
``run_job``), so service results are bit-identical to
``Executor``/serial ones by construction.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from ..exec.jobs import execute_payload, execute_payload_batch
from .client import ServiceClient
from .scheduler import SchedulerClosed

#: Worker-side wall clock (elapsed reporting, idle timeouts only).
_monotonic = time.monotonic  # det-ok: service timing, not simulation state


def execute_task(task: Dict) -> Dict:
    """Run one leased task document; returns the result payload."""
    return execute_payload(task["payload"], tuple(task["suite"]))


def execute_task_batch(tasks) -> Dict[str, tuple]:
    """Run a lease of tasks as one slice per suite
    (:func:`~repro.exec.jobs.execute_payload_batch`).

    Returns ``{task key: ("ok", result_payload) | ("error", message)}`` —
    per task, so the caller still completes or fails each lease
    individually and resume/dedup semantics are unchanged.
    """
    groups: Dict[tuple, list] = {}
    for task in tasks:
        groups.setdefault(tuple(task["suite"]), []).append(task)
    results: Dict[str, tuple] = {}
    for suite_args, group in sorted(groups.items()):
        try:
            replies = execute_payload_batch([t["payload"] for t in group], suite_args)
        except Exception as exc:  # noqa: BLE001 - whole-slice failure
            replies = [("error", f"{type(exc).__name__}: {exc}")] * len(group)
        for task, reply in zip(group, replies):
            results[task["key"]] = reply
    return results


class LocalWorkerPool:
    """Daemon threads executing the head's own queue (no HTTP hop)."""

    def __init__(self, scheduler, workers: int = 1, poll: float = 0.5,
                 name: str = "local"):
        self.scheduler = scheduler
        self.workers = max(0, int(workers))
        self.poll = poll
        self.name = name
        self._stop = threading.Event()
        self._threads: list = []

    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, args=(f"{self.name}-{index}",),
                name=f"repro-worker-{index}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()

    def _loop(self, worker_id: str) -> None:
        try:
            while not self._stop.is_set():
                leases = self.scheduler.lease(1, worker=worker_id)
                if not leases:
                    self.scheduler.wait_for_work(timeout=self.poll)
                    continue
                self._run_one(leases[0], worker_id)
        except SchedulerClosed:
            pass  # the server stopped while this task ran; it re-runs on resume

    def _run_one(self, task: Dict, worker_id: str) -> None:
        started = _monotonic()
        try:
            payload = execute_task(task)
        except Exception as exc:  # noqa: BLE001 - reported as a task failure
            self.scheduler.fail(task["key"], f"{type(exc).__name__}: {exc}",
                                worker=worker_id)
            return
        self.scheduler.complete(
            task["key"], payload, worker=worker_id,
            elapsed=_monotonic() - started,
        )


def run_worker(
    head_url: str,
    worker_id: str,
    lease_size: int = 1,
    poll: float = 0.5,
    max_idle: Optional[float] = None,
    stop: Optional[threading.Event] = None,
) -> int:
    """Remote worker main loop: lease shards from ``head_url``, execute,
    push results back.  Returns the number of tasks executed.  Exits when
    ``stop`` is set or nothing has been leased for ``max_idle`` seconds
    (None = run forever, the daemon deployment mode).  Each lease of up
    to ``lease_size`` tasks runs as one slice (:func:`execute_task_batch`);
    completion and failure are still reported per task key, so the
    head's artifact store, dedup and resume behaviour are unchanged."""
    client = ServiceClient(head_url)
    executed = 0
    idle_since = _monotonic()
    while stop is None or not stop.is_set():
        tasks = client.lease(max_tasks=lease_size, worker=worker_id)
        if not tasks:
            if max_idle is not None and _monotonic() - idle_since > max_idle:
                break
            time.sleep(poll)
            continue
        idle_since = _monotonic()
        started = _monotonic()
        results = execute_task_batch(tasks)
        elapsed = _monotonic() - started
        for task in tasks:
            status, body = results[task["key"]]
            if status == "ok":
                client.complete_task(task["key"], body, worker=worker_id,
                                     elapsed=elapsed)
                executed += 1
            else:
                client.fail_task(task["key"], str(body), worker=worker_id)
    return executed
