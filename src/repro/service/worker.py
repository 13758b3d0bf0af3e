"""Workers: turn leased tasks into results, locally or across hosts.

Local and remote workers share one execution path and one protocol —
lease → execute → complete/fail — differing only in transport:

* :class:`~repro.service.server.LocalWorkerPool` threads call the
  :class:`~repro.service.scheduler.Scheduler` directly (the head node's
  built-in capacity), which posts each call to its owner thread;
* :func:`run_worker` speaks the same three endpoints over HTTP
  (``repro-sim serve --worker http://head:PORT``), so a sweep grid
  shards across as many hosts as are pointed at the head.  Workers are
  stateless: results are pushed back into the head's artifact store and
  a worker that dies simply lets its lease expire and re-queue.

Both run each task through :func:`run_task`, which calls
:func:`execute_task` — the :func:`repro.exec.jobs.execute_payload` the
multiprocessing pool's workers run per point — and reports it the
moment it finishes, with its own elapsed time, so service results are
bit-identical to ``Executor``/serial ones by construction.
:func:`run_task` looks ``execute_task`` up in this module at call time,
so a patch here reaches local and remote workers alike.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from ..exec.jobs import execute_payload
from ..pipeline.core import gc_epoch
from ..workloads.kernels import DEFAULT_ITERS
from .client import ServiceClient

#: Worker-side wall clock (elapsed reporting, idle timeouts only).
_monotonic = time.monotonic  # det-ok: service timing, not simulation state


def execute_task(task: Dict) -> Dict:
    """Run one leased task document against the default suite; returns
    the result payload."""
    return execute_payload(task["payload"], DEFAULT_ITERS)


def run_task(task: Dict, worker_id: str, complete: Callable, fail: Callable) -> bool:
    """Execute one leased task and report it the moment it finishes:
    ``complete(key, payload, worker=, elapsed=)`` with its own elapsed
    time, or ``fail(key, message, worker=)``.  The scheduler's methods
    and the client's share those signatures.  Returns whether it succeeded."""
    started = _monotonic()
    try:
        payload = execute_task(task)
    except Exception as exc:  # noqa: BLE001 - reported as a task failure
        fail(task["key"], f"{type(exc).__name__}: {exc}", worker=worker_id)
        return False
    complete(task["key"], payload, worker=worker_id, elapsed=_monotonic() - started)
    return True


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
    (None = run forever, the daemon deployment mode).  A lease of up to
    ``lease_size`` tasks runs one task after another inside one gc epoch,
    and each task is completed or failed on its own key the moment it
    finishes, so the head's store, dedup and ETA see it at once."""
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
        with gc_epoch():
            for task in tasks:
                executed += run_task(task, worker_id, client.complete_task,
                                      client.fail_task)
    return executed
