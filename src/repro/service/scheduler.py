"""The campaign scheduler: dedupe table, lease queue, campaign lifecycle.

Every submitted job maps to a **task** keyed by its content-addressed
cache key.  Tasks are the unit of execution and of deduplication:

* a job whose key resolves from the :class:`~repro.service.store.ArtifactStore`
  cache completes instantly (``resolution="store"``);
* a job whose key matches a task already queued/leased *attaches* to it
  (``resolution="dedup"``) — two clients submitting overlapping sweep
  grids simulate every grid point exactly once;
* otherwise a new task enters the queue (``resolution="run"``).

Tasks are handed out as **leases** (to local worker threads and to
remote workers over HTTP) with a TTL.  A lease that expires — worker
crashed, hung, host vanished — counts as a failed attempt: the task
re-queues until it has been leased ``max_attempts`` times, and then its
jobs fail with a message naming the expired lease.
Completions are written to the store's cache *before* scheduler state
is updated: a server killed between the two resumes the job as a store
hit instead of re-running it.

Campaign records persist in the store on every state transition;
:meth:`Scheduler.resume` re-admits non-terminal campaigns on startup,
resolving keys already in the cache without re-execution — the
kill-the-server-mid-campaign acceptance path.

One owner thread
----------------
:class:`Scheduler` starts one owner thread.  Only that thread touches
the campaigns, jobs, tasks, lease queue, counters and the artifact
store (all held by :class:`_State`, which no other thread references).
Each public method posts a request on a :class:`queue.Queue` and waits
for the owner's reply, so the scheduler needs no lock.  Replies are
fresh documents, copies, or stored payloads that nothing mutates.
``wait_for_work`` and ``events_since`` park on the owner until the state
they wait for arrives or their deadline passes, and leases expire on the
owner's clock.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..exec.cache import cache_key
from ..exec.jobs import Job, job_to_payload, shared_suite
from ..exec.progress import ProgressReporter
from .spec import CampaignSpec, SpecError, parse_campaign
from .store import ArtifactStore

#: Service-side wall clock (lease TTLs, campaign wall time, ETA). Never
#: enters simulation state or cache keys.
_monotonic = time.monotonic  # det-ok: service timing, not simulation state

JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
SETTLED_JOB_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)

CAMPAIGN_RUNNING = "running"
CAMPAIGN_DONE = "done"
CAMPAIGN_FAILED = "failed"
CAMPAIGN_CANCELLED = "cancelled"
TERMINAL_CAMPAIGN_STATES = (CAMPAIGN_DONE, CAMPAIGN_FAILED, CAMPAIGN_CANCELLED)


class SchedulerClosed(RuntimeError):
    """The scheduler was closed; its owner answers no more requests."""


@dataclass
class JobRecord:
    """One client-visible job (campaign-scoped id) bound to a task key."""

    job_id: str
    campaign_id: str
    index: int
    job: Job
    key: str
    state: str = JOB_PENDING
    resolution: str = "run"  # "run" | "store" | "dedup"
    error: Optional[str] = None


@dataclass
class Task:
    """One unit of execution, unique per cache key across all campaigns."""

    key: str
    payload: Dict  # job wire payload (exec.jobs.job_to_payload)
    label: str
    state: str = "queued"  # queued | leased | done | failed
    job_ids: List[str] = field(default_factory=list)
    attempts: int = 0
    worker: Optional[str] = None
    lease_deadline: Optional[float] = None


@dataclass
class Campaign:
    """Server-side record of one submitted campaign."""

    campaign_id: str
    spec: CampaignSpec
    state: str = CAMPAIGN_RUNNING
    job_ids: List[str] = field(default_factory=list)
    started: float = 0.0
    wall_seconds: Optional[float] = None
    reporter: Optional[ProgressReporter] = None
    events: List[Dict] = field(default_factory=list)


def _task_keys(spec: CampaignSpec) -> List[str]:
    """Each job's cache key against the default suite, as an
    :class:`~repro.exec.pool.Executor` files it; pure, so it runs in the
    calling thread."""
    fingerprint = shared_suite().fingerprint()
    return [cache_key(job, fingerprint) for job in spec.jobs]


def _settle(reply: Future, result: Any = None,
            error: Optional[BaseException] = None) -> None:
    """Answer ``reply`` unless something already has."""
    try:
        if error is None:
            reply.set_result(result)
        else:
            reply.set_exception(error)
    except InvalidStateError:
        pass


@dataclass
class _Parked:
    """A request that waits on the owner: ``probe(now, closing)`` returns
    its reply once it is due, None while it must keep waiting."""

    deadline: float
    probe: Callable[[float, bool], Any]


#: What :meth:`Scheduler.close` posts to stop the owner loop.
_CLOSE = None


class Scheduler:
    """Campaign/task state machine over an artifact store, run by one
    owner thread (see the module docstring)."""

    def __init__(
        self,
        store: ArtifactStore,
        lease_ttl: float = 60.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = _monotonic,
    ):
        self.store = store
        self.lease_ttl = lease_ttl
        self.max_attempts = max(1, int(max_attempts))
        self._clock = clock
        self._requests: "queue.Queue" = queue.Queue()
        self._closed = False  # written by the owner only
        self._owner = threading.Thread(
            target=self._serve, name="repro-scheduler", daemon=True
        )
        self._owner.start()

    # ------------------------------------------------------------------
    # Requests (any thread)
    # ------------------------------------------------------------------
    def submit(self, payload: Dict, campaign_id: Optional[str] = None) -> Dict:
        """Validate and admit one campaign; returns its status document.

        Raises :class:`~repro.service.spec.SpecError` on a bad spec (the
        server maps it to HTTP 400).
        """
        spec = parse_campaign(payload)
        return self._call("submit", spec, _task_keys(spec), campaign_id)

    def lease(self, max_tasks: int = 1, worker: str = "local") -> List[Dict]:
        """Hand out up to ``max_tasks`` queued tasks as wire documents."""
        return self._call("lease", max_tasks, worker)

    def wait_for_work(self, timeout: float) -> bool:
        """Block until the queue is non-empty (True) or ``timeout``
        passes (False)."""
        return self._call("wait_for_work", timeout)

    def complete(self, key: str, payload: Dict, worker: str = "local",
                 elapsed: float = 0.0) -> bool:
        """A worker finished ``key``; persist, then settle attached jobs.

        The store write happens *before* scheduler state changes: a crash
        in between resumes as a store hit, never a re-run.  Only a key
        that names a task this scheduler created is written.  Returns
        False for an unknown or already settled key (e.g. a lease that
        expired and was completed elsewhere first).
        """
        return self._call("complete", key, payload, elapsed)

    def fail(self, key: str, message: str, worker: str = "local") -> bool:
        """A worker's attempt on ``key`` failed; retry or fail the jobs."""
        return self._call("fail", key, message)

    def cancel(self, campaign_id: str) -> bool:
        return self._call("cancel", campaign_id)

    def campaign_status(self, campaign_id: str) -> Optional[Dict]:
        return self._call("campaign_status", campaign_id)

    def job_result(self, job_id: str) -> Tuple[Optional[JobRecord], Optional[Dict]]:
        """A copy of one job's record and (if done) its stored payload."""
        return self._call("job_result", job_id)

    def events_since(self, campaign_id: str, index: int,
                     timeout: float = 10.0) -> Tuple[List[Dict], int, bool]:
        """Events after ``index``; blocks up to ``timeout`` for fresh ones.

        Returns ``(new_events, next_index, terminal)`` — the NDJSON
        streaming loop calls this until ``terminal``.
        """
        return self._call("events_since", campaign_id, index, timeout)

    def metrics(self) -> Dict:
        return self._call("metrics")

    def resume(self) -> List[str]:
        """Re-admit campaigns a previous server life left unfinished.

        Completed jobs resolve from the cache (``resolution ==
        "store"``) without re-running; only the remainder re-enters the
        queue.  Returns the resumed campaign ids.
        """
        return self._call("resume")

    def close(self) -> None:
        """Stop the owner.  Parked calls are answered (``wait_for_work``
        False, ``events_since`` terminal); later calls raise
        :class:`SchedulerClosed`."""
        self._requests.put(_CLOSE)
        self._owner.join()

    def _call(self, name: str, *args) -> Any:
        """Post one request to the owner and wait for its reply."""
        if self._closed:
            raise SchedulerClosed("scheduler is closed")
        reply: Future = Future()
        self._requests.put((name, args, reply))
        if self._closed:
            # The owner may have drained its queue before this put.
            _settle(reply, error=SchedulerClosed("scheduler is closed"))
        return reply.result()

    # ------------------------------------------------------------------
    # The owner loop
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        state = _State(self.store, self.lease_ttl, self.max_attempts, self._clock)
        clock, requests = self._clock, self._requests
        while True:
            deadline = state.next_deadline()
            timeout = None if deadline is None else max(0.0, deadline - clock())
            try:
                request = requests.get(timeout=timeout)
            except queue.Empty:
                pass
            else:
                if request is _CLOSE:
                    break
                state.handle(*request)
            state.tick(clock())
        state.tick(clock(), closing=True)
        self._closed = True
        while True:
            try:
                request = requests.get_nowait()
            except queue.Empty:
                return
            if request is not _CLOSE:
                _settle(request[2], error=SchedulerClosed("scheduler is closed"))


class _State:
    """Everything the owner thread reads and writes, and the handlers of
    each request.  Only the owner thread ever references an instance."""

    def __init__(self, store: ArtifactStore, lease_ttl: float,
                 max_attempts: int, clock: Callable[[], float]):
        self.store = store
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self.clock = clock
        self.campaigns: Dict[str, Campaign] = {}
        self.jobs: Dict[str, JobRecord] = {}
        self.tasks: Dict[str, Task] = {}
        self.queue: Deque[str] = deque()  # task keys awaiting a lease
        self.leased: Dict[str, Task] = {}
        self.parked: List[Tuple[_Parked, Future]] = []
        self.counters: Dict[str, int] = {
            "jobs_submitted": 0,
            "jobs_done": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "jobs_from_store": 0,
            "jobs_deduped": 0,
            "jobs_run": 0,
            "tasks_executed": 0,
            "task_attempts": 0,
            "leases_granted": 0,
            "leases_expired": 0,
            "campaigns_submitted": 0,
        }

    # ------------------------------------------------------------------
    # Loop plumbing
    # ------------------------------------------------------------------
    def handle(self, name: str, args: tuple, reply: Future) -> None:
        """Run one request; its reply or exception goes to its caller."""
        try:
            result = getattr(self, name)(*args)
        except Exception as exc:  # noqa: BLE001 - handed back to the caller
            _settle(reply, error=exc)
            return
        if isinstance(result, _Parked):
            self.parked.append((result, reply))
        else:
            _settle(reply, result)

    def tick(self, now: float, closing: bool = False) -> None:
        """Expire overdue leases (each one a failed attempt), then answer
        every parked request that is due (all of them when ``closing``)."""
        for key in sorted(self.leased):
            task = self.leased[key]
            if now >= task.lease_deadline:
                self.counters["leases_expired"] += 1
                self.fail(key, f"lease to {task.worker} expired after "
                               f"{self.lease_ttl:g}s on attempt "
                               f"{task.attempts} of {self.max_attempts}")
        waiting = []
        for parked, reply in self.parked:
            answer = parked.probe(now, closing)
            if answer is None:
                waiting.append((parked, reply))
            else:
                _settle(reply, answer)
        self.parked = waiting

    def next_deadline(self) -> Optional[float]:
        """When the owner must wake with no request: the earliest lease
        or parked-call deadline."""
        deadlines = [task.lease_deadline for task in self.leased.values()]  # det-ok: order-independent min
        deadlines += [parked.deadline for parked, _ in self.parked]
        return min(deadlines, default=None)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec, keys: List[str],
               campaign_id: Optional[str]) -> Dict:
        if campaign_id is None:
            campaign_id = self.store.next_campaign_id()
        campaign = Campaign(
            campaign_id=campaign_id,
            spec=spec,
            started=self.clock(),
            reporter=ProgressReporter(clock=self.clock),
        )
        campaign.reporter.add_total(len(spec.jobs))
        self.campaigns[campaign_id] = campaign
        self.counters["campaigns_submitted"] += 1
        stored = [self.store.get(key) for key in keys]
        finished: List[JobRecord] = []
        for index, (job, key, payload) in enumerate(zip(spec.jobs, keys, stored)):
            record = JobRecord(
                job_id=f"{campaign_id}.{index:04d}",
                campaign_id=campaign_id,
                index=index,
                job=job,
                key=key,
            )
            self.jobs[record.job_id] = record
            campaign.job_ids.append(record.job_id)
            self.counters["jobs_submitted"] += 1
            if payload is not None:
                record.resolution = "store"
                finished.append(record)
                continue
            task = self.tasks.get(key)
            if task is not None and task.state in ("queued", "leased"):
                record.resolution = "dedup"
                record.state = JOB_RUNNING if task.state == "leased" else JOB_PENDING
                task.job_ids.append(record.job_id)
                self.counters["jobs_deduped"] += 1
                continue
            self.tasks[key] = Task(
                key=key,
                payload=job_to_payload(job),
                label=job.label(),
                job_ids=[record.job_id],
            )
            self.queue.append(key)
        for record in finished:
            self._finish_job(record, ok=True)
        self._persist_campaign(campaign)
        self._maybe_finish_campaign(campaign)
        return self._status(campaign)

    # ------------------------------------------------------------------
    # Leasing (local worker threads and remote workers share this API)
    # ------------------------------------------------------------------
    def lease(self, max_tasks: int, worker: str) -> List[Dict]:
        now = self.clock()
        out = []
        while self.queue and len(out) < max(1, max_tasks):
            key = self.queue.popleft()
            task = self.tasks.get(key)
            if task is None or task.state != "queued":
                continue
            task.state = "leased"
            task.worker = worker
            task.attempts += 1
            task.lease_deadline = now + self.lease_ttl
            self.leased[key] = task
            self.counters["leases_granted"] += 1
            self.counters["task_attempts"] += 1
            for job_id in task.job_ids:
                record = self.jobs.get(job_id)
                if record is not None and record.state == JOB_PENDING:
                    record.state = JOB_RUNNING
            out.append(
                {
                    "key": task.key,
                    "payload": task.payload,
                    "label": task.label,
                    "attempt": task.attempts,
                }
            )
        return out

    def wait_for_work(self, timeout: float) -> _Parked:
        deadline = self.clock() + timeout

        def probe(now: float, closing: bool) -> Optional[bool]:
            if self.queue:
                return True
            return False if closing or now >= deadline else None

        return _Parked(deadline, probe)

    def complete(self, key: str, payload: Dict, elapsed: float) -> bool:
        task = self.tasks.get(key)
        if task is None:
            return False
        self.store.record(key, payload)
        if task.state in ("done", "failed"):
            return False
        task.state = "done"
        task.lease_deadline = None
        self.leased.pop(key, None)
        self.counters["tasks_executed"] += 1
        for job_id in task.job_ids:
            record = self.jobs.get(job_id)
            if record is None or record.state in SETTLED_JOB_STATES:
                continue
            self._finish_job(record, ok=True, elapsed=elapsed)
        return True

    def fail(self, key: str, message: str) -> bool:
        task = self.tasks.get(key)
        if task is None or task.state in ("done", "failed"):
            return False
        task.lease_deadline = None
        self.leased.pop(key, None)
        if task.attempts < self.max_attempts:
            task.state = "queued"
            task.worker = None
            self.queue.append(key)
            for job_id in task.job_ids:
                record = self.jobs.get(job_id)
                if record is not None and record.state not in SETTLED_JOB_STATES:
                    record.state = JOB_PENDING  # ``lease`` marks it running again
            return True
        task.state = "failed"
        for job_id in task.job_ids:
            record = self.jobs.get(job_id)
            if record is None or record.state in SETTLED_JOB_STATES:
                continue
            record.error = message
            self._finish_job(record, ok=False)
        return True

    # ------------------------------------------------------------------
    # Job / campaign settlement
    # ------------------------------------------------------------------
    def _finish_job(self, record: JobRecord, ok: bool, elapsed: float = 0.0) -> None:
        record.state = JOB_DONE if ok else JOB_FAILED
        cached = record.resolution != "run"
        if ok:
            self.counters["jobs_done"] += 1
            if record.resolution == "store":
                self.counters["jobs_from_store"] += 1
            elif record.resolution == "run":
                self.counters["jobs_run"] += 1
        else:
            self.counters["jobs_failed"] += 1
        campaign = self.campaigns.get(record.campaign_id)
        if campaign is None:  # pragma: no cover - job outlived its campaign
            return
        event = campaign.reporter.record(
            cached=cached, failed=not ok, elapsed=elapsed, label=record.job.label()
        )
        entry = event.to_payload()
        entry.update({"type": "job", "job_id": record.job_id, "state": record.state,
                      "resolution": record.resolution})
        campaign.events.append(entry)
        self._maybe_finish_campaign(campaign)

    def _maybe_finish_campaign(self, campaign: Campaign) -> None:
        if campaign.state != CAMPAIGN_RUNNING:
            return
        states = [self.jobs[job_id].state for job_id in campaign.job_ids]
        if any(state in (JOB_PENDING, JOB_RUNNING) for state in states):
            return
        if any(state == JOB_FAILED for state in states):
            self._end_campaign(campaign, CAMPAIGN_FAILED)
        elif any(state == JOB_CANCELLED for state in states):
            self._end_campaign(campaign, CAMPAIGN_CANCELLED)
        else:
            self._end_campaign(campaign, CAMPAIGN_DONE)

    def _end_campaign(self, campaign: Campaign, state: str) -> None:
        campaign.state = state
        campaign.wall_seconds = self.clock() - campaign.started
        campaign.events.append(
            {
                "type": "campaign",
                "campaign_id": campaign.campaign_id,
                "state": campaign.state,
                "wall_seconds": campaign.wall_seconds,
            }
        )
        self._persist_campaign(campaign)

    def _persist_campaign(self, campaign: Campaign) -> None:
        # The record reaches disk before any caller can observe the
        # transition, so a killed server resumes from what it reported.
        self.store.save_campaign(
            {
                "id": campaign.campaign_id,
                "label": campaign.spec.label,
                "state": campaign.state,
                "spec": campaign.spec.raw,
                "wall_seconds": campaign.wall_seconds,
            }
        )

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, campaign_id: str) -> bool:
        campaign = self.campaigns.get(campaign_id)
        if campaign is None:
            return False
        if campaign.state in TERMINAL_CAMPAIGN_STATES:
            return True
        for job_id in campaign.job_ids:
            record = self.jobs[job_id]
            if record.state in SETTLED_JOB_STATES:
                continue
            record.state = JOB_CANCELLED
            self.counters["jobs_cancelled"] += 1
            task = self.tasks.get(record.key)
            if task is not None and job_id in task.job_ids:
                task.job_ids.remove(job_id)
                # A queued task nobody wants any more is dropped; a
                # leased one finishes (its result is still stored for
                # the next campaign) but settles no jobs.
                if not task.job_ids and task.state == "queued":
                    task.state = "failed"
                    self.queue.remove(record.key)
        self._end_campaign(campaign, CAMPAIGN_CANCELLED)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def campaign_status(self, campaign_id: str) -> Optional[Dict]:
        campaign = self.campaigns.get(campaign_id)
        return None if campaign is None else self._status(campaign)

    def _status(self, campaign: Campaign) -> Dict:
        jobs = []
        state_counts: Dict[str, int] = {}
        for job_id in campaign.job_ids:
            record = self.jobs[job_id]
            state_counts[record.state] = state_counts.get(record.state, 0) + 1
            jobs.append(
                {
                    "id": record.job_id,
                    "label": record.job.label(),
                    "key": record.key,
                    "state": record.state,
                    "resolution": record.resolution,
                    "error": record.error,
                }
            )
        wall = campaign.wall_seconds
        if wall is None:
            wall = self.clock() - campaign.started
        return {
            "id": campaign.campaign_id,
            "label": campaign.spec.label,
            "state": campaign.state,
            "wall_seconds": wall,
            "job_states": state_counts,
            "progress": campaign.reporter.event().to_payload(),
            "jobs": jobs,
        }

    def job_result(self, job_id: str) -> Tuple[Optional[JobRecord], Optional[Dict]]:
        record = self.jobs.get(job_id)
        if record is None:
            return None, None
        stored = self.store.get(record.key) if record.state == JOB_DONE else None
        return dataclasses.replace(record), stored

    def events_since(self, campaign_id: str, index: int, timeout: float):
        campaign = self.campaigns.get(campaign_id)
        if campaign is None:
            return [], index, True
        deadline = self.clock() + timeout

        def probe(now: float, closing: bool):
            events = campaign.events
            terminal = campaign.state in TERMINAL_CAMPAIGN_STATES
            if len(events) <= index and not (terminal or closing or now >= deadline):
                return None
            fresh = [dict(event) for event in events[index:]]
            end = index + len(fresh)
            return fresh, end, closing or (terminal and end >= len(events))

        return _Parked(deadline, probe)

    def metrics(self) -> Dict:
        campaign_states: Dict[str, int] = {}
        walls = {}
        for campaign_id in sorted(self.campaigns):
            campaign = self.campaigns[campaign_id]
            campaign_states[campaign.state] = campaign_states.get(campaign.state, 0) + 1
            walls[campaign_id] = (
                campaign.wall_seconds
                if campaign.wall_seconds is not None
                else self.clock() - campaign.started
            )
        done = self.counters["jobs_done"]
        cached = self.counters["jobs_from_store"] + self.counters["jobs_deduped"]
        return {
            "jobs": dict(sorted(self.counters.items())),
            "queue_depth": len(self.queue),
            "leased_tasks": len(self.leased),
            "cache_hit_rate": (cached / done) if done else 0.0,
            "store": {"hits": self.store.hits, "misses": self.store.misses},
            "campaigns": {
                "states": dict(sorted(campaign_states.items())),
                "wall_seconds": walls,
            },
        }

    # ------------------------------------------------------------------
    # Restart / resume
    # ------------------------------------------------------------------
    def resume(self) -> List[str]:
        resumed = []
        for record in self.store.load_campaigns():
            if record.get("state") in TERMINAL_CAMPAIGN_STATES:
                continue
            campaign_id = record.get("id")
            if not campaign_id or campaign_id in self.campaigns:
                continue
            try:
                spec = parse_campaign(record["spec"])
            except SpecError:
                continue  # stored by other code; refused at submit here
            self.submit(spec, _task_keys(spec), campaign_id)
            resumed.append(campaign_id)
        return resumed
