"""The campaign server: a stdlib-only JSON API over the scheduler.

``http.server.ThreadingHTTPServer`` + one handler — no frameworks, no
new dependencies.  One thread per request; each handler validates its
request, then posts it to the scheduler's owner thread and waits for the
reply.  Long-lived requests (the NDJSON event stream) park on the owner
between events, so they coexist with submissions.  A malformed request
is answered 400 with an ``error`` message.  :class:`LocalWorkerPool`
threads run the head's own queue through the task path remote workers
take (:func:`repro.service.worker.run_task`).

API (see ``docs/SERVICE.md`` for the full reference):

===========  =============================  =====================================
``POST``     ``/campaigns``                 submit a campaign spec → ids
``GET``      ``/campaigns/{id}``            status document
``DELETE``   ``/campaigns/{id}``            cancel
``GET``      ``/campaigns/{id}/events``     NDJSON progress stream
``GET``      ``/jobs/{id}/result``          one job's result document
``GET``      ``/healthz``                   liveness, version, source fingerprint
``GET``      ``/metrics``                   JSON counters
``POST``     ``/lease`` ``/complete`` ``/fail``  worker protocol
===========  =============================  =====================================
"""

from __future__ import annotations

import json
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Union

from .. import __version__
from ..stats.export import run_result_to_dict
from ..exec.cache import sim_fingerprint
from ..exec.jobs import result_from_payload
from .scheduler import JOB_FAILED, Scheduler, SchedulerClosed
from .spec import SpecError
from .store import ArtifactStore
from .worker import run_task

DEFAULT_PORT = 8752

_CAMPAIGN_RE = re.compile(r"^/campaigns/([A-Za-z0-9_.-]+)$")
_EVENTS_RE = re.compile(r"^/campaigns/([A-Za-z0-9_.-]+)/events$")
_RESULT_RE = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)/result$")

#: How long one blocking poll of the event stream waits before emitting
#: nothing and re-checking the client is still connected.
_EVENT_POLL_SECONDS = 5.0


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
                run_task(leases[0], worker_id, self.scheduler.complete,
                         self.scheduler.fail)
        except SchedulerClosed:
            pass  # the server stopped while this task ran; it re-runs on resume


class _BadRequest(ValueError):
    """A malformed request, answered 400 with this message."""


def _json_object(body) -> Dict:
    if not isinstance(body, dict):
        raise _BadRequest("request body must be a JSON object")
    return body


def _task_key(body: Dict) -> str:
    if "key" not in body:
        raise _BadRequest('missing "key"')
    if not isinstance(body["key"], str):
        raise _BadRequest('"key" must be a string')
    return body["key"]


def _convert(body: Dict, name: str, convert, default):
    """``convert(body[name])`` (or of ``default``); 400 if it raises."""
    try:
        return convert(body.get(name, default))
    except (TypeError, ValueError):
        raise _BadRequest(f'"{name}" is not a valid {convert.__name__}') from None


def job_result_document(record, payload: Dict) -> Dict:
    """The result document for ``GET /jobs/{id}/result``: the stored
    payload's :func:`run_result_to_dict` (the ``repro-sim run --json``
    document) plus the job's own fields."""
    result = result_from_payload(payload)
    return {
        **run_result_to_dict(result),
        "job_id": record.job_id,
        "campaign_id": record.campaign_id,
        "key": record.key,
        "label": record.job.label(),
        "resolution": record.resolution,
        "overrides": {name: value for name, value in record.job.overrides},
        "machine": result.spec.machine,
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`CampaignServer`."""

    server_version = f"repro-sim/{__version__}"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        return self.server.campaign_server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.campaign_server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send_json(self, status: int, document: Dict) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self):
        """The request body's JSON value (``{}`` when empty)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _BadRequest("Content-Length is not an integer") from None
        if length < 0:
            raise _BadRequest("Content-Length is negative")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _BadRequest("request body is not valid JSON") from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/healthz":
                self._send_json(200, {"ok": True, "version": __version__,
                                      "sim_fingerprint": sim_fingerprint()})
            elif self.path == "/metrics":
                self._send_json(200, self.scheduler.metrics())
            elif match := _CAMPAIGN_RE.match(self.path):
                self._get_campaign(match.group(1))
            elif match := _EVENTS_RE.match(self.path):
                self._stream_events(match.group(1))
            elif match := _RESULT_RE.match(self.path):
                self._get_result(match.group(1))
            else:
                self._error(404, f"no such endpoint {self.path!r}")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            body = self._read_json()
            if self.path == "/campaigns":
                self._submit(body)
            elif self.path == "/lease":
                self._lease(_json_object(body))
            elif self.path == "/complete":
                self._complete(_json_object(body))
            elif self.path == "/fail":
                self._fail(_json_object(body))
            else:
                self._error(404, f"no such endpoint {self.path!r}")
        except _BadRequest as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        match = _CAMPAIGN_RE.match(self.path)
        if not match:
            self._error(404, f"no such endpoint {self.path!r}")
            return
        if self.scheduler.cancel(match.group(1)):
            self._send_json(200, self.scheduler.campaign_status(match.group(1)))
        else:
            self._error(404, f"no such campaign {match.group(1)!r}")

    # ------------------------------------------------------------------
    # Endpoint bodies
    # ------------------------------------------------------------------
    def _submit(self, body: Dict) -> None:
        try:
            status = self.scheduler.submit(body)
        except SpecError as exc:
            self._error(400, str(exc))
            return
        self._send_json(201, status)

    def _get_campaign(self, campaign_id: str) -> None:
        status = self.scheduler.campaign_status(campaign_id)
        if status is None:
            self._error(404, f"no such campaign {campaign_id!r}")
        else:
            self._send_json(200, status)

    def _get_result(self, job_id: str) -> None:
        record, payload = self.scheduler.job_result(job_id)
        if record is None:
            self._error(404, f"no such job {job_id!r}")
        elif payload is None:
            if record.state == JOB_FAILED:
                self._error(410, f"job {job_id} failed: {record.error}")
            else:
                self._error(409, f"job {job_id} is {record.state}")
        else:
            self._send_json(200, job_result_document(record, payload))

    def _stream_events(self, campaign_id: str) -> None:
        if self.scheduler.campaign_status(campaign_id) is None:
            self._error(404, f"no such campaign {campaign_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        index = 0
        while True:
            events, index, terminal = self.scheduler.events_since(
                campaign_id, index, timeout=_EVENT_POLL_SECONDS
            )
            for event in events:
                self.wfile.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
            self.wfile.flush()
            if terminal:
                return

    def _lease(self, body: Dict) -> None:
        max_tasks = _convert(body, "max_tasks", int, 1)
        # A worker on other code would store its results under this code's keys.
        theirs, ours = body.get("sim_fingerprint"), sim_fingerprint()
        if theirs != ours:
            self._error(409, f"worker runs simulator {theirs!r}, this server runs "
                             f"{ours!r}; a remote worker must run the server's tree")
            return
        tasks = self.scheduler.lease(
            max_tasks=max_tasks, worker=str(body.get("worker", "remote")),
        )
        self._send_json(200, {"tasks": tasks})

    def _complete(self, body: Dict) -> None:
        key = _task_key(body)
        if "payload" not in body:
            raise _BadRequest('missing "payload"')
        elapsed = _convert(body, "elapsed", float, 0.0)
        try:
            result_from_payload(body["payload"])
        except Exception as exc:  # noqa: BLE001 - any malformed payload is the client's
            raise _BadRequest(
                f'"payload" is not a result: {type(exc).__name__}: {exc}'
            ) from None
        accepted = self.scheduler.complete(
            key, body["payload"],
            worker=str(body.get("worker", "remote")),
            elapsed=elapsed,
        )
        self._send_json(200, {"accepted": accepted})

    def _fail(self, body: Dict) -> None:
        accepted = self.scheduler.fail(
            _task_key(body), str(body.get("message", "worker reported failure")),
            worker=str(body.get("worker", "remote")),
        )
        self._send_json(200, {"accepted": accepted})


class CampaignServer:
    """Owns the store, the scheduler, local workers and the HTTP loop."""

    def __init__(
        self,
        store: Union[ArtifactStore, str, "os.PathLike"],
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        local_workers: int = 1,
        lease_ttl: float = 60.0,
        max_attempts: int = 3,
        resume: bool = True,
        verbose: bool = False,
    ):
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.verbose = verbose
        # Bind first: a busy port raises before the scheduler starts its
        # owner thread, so a failed construction leaves no thread behind.
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.campaign_server = self  # type: ignore[attr-defined]
        self.scheduler = Scheduler(
            store, lease_ttl=lease_ttl, max_attempts=max_attempts
        )
        self.pool = LocalWorkerPool(self.scheduler, workers=local_workers, poll=0.2)
        self._thread: Optional[threading.Thread] = None
        self._resume = resume
        self.resumed: list = []

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "CampaignServer":
        """Start workers + HTTP loop on a background thread (tests, CLI)."""
        if self._resume:
            self.resumed = self.scheduler.resume()
        self.pool.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the HTTP loop and the local workers, then close the
        scheduler, which ends every open event stream."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self.pool.stop()
        self.scheduler.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self) -> None:
        """Foreground mode (the ``repro-sim serve`` entry point)."""
        if self._resume:
            self.resumed = self.scheduler.resume()
        self.pool.start()
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self.pool.stop()
            self.scheduler.close()
