"""Stdlib HTTP client for the campaign service (urllib only).

Used by the ``repro-sim submit/status/fetch`` subcommands, by remote
workers (the lease/complete/fail trio), and by tests.  Every method maps
one-to-one onto an endpoint documented in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional

from ..exec.cache import sim_fingerprint

#: Client-side wall clock (poll deadlines only).
_monotonic = time.monotonic  # det-ok: client-side timeouts, not simulation state


class ServiceError(RuntimeError):
    """An HTTP error with the server's JSON error body attached."""

    def __init__(self, status: int, message: str):
        self.status = status
        # status 0 = transport failure (refused/unreachable), no HTTP reply.
        super().__init__(message if status == 0 else f"HTTP {status}: {message}")


class ServiceClient:
    """Thin JSON-over-HTTP wrapper around one campaign server."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except ValueError:
                pass
            raise ServiceError(exc.code, detail) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: {exc.reason}") from exc

    # ------------------------------------------------------------------
    # Campaign API
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict:
        return self._request("GET", "/metrics")

    def submit(self, spec: Dict) -> Dict:
        return self._request("POST", "/campaigns", spec)

    def status(self, campaign_id: str) -> Dict:
        return self._request("GET", f"/campaigns/{campaign_id}")

    def cancel(self, campaign_id: str) -> Dict:
        return self._request("DELETE", f"/campaigns/{campaign_id}")

    def result(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def events(self, campaign_id: str) -> Iterator[Dict]:
        """Stream the campaign's NDJSON progress events until terminal."""
        request = urllib.request.Request(
            f"{self.base_url}/campaigns/{campaign_id}/events"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, exc.read().decode("utf-8", "replace")) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: {exc.reason}") from exc

    def wait(self, campaign_id: str, poll: float = 0.2,
             timeout: Optional[float] = None) -> Dict:
        """Poll until the campaign reaches a terminal state."""
        deadline = None if timeout is None else _monotonic() + timeout
        while True:
            status = self.status(campaign_id)
            if status["state"] != "running":
                return status
            if deadline is not None and _monotonic() > deadline:
                raise TimeoutError(
                    f"campaign {campaign_id} still {status['state']} after {timeout}s"
                )
            time.sleep(poll)

    def fetch_results(self, campaign_id: str) -> List[Dict]:
        """Every finished job's result document, in job order."""
        status = self.status(campaign_id)
        out = []
        for job in status["jobs"]:
            if job["state"] == "done":
                out.append(self.result(job["id"]))
        return out

    # ------------------------------------------------------------------
    # Worker API
    # ------------------------------------------------------------------
    def lease(self, max_tasks: int = 1, worker: str = "worker") -> List[Dict]:
        """Up to ``max_tasks`` tasks; 409 unless this process runs the server's source."""
        reply = self._request(
            "POST", "/lease",
            {"max_tasks": max_tasks, "worker": worker, "sim_fingerprint": sim_fingerprint()},
        )
        return reply["tasks"]

    def complete_task(self, key: str, payload: Dict, worker: str = "worker",
                      elapsed: float = 0.0) -> Dict:
        return self._request(
            "POST", "/complete",
            {"key": key, "payload": payload, "worker": worker, "elapsed": elapsed},
        )

    def fail_task(self, key: str, message: str, worker: str = "worker") -> Dict:
        return self._request(
            "POST", "/fail", {"key": key, "message": message, "worker": worker}
        )
