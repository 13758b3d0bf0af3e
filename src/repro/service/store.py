"""The shared artifact store: the result cache plus campaign records.

One directory tree serves every campaign, every local worker thread and
every remote worker pushing results over HTTP::

    <root>/
      cache/<aa>/<key>.json   content-addressed results (ResultCache layout)
      campaigns/<cid>.json    persisted campaign records (server restart)
      ids                     next campaign ordinal
      ids.lock                advisory lock for id allocation

The cache is the only record of a finished task: a restarted server
resolves every key it finds there as a store hit.

Concurrency model
-----------------
* **Cache entries** need no lock: keys are content addresses, writes are
  atomic tmp-file + fsync + ``os.replace`` (see
  :func:`repro.exec.cache.write_atomic`), and two writers racing on one
  key carry identical payloads — last replace wins with the same bytes.
* **Campaign ids** are allocated from a counter file under an advisory
  :class:`FileLock`, so no two writers (two servers on one store, say)
  can mint the same id.  Within one server only the scheduler's owner
  thread writes the store; the file lock orders *processes*.
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exec.cache import ResultCache, write_atomic

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback exercised via flag
    fcntl = None  # type: ignore[assignment]

#: Wall clock for lock deadlines only — never enters results or cache keys.
_clock = time.monotonic  # det-ok: lock timeout bookkeeping, not simulation state


class LockTimeout(RuntimeError):
    """Could not acquire an advisory lock within its timeout."""


class FileLock:
    """Advisory inter-process lock around a small critical section.

    Uses ``fcntl.flock`` where available (POSIX); elsewhere falls back to
    an ``O_CREAT|O_EXCL`` lease file carrying the owner pid, with stale
    leases (older than ``stale`` seconds) broken on the assumption the
    owner died.  Both variants are re-entrant-free and cheap: id
    allocation holds the lock for microseconds.

    A contended acquire retries with exponential backoff plus jitter —
    starting at ``poll`` and doubling up to ``max_poll`` — so a herd of
    workers waking on a released lock does not retry in lockstep.  The
    jitter source is seeded from the pid (deterministic per process,
    decorrelated across processes).  Whichever variant holds the lock
    writes its pid into the lock file, so a :class:`LockTimeout` can
    name the holder and how long it has held on.
    """

    def __init__(
        self,
        path: Union[str, Path],
        timeout: float = 30.0,
        poll: float = 0.01,
        stale: float = 120.0,
        max_poll: float = 0.5,
    ):
        self.path = Path(path)
        self.timeout = timeout
        self.poll = poll
        self.stale = stale
        self.max_poll = max_poll
        self._fd: Optional[int] = None
        self._leased = False
        self._jitter: Optional[random.Random] = None

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        deadline = _clock() + self.timeout
        self.path.parent.mkdir(parents=True, exist_ok=True)
        delay = self.poll
        while True:
            if self._try_acquire():
                return
            now = _clock()
            if now >= deadline:
                raise LockTimeout(
                    f"could not lock {self.path} within {self.timeout}s"
                    f"{self._holder_clause()}"
                )
            if self._jitter is None:
                # Lazy and per-instance: a fork after construction still
                # gets a pid-distinct sequence.
                self._jitter = random.Random(os.getpid())
            # Full jitter over [poll, delay], capped by the deadline.
            sleep_for = min(
                self._jitter.uniform(self.poll, delay), deadline - now
            )
            time.sleep(sleep_for)
            delay = min(delay * 2, self.max_poll)

    def _holder_clause(self) -> str:
        """Best-effort `` (held by pid N for X.Ys)`` from the lock file."""
        try:
            raw = self.path.read_text().strip()
            age = time.time() - os.stat(self.path).st_mtime  # det-ok: diagnostic age in an error message
        except OSError:
            return ""
        pid = raw.splitlines()[0].strip() if raw else ""
        if not pid:
            return ""
        return f" (held by pid {pid} for {age:.1f}s)"

    def release(self) -> None:
        if self._fd is not None:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        if self._leased:
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover - lease broken by another process
                pass
            self._leased = False

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------------------------------------
    def _try_acquire(self) -> bool:
        if fcntl is not None:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                return False
            try:  # advertise the holder for LockTimeout diagnostics
                os.ftruncate(fd, 0)
                os.write(fd, f"{os.getpid()}\n".encode())
            except OSError:  # pragma: no cover - diagnostics only
                pass
            self._fd = fd
            return True
        return self._try_lease()

    def _try_lease(self) -> bool:
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except OSError as exc:
            if exc.errno != errno.EEXIST:  # pragma: no cover - perms etc.
                raise
            self._break_stale_lease()
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{os.getpid()}\n")
        self._leased = True
        return True

    def _break_stale_lease(self) -> None:
        try:
            # Lease age is measured against the file's wall-clock mtime.
            age = time.time() - os.stat(self.path).st_mtime  # det-ok: lock bookkeeping, never simulation state
        except OSError:
            return  # released between our open and stat — retry will win
        if age > self.stale:
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover - raced another breaker
                pass


class ArtifactStore(ResultCache):
    """Content-addressed result store shared by concurrent campaigns.

    A :class:`~repro.exec.cache.ResultCache` under ``<root>/cache`` (same
    keys, same entry layout — a plain ``Executor`` pointed at
    ``<root>/cache`` reads and writes the very same artifacts) plus
    persisted campaign records and campaign-id allocation.
    """

    def __init__(self, root: Union[str, Path], sim_version: Optional[str] = None):
        self.root_dir = Path(root)
        super().__init__(self.root_dir / "cache", sim_version=sim_version)
        self._ids_path = self.root_dir / "ids"
        self._ids_lock = FileLock(self.root_dir / "ids.lock")
        self.campaigns_dir = self.root_dir / "campaigns"

    def record(self, key: str, payload: Dict, job=None) -> None:
        """Persist one completed task: the scheduler's one store write,
        made before it changes any state."""
        self.put(key, payload, job=job)

    # ------------------------------------------------------------------
    # Campaign records
    # ------------------------------------------------------------------
    def next_campaign_id(self) -> str:
        with self._ids_lock:
            try:
                ordinal = int(self._ids_path.read_text().strip() or "0")
            except (OSError, ValueError):
                ordinal = 0
            ordinal += 1
            write_atomic(self._ids_path, f"{ordinal}\n")
        return f"c{ordinal:06d}"

    def campaign_path(self, campaign_id: str) -> Path:
        return self.campaigns_dir / f"{campaign_id}.json"

    def save_campaign(self, record: Dict) -> None:
        """Persist one campaign record (atomic; called on every state
        transition so a killed server can reconstruct its queue)."""
        write_atomic(
            self.campaign_path(record["id"]), json.dumps(record, sort_keys=True)
        )

    def load_campaigns(self) -> List[Dict]:
        """Every persisted campaign record, in id (submission) order."""
        if not self.campaigns_dir.is_dir():
            return []
        records = []
        for path in sorted(self.campaigns_dir.glob("*.json")):
            try:
                records.append(json.loads(path.read_text()))
            except (OSError, ValueError):  # pragma: no cover - torn write
                continue
        return records
