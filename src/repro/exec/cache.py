"""Content-addressed result cache: the one record of a finished point.

Cache key
---------
A result is addressed by the SHA-256 of a canonical JSON document built
from everything that determines a simulation's output:

* the ``RunSpec`` fields (workload, commit/cycle windows, thresholds),
* the fully *resolved* :class:`~repro.pipeline.config.MachineConfig`
  (machine + features + policy + any sweep overrides, every field),
* the workload-suite fingerprint (kernel names and generated sources at
  the suite's iteration count),
* the simulator version fingerprint (``repro.__version__``) and the cache
  schema version.

Because the resolved config is hashed field-by-field, any change to a
machine parameter, feature set, or policy produces a different key; no
invalidation logic is needed beyond "bump ``__version__`` when simulator
behaviour changes".

Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON document per result,
written atomically (tmp + fsync + rename) as each point lands, so a
killed run never leaves a torn entry and re-running an interrupted
campaign over the same root resumes where it left off.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Union

from ..workloads.suite import WorkloadSuite
from .jobs import Job, job_to_payload, spec_to_payload

#: Bump when the cached payload layout changes (invalidates all entries).
CACHE_SCHEMA = 1


def _default_sim_version() -> str:
    # Imported lazily: ``repro/__init__`` itself imports this package.
    from .. import __version__

    return __version__


def canonicalize(value):
    """Reduce configs (nested dataclasses, enums, tuples) to plain JSON-able
    structures with deterministic ordering."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in sorted(dataclasses.fields(value), key=lambda f: f.name)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers never observe a torn file.

    tmp file in the same directory → flush → fsync → ``os.replace``.  The
    fsync matters: without it a crash shortly after the rename can leave
    a zero-length or truncated file at the *final* path on some
    filesystems, which is exactly the "poisoned entry" failure mode the
    cache must never produce.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_key(job: Job, suite_fingerprint: str, sim_version: Optional[str] = None) -> str:
    """Stable content address for one job's result."""
    document = {
        "schema": CACHE_SCHEMA,
        "sim_version": sim_version or _default_sim_version(),
        "suite": suite_fingerprint,
        "spec": canonicalize(spec_to_payload(job.spec)),
        "config": canonicalize(job.resolved_config()),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed on-disk store of simulation result payloads."""

    def __init__(self, root: Union[str, Path], sim_version: Optional[str] = None):
        self.root = Path(root)
        self.sim_version = sim_version or _default_sim_version()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key_for(self, job: Job, suite: WorkloadSuite) -> str:
        return cache_key(job, suite.fingerprint(), self.sim_version)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """The stored result payload for ``key``, or None.

        A corrupt entry (truncated JSON from a disk-full write or a
        pre-atomic-write simulator, wrong schema, missing payload) is
        *deleted* on read, so a poisoned key heals itself: the next
        :meth:`put` stores a fresh entry instead of the corpse sitting
        in the store forever.
        """
        path = self.path_for(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self.misses += 1
            self._evict_corrupt(path)
            return None
        if entry.get("schema") != CACHE_SCHEMA or "payload" not in entry:
            self.misses += 1
            self._evict_corrupt(path)
            return None
        self.hits += 1
        return entry["payload"]

    @staticmethod
    def _evict_corrupt(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone / unwritable dir
            pass

    def put(self, key: str, payload: Dict, job: Optional[Job] = None) -> Path:
        """Atomically store ``payload`` under ``key``.

        The entry is written to a temp file in the destination directory,
        flushed *and fsynced*, then :func:`os.replace`d into place — a
        process killed at any point leaves either the old entry or the new
        one at ``path``, never a truncated hybrid, and concurrent writers
        of the same key are safe (last replace wins with identical bytes:
        keys are content addresses, so both writers carry the same data).
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "sim_version": self.sim_version,
            "created": time.time(),  # det-ok: informational metadata; never part of key or payload
            "job": job_to_payload(job) if job is not None else None,
            "payload": payload,
        }
        write_atomic(path, json.dumps(entry))
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))  # det-ok: a count is order-free
