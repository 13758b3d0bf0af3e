"""Simulation-as-a-service: the campaign server subsystem.

Lifts the :mod:`repro.exec` execution substrate (content-addressed
cache, progress events) behind a long-running, stdlib-only HTTP
service:

* :mod:`~repro.service.store` — the shared, concurrency-safe artifact
  store: a :class:`repro.exec.cache.ResultCache` (the only record of a
  finished task) plus campaign records;
* :mod:`~repro.service.spec` — campaign spec validation/expansion;
* :mod:`~repro.service.scheduler` — dedupe table, lease queue,
  campaign lifecycle, restart resume;
* :mod:`~repro.service.server` — the JSON API (``repro-sim serve``);
* :mod:`~repro.service.worker` — local worker threads and the remote
  worker loop (``repro-sim serve --worker http://head:PORT``), both
  running one task at a time through ``execute_task``;
* :mod:`~repro.service.client` — the urllib client the CLI and remote
  workers share (``repro-sim submit/status/fetch``).

See ``docs/SERVICE.md`` for the API reference and topology.
"""

from .client import ServiceClient, ServiceError
from .scheduler import Scheduler
from .server import DEFAULT_PORT, CampaignServer
from .spec import CampaignSpec, SpecError, parse_campaign, sweep_spec
from .store import ArtifactStore, FileLock, LockTimeout
from .worker import LocalWorkerPool, run_worker

__all__ = [
    "ArtifactStore",
    "CampaignServer",
    "CampaignSpec",
    "DEFAULT_PORT",
    "FileLock",
    "LocalWorkerPool",
    "LockTimeout",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "SpecError",
    "parse_campaign",
    "run_worker",
    "sweep_spec",
]
