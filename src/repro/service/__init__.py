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
* :mod:`~repro.service.server` — the JSON API (``repro-sim serve``) and
  its local worker threads;
* :mod:`~repro.service.worker` — the remote worker loop
  (``repro-sim serve --worker http://head:PORT``) and the one task path
  both kinds of worker run, ``execute_task``;
* :mod:`~repro.service.client` — the urllib client the CLI and remote
  workers share (``repro-sim submit/status/fetch``).

See ``docs/SERVICE.md`` for the API reference and topology.
"""

from importlib import import_module
from typing import Any, List

#: Each re-exported name -> the submodule that defines it, imported on
#: first use (:func:`__getattr__`): a remote worker imports the client
#: and the task path but never the server, the scheduler or the store.
_EXPORTS = {
    **dict.fromkeys(("ServiceClient", "ServiceError"), ".client"),
    **dict.fromkeys(("Scheduler",), ".scheduler"),
    **dict.fromkeys(("DEFAULT_PORT", "CampaignServer", "LocalWorkerPool"), ".server"),
    **dict.fromkeys(("CampaignSpec", "SpecError", "parse_campaign", "sweep_spec"), ".spec"),
    **dict.fromkeys(("ArtifactStore",), ".store"),
    **dict.fromkeys(("run_worker",), ".worker"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
