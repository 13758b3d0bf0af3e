"""Parallel experiment orchestration: worker pool, result cache, progress.

The engine takes batches of :class:`~repro.exec.jobs.Job` /
:class:`~repro.sim.runner.RunSpec` work items and executes them on a
fault-tolerant multiprocessing pool with a content-addressed on-disk
result cache, which is also the resume record.  ``run_matrix``,
``Sweep.run`` and every figure/table function in
:mod:`repro.sim.experiments` accept an :class:`Executor`; the CLI exposes
it via ``--jobs`` / ``--cache-dir`` and the ``campaign`` subcommand.

Quick start::

    from repro.exec import Executor
    from repro.sim.runner import RunSpec

    ex = Executor(jobs=4, cache=".repro-cache")
    results = ex.map([RunSpec(("gcc",)), RunSpec(("go",))])
"""

from importlib import import_module
from typing import Any, List

#: Each re-exported name -> the submodule that defines it, imported on
#: first use (:func:`__getattr__`): a simulation imports ``jobs`` but
#: never the process pool, the cache or the progress reporter.
_EXPORTS = {
    **dict.fromkeys(
        ("CACHE_SCHEMA", "ResultCache", "cache_key", "canonicalize", "sim_fingerprint",
         "write_atomic"),
        ".cache",
    ),
    **dict.fromkeys(("Chaos", "Job", "JobFailure", "JobOutcome", "run_job"), ".jobs"),
    **dict.fromkeys(("ExecutionError", "Executor"), ".pool"),
    **dict.fromkeys(("ProgressEvent", "ProgressReporter", "format_line"), ".progress"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
