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

from .cache import CACHE_SCHEMA, ResultCache, cache_key, canonicalize, write_atomic
from .jobs import Chaos, Job, JobFailure, JobOutcome, run_job
from .pool import ExecutionError, Executor
from .progress import ProgressEvent, ProgressReporter, format_line

__all__ = [
    "CACHE_SCHEMA",
    "ResultCache",
    "cache_key",
    "canonicalize",
    "write_atomic",
    "Chaos",
    "Job",
    "JobFailure",
    "JobOutcome",
    "run_job",
    "ExecutionError",
    "Executor",
    "ProgressEvent",
    "ProgressReporter",
    "format_line",
]
