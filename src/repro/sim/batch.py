"""Lockstep batch simulation: many sweep points, one process.

A :class:`BatchRunner` builds one :class:`~repro.pipeline.core.Core`
per sweep point and steps them in lockstep rounds.  The cores share
nothing mutable:

* **Shared, immutable by type**: the
  :class:`~repro.workloads.suite.WorkloadSuite` assembles each
  ``(kernel, slot, iters)`` program once and the same frozen
  :class:`~repro.isa.program.Program` images load into every core.
* **Per-core**: everything else — register files, contexts, queues,
  predictors, hierarchies, stats, and the
  :class:`~repro.pipeline.uopcache.DecodedUopCache`, exactly as in a
  serial run.

Each round, every live core advances up to ``quantum`` simulated
cycles.  Cores whose pipelines are provably idle (queues drained, no
completions due, fetch stalled — see
:meth:`~repro.pipeline.core.Core.next_activity_cycle`) fast-forward to
their next wakeup instead of stepping no-op cycles, bulk-recording the
gap as idle utilization so averages and histograms stay bit-identical
to a serial run.  Progress is aggregated once per round, not per core.

Correctness discipline: every point simulated in a batch is
bit-identical — every ``SimStats`` field, utilization, error cycle
stamps — to the same point run serially, regardless of batch
composition or size.

Failure isolation matches the executor's: a point that raises records a
structured error on its :class:`BatchPoint` and the rest of the batch
runs to completion.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..pipeline.core import Core, SimulationError
from ..workloads.suite import WorkloadSuite
from .runner import RunResult

#: Cycles each live core advances per lockstep round.  Large enough to
#: amortise the round-robin overhead, small enough that progress events
#: and point completions interleave usefully.
DEFAULT_QUANTUM = 1024

#: Mirrors the ``deadlock_limit`` default of :meth:`Core.run`.
DEFAULT_DEADLOCK_LIMIT = 20_000


def batch_compatibility_key(job) -> tuple:
    """Jobs may share a lockstep batch iff this key matches.

    Machine configuration families must agree (mixing machine models in
    one batch is almost always a spec error); workloads, features,
    targets and field overrides may vary freely.
    """
    return (job.spec.machine,)


def validate_batch(jobs: Sequence) -> None:
    """Eager validation: reject batches mixing incompatible machines."""
    if not jobs:
        raise ValueError("empty batch")
    keys = {batch_compatibility_key(job) for job in jobs}
    if len(keys) > 1:
        machines = sorted(key[0] for key in keys)
        raise ValueError(
            f"batch mixes incompatible machine configs: {machines}; "
            f"group jobs by machine (see repro.sim.batch.group_batches)"
        )


def group_batches(jobs: Sequence, batch_size: int) -> List[List[int]]:
    """Partition job *indices* into compatible batches of ``batch_size``.

    Grouping is by :func:`batch_compatibility_key`, preserving input
    order within each group.  Jobs carrying chaos fault-injection run as
    singletons (chaos is an engine-test hook applied per attempt, which
    only makes sense for one-job attempts).  ``batch_size <= 1`` yields
    all singletons — the classic one-point-per-attempt behaviour.
    """
    batches: List[List[int]] = []
    if batch_size <= 1:
        return [[index] for index in range(len(jobs))]
    open_batches: Dict[tuple, List[int]] = {}
    for index, job in enumerate(jobs):
        if getattr(job, "chaos", None) is not None:
            batches.append([index])
            continue
        key = batch_compatibility_key(job)
        batch = open_batches.get(key)
        if batch is None:
            batch = open_batches[key] = []
            batches.append(batch)
        batch.append(index)
        if len(batch) >= batch_size:
            del open_batches[key]
    return batches


@dataclass
class BatchPoint:
    """Outcome of one sweep point in a batch: result xor error."""

    job: object
    result: Optional[RunResult] = None
    error: Optional[str] = None  # "ExcType: message", executor-style

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class BatchProgress:
    """Aggregate progress emitted once per lockstep round."""

    rounds: int
    points_total: int
    points_done: int
    points_failed: int
    cycles: int  # simulated cycles summed over all points
    committed: int  # committed instructions summed over all points


class _PointDriver:
    """One core's run loop, sliced into quanta for the lockstep round.

    Replicates :meth:`Core.run` exactly — same done checks, same
    deadlock stamp, same ``max_cycles`` cutoff — plus the next-activity
    fast-forward, which only ever replaces cycles that a serial run
    would have stepped as provable no-ops.
    """

    __slots__ = ("job", "core", "max_cycles", "deadlock_limit", "done", "error")

    def __init__(self, job, core: Core, max_cycles: int, deadlock_limit: int):
        self.job = job
        self.core = core
        self.max_cycles = max_cycles
        self.deadlock_limit = deadlock_limit
        self.done = False
        self.error: Optional[str] = None

    def _skip_to(self, target: int) -> None:
        state = self.core.state
        state.util.record_idle(target - state.cycle)
        state.cycle = target
        state.stats.cycles = target

    def advance(self, quantum: int) -> None:
        core = self.core
        state = core.state
        instances = state.instances
        step = core.step
        deadlock_limit = self.deadlock_limit
        max_cycles = self.max_cycles
        end = state.cycle + quantum
        while state.cycle < max_cycles:
            for inst in instances:
                if not (inst.halted or inst.reached_target()):
                    break
            else:  # every instance done
                self.done = True
                return
            wake = core.next_activity_cycle()
            now = state.cycle
            if wake is not None and wake <= now:
                step()
                if state.cycle - state.last_commit_cycle > deadlock_limit:
                    raise SimulationError(
                        f"no commits for {deadlock_limit} cycles at cycle "
                        f"{state.cycle}; contexts: {core.contexts}"
                    )
                if state.cycle >= end:
                    return
                continue
            # Idle until ``wake`` (or forever, when None).  A serial run
            # would step no-op cycles up to the first of: the wakeup, the
            # deadlock trip-wire, or the max_cycles cutoff — land on the
            # same cycle it would.
            raise_cycle = state.last_commit_cycle + deadlock_limit + 1
            target = max_cycles if wake is None else min(wake, max_cycles)
            if raise_cycle <= target:
                self._skip_to(raise_cycle)
                raise SimulationError(
                    f"no commits for {deadlock_limit} cycles at cycle "
                    f"{state.cycle}; contexts: {core.contexts}"
                )
            self._skip_to(target)
            if state.cycle >= end:
                return
        self.done = True  # max_cycles cutoff, exactly like Core.run

    def finish(self) -> RunResult:
        core = self.core
        core._finalize_stats()
        stats = core.stats
        result = RunResult(spec=self.job.spec, stats=stats)
        for instance in core.instances:
            result.per_program_ipc[instance.name] = stats.instance_ipc(instance.id)
        return result


class BatchRunner:
    """Run N compatible sweep points in lockstep in this process.

    Parameters
    ----------
    jobs:
        Job-like objects (``job.spec`` RunSpec + ``job.resolved_config()``),
        e.g. :class:`repro.exec.jobs.Job`.  Validated eagerly: mixing
        machine configs raises ``ValueError`` before any core is built.
    suite:
        Shared workload suite; programs assemble once for the whole batch.
    quantum:
        Cycles per core per lockstep round.
    progress:
        Optional callable receiving one :class:`BatchProgress` per round.
    """

    def __init__(
        self,
        jobs: Sequence,
        suite: Optional[WorkloadSuite] = None,
        quantum: int = DEFAULT_QUANTUM,
        deadlock_limit: int = DEFAULT_DEADLOCK_LIMIT,
        progress: Optional[Callable[[BatchProgress], None]] = None,
    ):
        jobs = list(jobs)
        validate_batch(jobs)
        self.jobs = jobs
        self.suite = suite or WorkloadSuite()
        self.quantum = max(1, int(quantum))
        self.deadlock_limit = deadlock_limit
        self.progress = progress

    # ------------------------------------------------------------------
    def _build_drivers(self) -> List[_PointDriver]:
        drivers = []
        for job in self.jobs:
            core = Core(job.resolved_config())
            programs = self.suite.mix(job.spec.workload)
            core.load(programs, commit_target=job.spec.commit_target)
            drivers.append(
                _PointDriver(job, core, job.spec.max_cycles, self.deadlock_limit)
            )
        return drivers

    def run(self) -> List[BatchPoint]:
        """Execute the batch; one :class:`BatchPoint` per job, input order."""
        drivers = self._build_drivers()
        #: Kept for post-run introspection (utilization parity tests, the
        #: benchmark harness); one driver per job, same order as ``jobs``.
        self.drivers = drivers
        points = [BatchPoint(job=d.job) for d in drivers]
        quantum = self.quantum
        progress = self.progress
        rounds = 0
        # Same collector discipline as Core.run, hoisted over the whole
        # batch: one disable, one collection at the end.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            live = list(range(len(drivers)))
            while live:
                still_live = []
                for index in live:
                    driver = drivers[index]
                    try:
                        driver.advance(quantum)
                    except Exception as exc:  # noqa: BLE001 - structured per-point failure
                        points[index].error = f"{type(exc).__name__}: {exc}"
                        continue
                    if driver.done:
                        try:
                            points[index].result = driver.finish()
                        except Exception as exc:  # noqa: BLE001
                            points[index].error = f"{type(exc).__name__}: {exc}"
                    else:
                        still_live.append(index)
                live = still_live
                rounds += 1
                if progress is not None:
                    progress(self._progress_event(drivers, points, rounds))
        finally:
            if gc_was_enabled:
                gc.enable()
            gc.collect()
        return points

    @staticmethod
    def _progress_event(drivers, points, rounds) -> BatchProgress:
        return BatchProgress(
            rounds=rounds,
            points_total=len(points),
            points_done=sum(1 for p in points if p.ok or p.error),
            points_failed=sum(1 for p in points if p.error),
            cycles=sum(d.core.state.cycle for d in drivers),
            committed=sum(d.core.stats.committed for d in drivers),
        )


def run_jobs_batched(
    jobs: Sequence,
    suite: Optional[WorkloadSuite] = None,
    batch_size: int = 8,
    quantum: int = DEFAULT_QUANTUM,
    progress: Optional[Callable[[BatchProgress], None]] = None,
) -> List[BatchPoint]:
    """Group ``jobs`` into compatible batches and run each in lockstep.

    Results come back in input order regardless of grouping; incompatible
    jobs simply land in different batches, so this never raises the
    mixed-machine ``ValueError`` that handing a mixed list straight to
    :class:`BatchRunner` would.
    """
    suite = suite or WorkloadSuite()
    out: List[Optional[BatchPoint]] = [None] * len(jobs)
    for indices in group_batches(jobs, batch_size):
        runner = BatchRunner(
            [jobs[i] for i in indices], suite=suite, quantum=quantum,
            progress=progress,
        )
        for index, point in zip(indices, runner.run()):
            out[index] = point
    return [point for point in out if point is not None]
