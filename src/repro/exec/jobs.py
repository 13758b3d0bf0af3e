"""Job descriptions and wire payloads for the orchestration engine.

A :class:`Job` is one simulation request: a :class:`~repro.sim.runner.RunSpec`
plus optional ``MachineConfig`` field overrides (the mechanism sweeps use to
reach fields a ``RunSpec`` cannot express).  Jobs cross process boundaries and
land in the on-disk cache, so everything here round-trips through plain,
JSON-serialisable payload dicts — workers return payloads, the cache stores
payloads, and the parent reconstructs :class:`~repro.sim.runner.RunResult`
objects from them.

:class:`Chaos` is a deterministic fault-injection hook (in the spirit of
``tests/test_fault_injection.py``): it lets the engine's own test suite force
a job to fail, hard-crash, or hang on its first N attempts without touching
the simulator.  Chaos never participates in cache keys.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..pipeline.config import MachineConfig
from ..sim.runner import RunResult, RunSpec, run_spec
from ..stats.counters import SimStats
from ..workloads.suite import WorkloadSuite


@dataclass(frozen=True)
class Chaos:
    """Deterministic fault injection for engine tests.

    Each ``*_first_attempts`` field applies while ``attempt <= N`` (attempts
    are 1-based), so a value of 1 means "misbehave once, then succeed".
    """

    fail_first_attempts: int = 0  # raise RuntimeError
    exit_first_attempts: int = 0  # hard-exit the worker (simulated crash)
    sleep_first_attempts: int = 0  # sleep ``sleep_seconds`` (to trip timeouts)
    sleep_seconds: float = 0.0


@dataclass(frozen=True)
class Job:
    """One schedulable simulation."""

    spec: RunSpec
    #: Extra ``MachineConfig`` field overrides applied after
    #: ``spec.build_config()`` — sorted (name, value) pairs so jobs hash and
    #: compare deterministically.
    overrides: Tuple[Tuple[str, object], ...] = ()
    chaos: Optional[Chaos] = None

    def __post_init__(self) -> None:
        valid = set(MachineConfig.__dataclass_fields__)
        unknown = [name for name, _ in self.overrides if name not in valid]
        if unknown:
            raise ValueError(f"unknown MachineConfig fields: {sorted(unknown)}")

    def label(self) -> str:
        base = self.spec.label()
        if self.overrides:
            params = ",".join(f"{k}={v}" for k, v in self.overrides)
            return f"{base}[{params}]"
        return base

    def resolved_config(self) -> MachineConfig:
        """The final machine configuration this job simulates."""
        config = self.spec.build_config()
        if self.overrides:
            config = replace(config, **dict(self.overrides))
        return config


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a job that exhausted its retries."""

    kind: str  # "error" | "crash" | "timeout"
    message: str
    attempts: int


@dataclass
class JobOutcome:
    """What happened to one job: exactly one of result/failure is set."""

    job: Job
    result: Optional[RunResult] = None
    failure: Optional[JobFailure] = None
    cached: bool = False
    attempts: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


# ======================================================================
# Payload (de)serialisation — plain dicts safe for JSON and pickling
# ======================================================================
def spec_to_payload(spec: RunSpec) -> Dict:
    return {
        "workload": list(spec.workload),
        "machine": spec.machine,
        "features": spec.features,
        "policy": spec.policy,
        "commit_target": spec.commit_target,
        "max_cycles": spec.max_cycles,
        "confidence_threshold": spec.confidence_threshold,
    }


def spec_from_payload(payload: Dict) -> RunSpec:
    return RunSpec(
        workload=tuple(payload["workload"]),
        machine=payload["machine"],
        features=payload["features"],
        policy=payload["policy"],
        commit_target=payload["commit_target"],
        max_cycles=payload["max_cycles"],
        confidence_threshold=payload["confidence_threshold"],
    )


#: SimStats fields whose dict keys are instance ids (ints); JSON turns the
#: keys into strings, so deserialisation converts them back.
_INT_KEYED_FIELDS = ("per_instance_committed", "per_instance_cycles")


def stats_to_payload(stats: SimStats) -> Dict:
    payload = {}
    for f in dataclasses.fields(SimStats):
        value = getattr(stats, f.name)
        if f.name in _INT_KEYED_FIELDS:
            value = {str(k): v for k, v in value.items()}
        payload[f.name] = value
    return payload


def stats_from_payload(payload: Dict) -> SimStats:
    kwargs = dict(payload)
    for name in _INT_KEYED_FIELDS:
        kwargs[name] = {int(k): v for k, v in kwargs.get(name, {}).items()}
    return SimStats(**kwargs)


def result_to_payload(result: RunResult) -> Dict:
    return {
        "spec": spec_to_payload(result.spec),
        "stats": stats_to_payload(result.stats),
        "per_program_ipc": dict(result.per_program_ipc),
    }


def result_from_payload(payload: Dict) -> RunResult:
    return RunResult(
        spec=spec_from_payload(payload["spec"]),
        stats=stats_from_payload(payload["stats"]),
        per_program_ipc=dict(payload["per_program_ipc"]),
    )


def job_to_payload(job: Job) -> Dict:
    """Everything a worker needs to execute ``job`` (chaos travels too but
    is applied by the pool layer, never hashed into cache keys)."""
    return {
        "spec": spec_to_payload(job.spec),
        "overrides": [[name, value] for name, value in job.overrides],
    }


def job_from_payload(payload: Dict) -> Job:
    return Job(
        spec=spec_from_payload(payload["spec"]),
        overrides=tuple((name, value) for name, value in payload["overrides"]),
    )


# ======================================================================
# Execution — shared by the serial path, pool workers and service workers
# ======================================================================
def run_job(job: Job, suite: WorkloadSuite) -> RunResult:
    """Execute one job in-process and return its result."""
    config = job.resolved_config() if job.overrides else None
    return run_spec(job.spec, suite, config=config)


#: Per-process suite cache so a forked/spawned worker assembles each kernel
#: set once, no matter how many jobs it executes.
_SUITE_CACHE: Dict[Tuple[int, bool], WorkloadSuite] = {}


def suite_for_args(iters: int, extended: bool) -> WorkloadSuite:
    key = (iters, extended)
    if key not in _SUITE_CACHE:
        _SUITE_CACHE[key] = WorkloadSuite(iters=iters, extended=extended)
    return _SUITE_CACHE[key]


def execute_payload(payload: Dict, suite_args: Tuple[int, bool]) -> Dict:
    """Worker-side entry: payload in, result payload out."""
    suite = suite_for_args(*suite_args)
    result = run_job(job_from_payload(payload), suite)
    return result_to_payload(result)

