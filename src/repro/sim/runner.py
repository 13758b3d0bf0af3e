"""Run specifications and results: one simulation = one RunSpec.

This is the layer the experiment registry, the CLI, the examples and
the benchmark harness all share: describe a run declaratively, get back
IPC plus the paper's statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..pipeline.config import Features, MachineConfig, RecyclePolicy
from ..pipeline.core import Core, gc_epoch
from ..stats.counters import SimStats
from ..workloads.suite import WorkloadSuite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..exec.pool import Executor

#: Default measurement window per program (committed instructions).
DEFAULT_COMMIT_TARGET = 3000
DEFAULT_MAX_CYCLES = 2_000_000


@dataclass(frozen=True)
class RunSpec:
    """A declarative simulation request."""

    workload: Sequence[str]  # kernel names; len > 1 = multiprogrammed
    machine: str = "big.2.16"
    features: str = "REC/RS/RU"  # a Features label from Figures 3-4
    policy: Optional[str] = None  # e.g. "stop-8"; None = machine default
    commit_target: int = DEFAULT_COMMIT_TARGET
    max_cycles: int = DEFAULT_MAX_CYCLES
    confidence_threshold: Optional[int] = None

    def label(self) -> str:
        wl = "+".join(self.workload)
        return f"{self.machine}/{self.features}/{wl}"

    def build_config(self) -> MachineConfig:
        overrides = {"features": Features.from_label(self.features)}
        if self.policy is not None:
            overrides["policy"] = RecyclePolicy.parse(self.policy)
        if self.confidence_threshold is not None:
            overrides["confidence_threshold"] = self.confidence_threshold
        return MachineConfig.by_name(self.machine, **overrides)


@dataclass
class RunResult:
    """Outcome of one simulation."""

    spec: RunSpec
    stats: SimStats
    per_program_ipc: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def summary_line(self) -> str:
        return (
            f"{self.spec.label():<44s} IPC={self.ipc:6.3f} "
            f"rec={self.stats.pct_recycled:5.1f}% reuse={self.stats.pct_reused:5.2f}% "
            f"cov={self.stats.branch_miss_coverage:5.1f}%"
        )


def run_spec(
    spec: RunSpec,
    suite: Optional[WorkloadSuite] = None,
    config: Optional[MachineConfig] = None,
) -> RunResult:
    """Execute one simulation described by ``spec``.

    ``config`` overrides ``spec.build_config()`` — the orchestration layer
    uses it to apply sweep-style ``MachineConfig`` field overrides that a
    ``RunSpec`` cannot express.

    The core lives and dies inside one :func:`gc_epoch`: it is built,
    run and dropped in :func:`_simulate`, whose frame is gone by the
    epoch's exit, so the young collection there frees the whole run.
    """
    suite = suite or WorkloadSuite()
    config = config if config is not None else spec.build_config()
    programs = suite.mix(spec.workload)
    with gc_epoch():
        stats, per_program_ipc = _simulate(config, programs, spec)
    return RunResult(spec=spec, stats=stats, per_program_ipc=per_program_ipc)


def _simulate(config: MachineConfig, programs, spec: RunSpec):
    """Run ``programs`` on a fresh core; return its stats and per-program
    IPC, and no reference into the core."""
    core = Core(config)
    core.load(programs, commit_target=spec.commit_target)
    stats = core.run(max_cycles=spec.max_cycles)
    return stats, {inst.name: stats.instance_ipc(inst.id) for inst in core.instances}


def run_matrix(
    specs: Sequence[RunSpec],
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> List[RunResult]:
    """Run a batch of specs against one shared (cached) workload suite.

    With no ``executor`` this is the historical strictly-serial path.  With
    an :class:`repro.exec.Executor` the batch goes through the orchestration
    engine (worker pool, result cache, retries); a job that exhausts its
    retries raises :class:`repro.exec.ExecutionError`.
    """
    suite = suite or WorkloadSuite()
    if executor is None:
        return [run_spec(spec, suite) for spec in specs]
    return executor.map(specs, suite=suite)


def average_ipc(results: Sequence[RunResult]) -> float:
    if not results:
        return 0.0
    return sum(r.ipc for r in results) / len(results)
