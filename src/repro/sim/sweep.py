"""Generic parameter sweeps over machine configurations and workloads.

The figure/table experiments cover the paper's axes; this module covers
*everything else*: grid sweeps over arbitrary ``MachineConfig`` fields
crossed with workloads, with tidy (long-form) results and CSV export —
the workhorse for custom ablations.

Example::

    from repro.sim.sweep import Sweep
    sweep = Sweep(
        workloads=[("compress",), ("go",)],
        features="REC/RS/RU",
        grid={"active_list_size": [32, 64, 128],
              "confidence_threshold": [4, 8, 12]},
        commit_target=1500,
    )
    rows = sweep.run()
    print(sweep.to_csv(rows))
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..pipeline.config import Features, MachineConfig
from ..workloads.suite import WorkloadSuite
from .runner import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..exec.jobs import Job
    from ..exec.pool import Executor


@dataclass
class SweepRow:
    """One (configuration point × workload) result."""

    params: Dict[str, object]
    workload: Tuple[str, ...]
    ipc: float
    pct_recycled: float
    pct_reused: float
    branch_miss_cov: float
    cycles: int

    def key(self) -> Tuple:
        return tuple(sorted(self.params.items())) + (self.workload,)


@dataclass
class Sweep:
    workloads: Sequence[Sequence[str]]
    grid: Dict[str, Sequence[object]]
    machine: str = "big.2.16"
    features: str = "REC/RS/RU"
    commit_target: int = 1500
    max_cycles: int = 2_000_000

    def __post_init__(self) -> None:
        valid = set(MachineConfig.__dataclass_fields__)
        unknown = set(self.grid) - valid
        if unknown:
            raise ValueError(f"unknown MachineConfig fields: {sorted(unknown)}")
        if self.machine not in MachineConfig.known_names():
            raise ValueError(
                f"unknown machine {self.machine!r}; "
                f"know {sorted(MachineConfig.known_names())}"
            )
        variants = Features.all_variants()
        if self.features not in variants:
            raise ValueError(
                f"unknown features {self.features!r}; know {sorted(variants)}"
            )

    def points(self) -> List[Dict[str, object]]:
        """The cartesian grid as a list of override dicts."""
        names = list(self.grid)
        out = []
        for values in itertools.product(*(self.grid[n] for n in names)):
            out.append(dict(zip(names, values)))
        return out

    def jobs(self) -> List["Job"]:
        """The sweep's cartesian grid as orchestration-engine jobs, in the
        same (point-major, workload-minor) order ``run`` reports rows."""
        from ..exec.jobs import Job

        out: List[Job] = []
        for params in self.points():
            for workload in self.workloads:
                spec = RunSpec(
                    workload=tuple(workload),
                    machine=self.machine,
                    features=self.features,
                    commit_target=self.commit_target,
                    max_cycles=self.max_cycles,
                )
                out.append(Job(spec=spec, overrides=tuple(sorted(params.items()))))
        return out

    def run(
        self,
        suite: Optional[WorkloadSuite] = None,
        executor: Optional["Executor"] = None,
    ) -> List[SweepRow]:
        """Run every (grid point × workload) pair.

        With no ``executor`` the sweep runs strictly serially in-process.
        With an executor the batch goes through the orchestration engine
        (parallel workers, result cache, retries, ``batch_size`` points
        per worker process) and a job that exhausts its retries raises
        :class:`repro.exec.ExecutionError`.  Row order and numeric content
        are identical on every path.
        """
        from ..exec.jobs import run_job

        suite = suite or WorkloadSuite()
        jobs = self.jobs()
        if executor is None:
            results = [run_job(job, suite) for job in jobs]
        else:
            results = executor.map(jobs, suite=suite)
        rows: List[SweepRow] = []
        for job, result in zip(jobs, results):
            stats = result.stats
            rows.append(
                SweepRow(
                    params=dict(job.overrides),
                    workload=tuple(job.spec.workload),
                    ipc=stats.ipc,
                    pct_recycled=stats.pct_recycled,
                    pct_reused=stats.pct_reused,
                    branch_miss_cov=stats.branch_miss_coverage,
                    cycles=stats.cycles,
                )
            )
        return rows

    # ------------------------------------------------------------------
    def to_csv(self, rows: Sequence[SweepRow]) -> str:
        """Long-form CSV: one line per (point, workload)."""
        names = list(self.grid)
        out = io.StringIO()
        header = names + [
            "workload", "ipc", "pct_recycled", "pct_reused",
            "branch_miss_cov", "cycles",
        ]
        out.write(",".join(header) + "\n")
        for row in rows:
            cells = [str(row.params[n]) for n in names]
            cells += [
                "+".join(row.workload),
                f"{row.ipc:.4f}",
                f"{row.pct_recycled:.2f}",
                f"{row.pct_reused:.3f}",
                f"{row.branch_miss_cov:.2f}",
                str(row.cycles),
            ]
            out.write(",".join(cells) + "\n")
        return out.getvalue()

    def summarize(self, rows: Sequence[SweepRow]) -> Dict[Tuple, float]:
        """Average IPC per grid point (over workloads).

        Keys are ``(name, value)`` tuples in *grid declaration order*, and
        the mapping preserves first-appearance (insertion) order of the
        points — deterministic for a given sweep, independent of how the
        rows were produced.
        """
        names = list(self.grid)
        sums: Dict[Tuple, List[float]] = {}
        for row in rows:
            key = tuple((name, row.params[name]) for name in names)
            sums.setdefault(key, []).append(row.ipc)
        return {key: sum(v) / len(v) for key, v in sums.items()}
