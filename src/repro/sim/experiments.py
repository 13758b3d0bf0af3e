"""The paper's experiments, one function per table/figure.

Every function returns plain data structures (dicts keyed by the
paper's own axis labels) plus has a companion ``format_*`` renderer
that prints the same rows/series the paper reports.  The benchmark
harness under ``benchmarks/``, the CLI and the ``campaign`` subcommand
all call these.

Each experiment builds its full batch of :class:`RunSpec` jobs up front
and hands them to :func:`~repro.sim.runner.run_matrix`: with no
``executor`` the batch runs strictly serially in-process (the historical
behaviour, and the default everywhere, including tests); with an
:class:`repro.exec.Executor` the same batch is executed on the
orchestration engine — worker pool, content-addressed result cache,
retries — producing numerically identical tables because the per-spec
simulations are deterministic.

Scaling: the ``commit_target`` (per-program measurement window) and
``num_mixes`` arguments trade fidelity against wall-clock; defaults are
sized for a laptop-minutes run, not paper-scale days.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..pipeline.config import PolicyKind
from ..workloads.suite import WorkloadSuite
from .runner import RunSpec, run_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..exec.pool import Executor

#: Figure 3/4 variant order, exactly as plotted in the paper.
VARIANTS = ["SMT", "TME", "REC", "REC/RU", "REC/RS", "REC/RS/RU"]
#: Figure 5 policies.
POLICIES = [f"{kind.value}-{limit}" for kind in PolicyKind for limit in (8, 16, 32)]
#: Figure 6 machines.
MACHINES = ["small.1.8", "small.2.8", "big.1.8", "big.2.16"]
#: Program counts for the multiprogram figures.
WIDTHS = (1, 2, 4)


def _mixes_for(suite: WorkloadSuite, width: int, num_mixes: int) -> List[List[str]]:
    """Single-program figures use the first kernels; wider ones rotate."""
    if width == 1:
        return [[k] for k in suite.names[:num_mixes]]
    return suite.mixes(width, num_mixes)


# ======================================================================
# Figure 3 — per-program IPC, single program, six variants
# ======================================================================
def figure3(
    commit_target: int = 3000,
    variants: Sequence[str] = VARIANTS,
    kernels: Optional[Sequence[str]] = None,
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> Dict[str, Dict[str, float]]:
    suite = suite or WorkloadSuite()
    kernels = list(kernels or suite.names)
    specs = [
        RunSpec((kernel,), features=variant, commit_target=commit_target)
        for kernel in kernels
        for variant in variants
    ]
    results = iter(run_matrix(specs, suite, executor))
    out: Dict[str, Dict[str, float]] = {}
    for kernel in kernels:
        out[kernel] = {variant: next(results).ipc for variant in variants}
    return out


def format_figure3(data: Dict[str, Dict[str, float]]) -> str:
    variants = list(next(iter(data.values())))
    header = f"{'program':<10s}" + "".join(f"{v:>11s}" for v in variants)
    lines = [header]
    for kernel, row in data.items():
        lines.append(f"{kernel:<10s}" + "".join(f"{row[v]:11.3f}" for v in variants))
    return "\n".join(lines)


# ======================================================================
# Figure 4 — average IPC at 1, 2 and 4 programs, six variants
# ======================================================================
def figure4(
    commit_target: int = 2000,
    num_mixes: int = 8,
    variants: Sequence[str] = VARIANTS,
    widths: Sequence[int] = WIDTHS,
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> Dict[int, Dict[str, float]]:
    suite = suite or WorkloadSuite()
    specs: List[RunSpec] = []
    for width in widths:
        mixes = _mixes_for(suite, width, num_mixes)
        for variant in variants:
            for mix in mixes:
                specs.append(
                    RunSpec(tuple(mix), features=variant, commit_target=commit_target)
                )
    results = iter(run_matrix(specs, suite, executor))
    out: Dict[int, Dict[str, float]] = {}
    for width in widths:
        mixes = _mixes_for(suite, width, num_mixes)
        out[width] = {}
        for variant in variants:
            total = sum(next(results).ipc for _ in mixes)
            out[width][variant] = total / len(mixes)
    return out


def format_figure4(data: Dict[int, Dict[str, float]]) -> str:
    variants = list(next(iter(data.values())))
    header = f"{'programs':<10s}" + "".join(f"{v:>11s}" for v in variants)
    lines = [header]
    for width, row in data.items():
        lines.append(f"{width:<10d}" + "".join(f"{row[v]:11.3f}" for v in variants))
    return "\n".join(lines)


# ======================================================================
# Figure 5 — recycling fetch limits (stop/fetch/nostop × 8/16/32)
# ======================================================================
def figure5(
    commit_target: int = 2000,
    num_mixes: int = 4,
    widths: Sequence[int] = WIDTHS,
    policies: Sequence[str] = POLICIES,
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> Dict[str, Dict[int, float]]:
    suite = suite or WorkloadSuite()
    specs: List[RunSpec] = []
    for width in widths:
        mixes = _mixes_for(suite, width, num_mixes)
        for policy in policies:
            for mix in mixes:
                specs.append(
                    RunSpec(
                        tuple(mix),
                        features="REC/RS/RU",
                        policy=policy,
                        commit_target=commit_target,
                    )
                )
    results = iter(run_matrix(specs, suite, executor))
    out: Dict[str, Dict[int, float]] = {policy: {} for policy in policies}
    for width in widths:
        mixes = _mixes_for(suite, width, num_mixes)
        for policy in policies:
            total = sum(next(results).ipc for _ in mixes)
            out[policy][width] = total / len(mixes)
    return out


def format_figure5(data: Dict[str, Dict[int, float]]) -> str:
    widths = list(next(iter(data.values())))
    header = f"{'policy':<12s}" + "".join(f"{w:>10d}p" for w in widths)
    lines = [header]
    for policy, row in data.items():
        lines.append(f"{policy:<12s}" + "".join(f"{row[w]:11.3f}" for w in widths))
    return "\n".join(lines)


# ======================================================================
# Figure 6 — four machines × {SMT, TME, REC/RS/RU} × {1, 2, 4} programs
# ======================================================================
def figure6(
    commit_target: int = 2000,
    num_mixes: int = 4,
    machines: Sequence[str] = MACHINES,
    widths: Sequence[int] = WIDTHS,
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> Dict[str, Dict[str, Dict[int, float]]]:
    suite = suite or WorkloadSuite()
    variants = ["SMT", "TME", "REC/RS/RU"]
    specs: List[RunSpec] = []
    for machine in machines:
        for width in widths:
            mixes = _mixes_for(suite, width, num_mixes)
            for variant in variants:
                for mix in mixes:
                    specs.append(
                        RunSpec(
                            tuple(mix),
                            machine=machine,
                            features=variant,
                            commit_target=commit_target,
                        )
                    )
    results = iter(run_matrix(specs, suite, executor))
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for machine in machines:
        out[machine] = {v: {} for v in variants}
        for width in widths:
            mixes = _mixes_for(suite, width, num_mixes)
            for variant in variants:
                total = sum(next(results).ipc for _ in mixes)
                out[machine][variant][width] = total / len(mixes)
    return out


def format_figure6(data: Dict[str, Dict[str, Dict[int, float]]]) -> str:
    lines = []
    for machine, variants in data.items():
        for variant, by_width in variants.items():
            row = "".join(f"{ipc:10.3f}" for ipc in by_width.values())
            lines.append(f"{machine:<11s} {variant:<10s}{row}")
    widths = list(next(iter(next(iter(data.values())).values())))
    header = f"{'machine':<11s} {'variant':<10s}" + "".join(f"{w:>9d}p" for w in widths)
    return "\n".join([header] + lines)


# ======================================================================
# Table 1 — recycling statistics
# ======================================================================
TABLE1_COLUMNS = [
    ("pct_recycled", "%Recyc"),
    ("pct_reused", "%Reuse"),
    ("branch_miss_cov", "MissCov"),
    ("pct_forks_tme", "%FkTME"),
    ("pct_forks_recycled", "%FkRec"),
    ("pct_forks_respawned", "%FkResp"),
    ("merges_per_alt_path", "Mrg/Alt"),
    ("pct_back_merges", "%BackM"),
]


def table1(
    commit_target: int = 3000,
    num_mixes: int = 4,
    widths: Sequence[int] = (2, 4),
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-kernel rows plus 1/2/4-program averages, REC/RS/RU."""
    suite = suite or WorkloadSuite()
    specs = [
        RunSpec((kernel,), features="REC/RS/RU", commit_target=commit_target)
        for kernel in suite.names
    ]
    for width in widths:
        for mix in suite.mixes(width, num_mixes):
            specs.append(
                RunSpec(tuple(mix), features="REC/RS/RU", commit_target=commit_target)
            )
    results = iter(run_matrix(specs, suite, executor))
    rows: Dict[str, Dict[str, float]] = {}
    singles: List[Dict[str, float]] = []
    for kernel in suite.names:
        row = next(results).stats.table1_row()
        rows[kernel] = row
        singles.append(row)
    rows["1 prog avg"] = _avg_rows(singles)
    for width in widths:
        width_rows = [
            next(results).stats.table1_row()
            for _ in suite.mixes(width, num_mixes)
        ]
        rows[f"{width} progs avg"] = _avg_rows(width_rows)
    return rows


def _avg_rows(rows: List[Dict[str, float]]) -> Dict[str, float]:
    keys = rows[0].keys()
    return {k: sum(r[k] for r in rows) / len(rows) for k in keys}


def format_table1(rows: Dict[str, Dict[str, float]]) -> str:
    header = f"{'Program':<12s}" + "".join(f"{label:>9s}" for _, label in TABLE1_COLUMNS)
    lines = [header]
    for name, row in rows.items():
        cells = "".join(f"{row[key]:9.1f}" for key, _ in TABLE1_COLUMNS)
        lines.append(f"{name:<12s}{cells}")
    return "\n".join(lines)


# ======================================================================
# Static ceilings — analysis upper bounds vs. Table-1 dynamic stats
# ======================================================================
STATIC_COLUMNS = [
    ("blocks", "Blks"),
    ("loops", "Loops"),
    ("cond_sites", "Cond"),
    ("merge_cov", "MrgCov%"),
    ("reuse_ceiling", "RuCeil%"),
    ("merge_agree", "Agree%"),
    ("dyn_recycled", "%Recyc"),
    ("dyn_reused", "%Reuse"),
    ("violations", "Viol"),
]


def static_ceilings(
    commit_target: int = 1500,
    window: int = 16,
    kernels: Optional[Sequence[str]] = None,
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> Dict[str, Dict[str, float]]:
    """Static analysis ceilings next to dynamic REC/RS/RU statistics.

    Per kernel: static merge coverage (conditional branches with a real
    immediate post-dominator), the kill-set reuse ceiling over a
    ``window``-instruction lookahead, dynamic recycle/reuse percentages
    from an instrumented run, the dynamic-vs-static merge agreement,
    and the cross-checker's violation count (must be zero).

    The instrumented simulation is inherently in-process, so
    ``executor`` is accepted for registry uniformity but unused.
    """
    del executor  # instrumentation cannot cross a worker-pool boundary
    from ..analysis.checker import check_spec
    from ..analysis.program import ProgramAnalysis

    suite = suite or WorkloadSuite()
    kernels = list(kernels or suite.names)
    out: Dict[str, Dict[str, float]] = {}
    for kernel in kernels:
        summary = ProgramAnalysis(
            suite.program(kernel), name=kernel
        ).summary(window=window)
        spec = RunSpec(
            (kernel,), features="REC/RS/RU", commit_target=commit_target
        )
        result, report = check_spec(spec, suite)
        out[kernel] = {
            "blocks": float(summary.blocks),
            "loops": float(summary.loops),
            "cond_sites": float(summary.cond_sites),
            "merge_cov": summary.merge_coverage_pct,
            "reuse_ceiling": summary.reuse_ceiling_pct,
            "merge_agree": report.merge_agreement_pct,
            "dyn_recycled": result.stats.pct_recycled,
            "dyn_reused": result.stats.pct_reused,
            "violations": float(len(report.violations)),
        }
    return out


def format_static_ceilings(data: Dict[str, Dict[str, float]]) -> str:
    header = f"{'program':<10s}" + "".join(
        f"{label:>9s}" for _, label in STATIC_COLUMNS
    )
    lines = [header]
    for kernel, row in data.items():
        cells = "".join(f"{row[key]:9.1f}" for key, _ in STATIC_COLUMNS)
        lines.append(f"{kernel:<10s}{cells}")
    lines.append(
        "(static: MrgCov = cond branches with an ipostdom reconvergence; "
        "RuCeil = kill-set reuse upper bound. dynamic: %Recyc/%Reuse as "
        "Table 1; Agree = dyn merge == static reconvergence; Viol must be 0.)"
    )
    return "\n".join(lines)


# ======================================================================
# Ablations (beyond the paper; design-choice sensitivity)
# ======================================================================
def ablation_confidence(
    thresholds: Sequence[int] = (1, 4, 8, 12, 15),
    commit_target: int = 2000,
    kernels: Optional[Sequence[str]] = None,
    suite: Optional[WorkloadSuite] = None,
    executor: Optional["Executor"] = None,
) -> Dict[int, float]:
    """Sweep the fork-gating confidence threshold (REC/RS/RU average)."""
    suite = suite or WorkloadSuite()
    kernels = list(kernels or suite.names)
    specs = [
        RunSpec(
            (kernel,),
            features="REC/RS/RU",
            commit_target=commit_target,
            confidence_threshold=threshold,
        )
        for threshold in thresholds
        for kernel in kernels
    ]
    results = iter(run_matrix(specs, suite, executor))
    out: Dict[int, float] = {}
    for threshold in thresholds:
        total = sum(next(results).ipc for _ in kernels)
        out[threshold] = total / len(kernels)
    return out


def format_ablation_confidence(data: Dict[int, float]) -> str:
    lines = [f"{'threshold':<11s}{'avg IPC':>9s}"]
    for threshold, ipc in data.items():
        lines.append(f"{threshold:<11d}{ipc:9.3f}")
    return "\n".join(lines)


#: Experiment registry used by the CLI.
EXPERIMENTS = {
    "fig3": (figure3, format_figure3),
    "fig4": (figure4, format_figure4),
    "fig5": (figure5, format_figure5),
    "fig6": (figure6, format_figure6),
    "table1": (table1, format_table1),
    "static-ceilings": (static_ceilings, format_static_ceilings),
    "ablation-confidence": (ablation_confidence, format_ablation_confidence),
}

#: Named experiment sets for ``repro-sim campaign``.
CAMPAIGNS = {
    "paper": ["fig3", "fig4", "fig5", "fig6", "table1"],
    "figures": ["fig3", "fig4", "fig5", "fig6"],
    "all": list(EXPERIMENTS),
}
