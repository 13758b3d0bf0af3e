"""The paper's experiments, one function per table/figure.

Every function returns plain data structures (dicts keyed by the
paper's own axis labels) and has a companion ``format_*`` renderer that
returns a markdown section: a ``## `` title over one table with the
rows/series the paper reports.  ``repro-sim campaign`` prints these
sections, and the benchmark harness under ``benchmarks/`` calls the same
functions.

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


def _md_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A ``## title`` markdown section holding one table."""
    lines = [f"## {title}", "", "| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


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
    rows = [[kernel] + [f"{row[v]:.3f}" for v in variants] for kernel, row in data.items()]
    return _md_table("Figure 3 — per-program IPC (1 program)", ["program"] + variants, rows)


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
    """The table, then REC/RS/RU's gain over TME and SMT for each row
    that holds all three."""
    variants = list(next(iter(data.values())))
    rows = [[str(width)] + [f"{row[v]:.3f}" for v in variants] for width, row in data.items()]
    section = _md_table("Figure 4 — average IPC vs program count", ["programs"] + variants, rows)
    gains = [
        f"* {width} program(s): REC/RS/RU is "
        f"{100 * (row['REC/RS/RU'] / row['TME'] - 1):+.1f}% vs TME, "
        f"{100 * (row['REC/RS/RU'] / row['SMT'] - 1):+.1f}% vs SMT"
        for width, row in data.items()
        if {"SMT", "TME", "REC/RS/RU"} <= row.keys()
    ]
    if gains:
        section += "\n\n" + "\n".join(gains)
    return section


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
    rows = [[policy] + [f"{row[w]:.3f}" for w in widths] for policy, row in data.items()]
    return _md_table("Figure 5 — recycling fetch limits", ["policy"] + [f"{w}p" for w in widths],
                     rows)


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
    widths = list(next(iter(next(iter(data.values())).values())))
    rows = [
        [machine, variant] + [f"{by_width[w]:.3f}" for w in widths]
        for machine, variants in data.items()
        for variant, by_width in variants.items()
    ]
    return _md_table("Figure 6 — machine configurations",
                     ["machine", "variant"] + [f"{w}p" for w in widths], rows)


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
    body = [
        [name] + [f"{row[key]:.1f}" for key, _ in TABLE1_COLUMNS]
        for name, row in rows.items()
    ]
    return _md_table("Table 1 — recycling statistics (REC/RS/RU)",
                     ["Program"] + [label for _, label in TABLE1_COLUMNS], body)


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
    rows = [[str(threshold), f"{ipc:.3f}"] for threshold, ipc in data.items()]
    return _md_table("Ablation — fork-gating confidence threshold (REC/RS/RU)",
                     ["threshold", "avg IPC"], rows)


#: Experiment registry: each name's runner and its markdown renderer.
EXPERIMENTS = {
    "fig3": (figure3, format_figure3),
    "fig4": (figure4, format_figure4),
    "fig5": (figure5, format_figure5),
    "fig6": (figure6, format_figure6),
    "table1": (table1, format_table1),
    "ablation-confidence": (ablation_confidence, format_ablation_confidence),
}

#: Named experiment sets for ``repro-sim campaign``.
CAMPAIGNS = {
    "paper": ["fig3", "fig4", "fig5", "fig6", "table1"],
    "figures": ["fig3", "fig4", "fig5", "fig6"],
    "all": list(EXPERIMENTS),
}
