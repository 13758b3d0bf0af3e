"""Facade bundling all static analyses of one assembled program.

:class:`ProgramAnalysis` builds the CFG eagerly (cheap) and computes
dominators, post-dominators, loops, branch sites, kill sets and
must-define masks lazily with caching, so callers can ask for exactly
what they need.  :class:`StaticSummary` condenses the results into the
per-kernel numbers the ``analyze`` CLI and the static-ceilings
experiment report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..isa.program import Program
from .branches import BranchClass, BranchSite, branch_sites
from .cfg import CFG
from .dominators import dominator_tree, natural_loops, postdominator_tree
from .killsets import ReuseBound, must_def_masks, reuse_bound
from .memdep import MemoryDependenceAnalysis, MemorySummary

#: Default lookahead (instructions past the merge) for reuse ceilings —
#: matches the recycle buffer depth the dynamic side realistically replays.
DEFAULT_REUSE_WINDOW = 16


@dataclass(frozen=True)
class StaticSummary:
    """Condensed static facts about one program."""

    name: str
    instructions: int
    blocks: int
    edges: int
    loops: int
    branch_sites: int
    cond_sites: int
    class_counts: Dict[BranchClass, int]
    #: conditional sites with a real (non-EXIT) immediate post-dominator
    cond_with_reconvergence: int
    avg_kill_set_size: float
    #: mean static reuse ceiling per reconvergent branch, as a
    #: percentage of the examined window
    reuse_ceiling_pct: float
    reuse_window: int

    @property
    def merge_coverage_pct(self) -> float:
        if not self.cond_sites:
            return 0.0
        return 100.0 * self.cond_with_reconvergence / self.cond_sites


class ProgramAnalysis:
    """All static analyses of one :class:`Program`, lazily cached."""

    def __init__(self, program: Program, name: str = "program"):
        self.program = program
        self.name = name
        self.cfg = CFG(program)
        self._idom: Optional[Dict[int, int]] = None
        self._ipostdom: Optional[Dict[int, int]] = None
        self._loops: Optional[Dict[int, FrozenSet[int]]] = None
        self._sites: Optional[Dict[int, BranchSite]] = None
        self._back_targets: Optional[FrozenSet[int]] = None
        self._must_defs: Dict[int, Dict[int, int]] = {}
        self._memdep: Optional[MemoryDependenceAnalysis] = None

    # -- dominance ------------------------------------------------------
    @property
    def idom(self) -> Dict[int, int]:
        idom = self._idom
        if idom is None:
            idom = self._idom = dominator_tree(self.cfg)
        return idom

    @property
    def ipostdom(self) -> Dict[int, int]:
        ipostdom = self._ipostdom
        if ipostdom is None:
            ipostdom = self._ipostdom = postdominator_tree(self.cfg)
        return ipostdom

    @property
    def loops(self) -> Dict[int, FrozenSet[int]]:
        loops = self._loops
        if loops is None:
            loops = self._loops = natural_loops(self.cfg, self.idom)
        return loops

    # -- branch sites ---------------------------------------------------
    @property
    def sites(self) -> Dict[int, BranchSite]:
        sites = self._sites
        if sites is None:
            sites = self._sites = branch_sites(
                self.program, self.cfg, self.idom, self.ipostdom
            )
        return sites

    def site(self, pc: int) -> Optional[BranchSite]:
        return self.sites.get(pc)

    def reconvergence_pc(self, branch_pc: int) -> Optional[int]:
        site = self.sites.get(branch_pc)
        return site.reconvergence_pc if site else None

    @property
    def backward_branch_targets(self) -> FrozenSet[int]:
        """Static candidates for dynamic BACK merge points: targets of
        branches that jump to or before their own PC."""
        targets = self._back_targets
        if targets is None:
            targets = self._back_targets = frozenset(
                s.target_pc for s in self.sites.values()
                if s.target_pc is not None and s.target_pc <= s.pc
            )
        return targets

    def static_successor_pcs(self, branch_pc: int) -> FrozenSet[int]:
        """PCs fetch may continue at directly after the transfer at
        ``branch_pc`` (fall-through / target / any, for indirect)."""
        idx = self.cfg.index_of(branch_pc)
        if idx is None:
            return frozenset()
        succs = set(self.cfg.flow_successors()[idx])
        return frozenset(self.cfg.pc_of(i) for i in succs)

    # -- checker queries ------------------------------------------------
    def must_defs_from(self, fork_pc: int) -> Dict[int, int]:
        """IN must-define masks keyed by *PC*, for paths starting at the
        fork branch's successors (see :func:`killsets.must_def_masks`)."""
        idx = self.cfg.index_of(fork_pc)
        if idx is None:
            return {}
        cached = self._must_defs.get(idx)
        if cached is None:
            flow = self.cfg.flow_successors()
            masks = must_def_masks(self.program, flow, list(flow[idx]))
            cached = {self.cfg.pc_of(i): m for i, m in masks.items()}
            self._must_defs[idx] = cached
        return cached

    # -- memory dependence ----------------------------------------------
    @property
    def memdep(self) -> MemoryDependenceAnalysis:
        """Static memory-dependence facts (value ranges, aliasing,
        loop-carried dependences, the load-reuse ceiling).  Lazily
        built — the value-range fixpoint only runs when asked for."""
        md = self._memdep
        if md is None:
            md = self._memdep = MemoryDependenceAnalysis(
                self.program, cfg=self.cfg, loops=self.loops, name=self.name
            )
        return md

    def memory_summary(self) -> MemorySummary:
        """The memory twin of :meth:`summary`, joining the register
        reuse ceilings with the static load-reuse ceiling."""
        return self.memdep.summary()

    # -- ceilings -------------------------------------------------------
    def reuse_bounds(
        self, window: int = DEFAULT_REUSE_WINDOW
    ) -> List[ReuseBound]:
        """Reuse ceilings for every reconvergent conditional branch."""
        out: List[ReuseBound] = []
        for pc in sorted(self.sites):
            site = self.sites[pc]
            if not site.is_conditional or site.reconvergence_pc is None:
                continue
            branch_idx = self.cfg.index_of(pc)
            recon_idx = self.cfg.index_of(site.reconvergence_pc)
            if branch_idx is None or recon_idx is None:
                continue
            out.append(reuse_bound(self.cfg, branch_idx, recon_idx, window))
        return out

    def summary(self, window: int = DEFAULT_REUSE_WINDOW) -> StaticSummary:
        sites = self.sites
        cond = [s for s in sites.values() if s.is_conditional]
        recon = [s for s in cond if s.reconvergence_pc is not None]
        counts = {cls: 0 for cls in BranchClass}
        for s in sites.values():
            counts[s.branch_class] += 1
        bounds = self.reuse_bounds(window)
        kill_sizes = [
            len(b.fall_kills | b.taken_kills) for b in bounds
        ]
        ceiling = [100.0 * b.best / b.window for b in bounds if b.window]
        return StaticSummary(
            name=self.name,
            instructions=len(self.program.instructions),
            blocks=len(self.cfg.blocks),
            edges=self.cfg.num_edges,
            loops=len(self.loops),
            branch_sites=len(sites),
            cond_sites=len(cond),
            class_counts=counts,
            cond_with_reconvergence=len(recon),
            avg_kill_set_size=(
                sum(kill_sizes) / len(kill_sizes) if kill_sizes else 0.0
            ),
            reuse_ceiling_pct=(
                sum(ceiling) / len(ceiling) if ceiling else 0.0
            ),
            reuse_window=window,
        )

    # -- pretty printing ------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable dump of the branch-site table."""
        lines = []
        s = self.summary()
        lines.append(
            f"{self.name}: {s.instructions} instrs, {s.blocks} blocks, "
            f"{s.edges} edges, {s.loops} loops"
        )
        for pc in sorted(self.sites):
            site = self.sites[pc]
            recon = (
                f"reconv=0x{site.reconvergence_pc:x}"
                if site.reconvergence_pc is not None else "reconv=-"
            )
            tgt = (
                f"tgt=0x{site.target_pc:x}" if site.target_pc is not None
                else "tgt=?"
            )
            lines.append(
                f"  0x{pc:04x} {site.mnemonic:<6s} {site.branch_class.value:<9s} "
                f"{tgt:<12s} {recon}"
            )
        return "\n".join(lines)
