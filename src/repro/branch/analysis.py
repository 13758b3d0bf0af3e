"""Offline branch-behaviour analysis of workloads.

Replays a program on the functional emulator while modelling the
front-end predictors in isolation — no pipeline — to characterise what
TME and recycling will see: prediction accuracy, the fraction of
dynamic branches the confidence estimator would fork, taken rates, and
static branch-site counts.  This mirrors how the paper motivates its
benchmark selection ("programs with low branch prediction accuracy").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..analysis.branches import BranchClass, classify_transfer
from ..analysis.cfg import CFG
from ..analysis.dominators import dominator_tree
from ..emulator.emulator import Emulator
from ..isa.program import Program
from .confidence import ConfidenceEstimator
from .pht import PatternHistoryTable


@dataclass
class BranchProfile:
    """Branch-behaviour summary of one program run."""

    program: str
    instructions: int = 0
    dynamic_branches: int = 0
    taken: int = 0
    correct: int = 0
    low_confidence: int = 0
    would_fork_mispredicts: int = 0  # mispredicted AND flagged low-confidence
    static_sites: Dict[int, int] = field(default_factory=dict)
    #: static branch-site counts per class — the same taxonomy
    #: (forward / backward / loop-back / indirect) the analysis
    #: subsystem reports, over *all* branch instructions
    static_classes: Dict[BranchClass, int] = field(default_factory=dict)
    #: dynamic conditional-branch executions, bucketed by the static
    #: class of their site
    dynamic_classes: Dict[BranchClass, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        if not self.dynamic_branches:
            return 1.0
        return self.correct / self.dynamic_branches

    @property
    def taken_rate(self) -> float:
        if not self.dynamic_branches:
            return 0.0
        return self.taken / self.dynamic_branches

    @property
    def low_confidence_rate(self) -> float:
        if not self.dynamic_branches:
            return 0.0
        return self.low_confidence / self.dynamic_branches

    @property
    def fork_coverage_bound(self) -> float:
        """Upper bound on TME branch-miss coverage: the share of
        mispredicts the confidence estimator flags as low confidence
        (a fork can only cover a mispredict it was gated to create)."""
        mispredicts = self.dynamic_branches - self.correct
        if not mispredicts:
            return 0.0
        return self.would_fork_mispredicts / mispredicts

    @property
    def branch_density(self) -> float:
        if not self.instructions:
            return 0.0
        return self.dynamic_branches / self.instructions

    def _class_note(self, counts: Dict[BranchClass, int]) -> str:
        return "/".join(
            f"{cls.value}={counts.get(cls, 0)}"
            for cls in BranchClass
            if counts.get(cls, 0)
        ) or "none"

    def summary(self) -> str:
        return (
            f"{self.program}: {self.instructions} instrs, "
            f"{self.dynamic_branches} cond branches "
            f"({100 * self.branch_density:.1f}% density, "
            f"{len(self.static_sites)} sites), "
            f"accuracy {100 * self.accuracy:.1f}%, "
            f"taken {100 * self.taken_rate:.1f}%, "
            f"low-confidence {100 * self.low_confidence_rate:.1f}%, "
            f"coverage bound {100 * self.fork_coverage_bound:.1f}%, "
            f"static [{self._class_note(self.static_classes)}], "
            f"dynamic [{self._class_note(self.dynamic_classes)}]"
        )


def profile_branches(
    program: Program,
    max_instructions: int = 50_000,
    pht_entries: int = 2048,
    confidence_threshold: int = 8,
) -> BranchProfile:
    """Run ``program`` architecturally and model the front-end predictors."""
    pht = PatternHistoryTable(pht_entries)
    confidence = ConfidenceEstimator(threshold=confidence_threshold)
    profile = BranchProfile(program=program.name)
    history = 0
    mask = pht_entries - 1

    # Static classification with the shared analysis taxonomy, so this
    # dynamic profile and `repro-sim analyze` label sites identically.
    cfg = CFG(program)
    idom = dominator_tree(cfg)
    site_class: Dict[int, BranchClass] = {}
    for i, ins in enumerate(program.instructions):
        if ins.info.is_branch:
            site_class[cfg.pc_of(i)] = classify_transfer(program, cfg, idom, i)
    for cls in site_class.values():
        profile.static_classes[cls] = profile.static_classes.get(cls, 0) + 1

    emulator = Emulator(program)
    while profile.instructions < max_instructions and not emulator.halted:
        rec = emulator.step()
        profile.instructions += 1
        if not rec.instr.is_cond_branch:
            continue
        taken = bool(rec.taken)
        predicted = pht.predict(rec.pc, history)
        low_conf = confidence.is_low_confidence(rec.pc, history)
        correct = predicted == taken
        pht.update(rec.pc, history, taken)
        confidence.update(rec.pc, history, correct)

        profile.dynamic_branches += 1
        profile.taken += taken
        profile.correct += correct
        profile.low_confidence += low_conf
        if not correct and low_conf:
            profile.would_fork_mispredicts += 1
        profile.static_sites[rec.pc] = profile.static_sites.get(rec.pc, 0) + 1
        cls = site_class.get(rec.pc)
        if cls is not None:
            profile.dynamic_classes[cls] = profile.dynamic_classes.get(cls, 0) + 1
        history = ((history << 1) | taken) & mask
    return profile


def profile_suite(
    suite, max_instructions: int = 30_000
) -> Dict[str, BranchProfile]:
    """Profile every kernel in a :class:`~repro.workloads.WorkloadSuite`."""
    return {
        name: profile_branches(suite.program(name), max_instructions)
        for name in suite.names
    }
