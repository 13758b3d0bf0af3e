"""Simulation statistics.

Counts everything the paper reports: IPC (Figures 3-6) and the Table 1
recycling statistics — percentage of rename-stage instructions that
were recycled/reused, branch-miss coverage by forking, how forked paths
were consumed (TME swap / recycled / re-spawned), merges per alternate
path, and the share of backward-branch merges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimStats:
    cycles: int = 0
    # Rename-stage accounting ("all instructions, including squashed ones,
    # inserted into the rename stage").
    renamed: int = 0
    renamed_recycled: int = 0
    renamed_reused: int = 0
    #: reused instructions that were loads (the MDB-gated subset)
    renamed_reused_loads: int = 0
    fetched: int = 0
    committed: int = 0
    squashed: int = 0
    # Branch behaviour (resolved on the architectural path).
    cond_branches_resolved: int = 0
    mispredicts: int = 0
    mispredicts_covered: int = 0  # mispredicted but fork-covered (TME swap)
    # Forking.
    forks: int = 0
    forks_used_tme: int = 0
    respawns: int = 0
    fork_suppressed_duplicate: int = 0
    # Recycle streams.
    merges: int = 0  # streams started (excluding re-spawn streams)
    back_merges: int = 0
    respawn_streams: int = 0
    streams_ended_branch_mismatch: int = 0
    streams_ended_exhausted: int = 0
    streams_ended_squashed: int = 0
    # Retired fork-path accounting (finalised when a trace is deleted).
    alt_paths_deleted: int = 0
    alt_paths_recycled: int = 0
    alt_paths_respawned: int = 0
    alt_path_merge_total: int = 0
    # Context reclaim reasons.
    reclaim_for_spawn: int = 0
    reclaim_for_pressure: int = 0
    # Per-program commits.
    per_instance_committed: Dict[int, int] = field(default_factory=dict)
    per_instance_cycles: Dict[int, int] = field(default_factory=dict)
    # Decoded-uop cache (the simulator's own frontend recycling;
    # copied from the cache at finalisation).
    uop_cache_hits: int = 0
    uop_cache_misses: int = 0
    #: Decodes per program name (cache misses that found text).
    decode_counts: Dict[str, int] = field(default_factory=dict)
    # Decanting breakdowns (Coppieters et al., arXiv:1711.06672):
    # hits keyed by "<fuclass>[.loop]" — instruction class crossed with
    # backward-branch loop membership.
    uop_cache_hits_by_class: Dict[str, int] = field(default_factory=dict)
    reused_by_class: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def pct_recycled(self) -> float:
        return 100.0 * self.renamed_recycled / self.renamed if self.renamed else 0.0

    @property
    def pct_reused(self) -> float:
        return 100.0 * self.renamed_reused / self.renamed if self.renamed else 0.0

    @property
    def uop_cache_hit_rate(self) -> float:
        lookups = self.uop_cache_hits + self.uop_cache_misses
        return self.uop_cache_hits / lookups if lookups else 0.0

    @property
    def branch_miss_coverage(self) -> float:
        if not self.mispredicts:
            return 0.0
        return 100.0 * self.mispredicts_covered / self.mispredicts

    @property
    def branch_prediction_accuracy(self) -> float:
        if not self.cond_branches_resolved:
            return 0.0
        return 100.0 * (1 - self.mispredicts / self.cond_branches_resolved)

    @property
    def pct_forks_used_tme(self) -> float:
        return 100.0 * self.forks_used_tme / self.forks if self.forks else 0.0

    @property
    def pct_forks_recycled(self) -> float:
        if not self.alt_paths_deleted:
            return 0.0
        return 100.0 * self.alt_paths_recycled / self.alt_paths_deleted

    @property
    def pct_forks_respawned(self) -> float:
        if not self.alt_paths_deleted:
            return 0.0
        return 100.0 * self.alt_paths_respawned / self.alt_paths_deleted

    @property
    def merges_per_alt_path(self) -> float:
        """Average non-back merges served per deleted alternate path that
        was recycled at least once (Table 1's 'Merges Per Alt Path')."""
        if not self.alt_paths_recycled:
            return 0.0
        return self.alt_path_merge_total / self.alt_paths_recycled

    @property
    def pct_back_merges(self) -> float:
        total = self.merges + self.back_merges
        return 100.0 * self.back_merges / total if total else 0.0

    def instance_ipc(self, instance_id: int) -> float:
        cycles = self.per_instance_cycles.get(instance_id, self.cycles)
        if not cycles:
            return 0.0
        return self.per_instance_committed.get(instance_id, 0) / cycles

    # ------------------------------------------------------------------
    def table1_row(self) -> Dict[str, float]:
        """The Table 1 statistics for this run."""
        return {
            "pct_recycled": self.pct_recycled,
            "pct_reused": self.pct_reused,
            "branch_miss_cov": self.branch_miss_coverage,
            "pct_forks_tme": self.pct_forks_used_tme,
            "pct_forks_recycled": self.pct_forks_recycled,
            "pct_forks_respawned": self.pct_forks_respawned,
            "merges_per_alt_path": self.merges_per_alt_path,
            "pct_back_merges": self.pct_back_merges,
        }

    def summary(self) -> str:
        lines = [
            f"cycles={self.cycles} committed={self.committed} IPC={self.ipc:.3f}",
            (
                f"renamed={self.renamed} recycled={self.pct_recycled:.1f}% "
                f"reused={self.pct_reused:.1f}%"
            ),
            (
                f"branches={self.cond_branches_resolved} "
                f"accuracy={self.branch_prediction_accuracy:.1f}% "
                f"miss_coverage={self.branch_miss_coverage:.1f}%"
            ),
            (
                f"forks={self.forks} tme_used={self.pct_forks_used_tme:.1f}% "
                f"respawns={self.respawns} merges={self.merges} "
                f"back_merges={self.back_merges}"
            ),
        ]
        return "\n".join(lines)
