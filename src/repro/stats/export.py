"""Structured export of simulation statistics (JSON-ready dicts)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .counters import SimStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..sim.runner import RunResult


def stats_to_dict(stats: SimStats) -> Dict:
    """Flatten a :class:`SimStats` into a JSON-serialisable dict.

    Includes both the raw counters and the derived percentages the
    paper reports, so downstream analysis never recomputes them
    differently.
    """
    return {
        "cycles": stats.cycles,
        "committed": stats.committed,
        "ipc": stats.ipc,
        "renamed": stats.renamed,
        "fetched": stats.fetched,
        "squashed": stats.squashed,
        "recycled": {
            "renamed_recycled": stats.renamed_recycled,
            "renamed_reused": stats.renamed_reused,
            "renamed_reused_loads": stats.renamed_reused_loads,
            "pct_recycled": stats.pct_recycled,
            "pct_reused": stats.pct_reused,
            "merges": stats.merges,
            "back_merges": stats.back_merges,
            "pct_back_merges": stats.pct_back_merges,
            "respawns": stats.respawns,
            "respawn_streams": stats.respawn_streams,
            "streams_ended": {
                "branch_mismatch": stats.streams_ended_branch_mismatch,
                "exhausted": stats.streams_ended_exhausted,
                "squashed": stats.streams_ended_squashed,
            },
        },
        "branches": {
            "resolved": stats.cond_branches_resolved,
            "mispredicts": stats.mispredicts,
            "mispredicts_covered": stats.mispredicts_covered,
            "accuracy_pct": stats.branch_prediction_accuracy,
            "miss_coverage_pct": stats.branch_miss_coverage,
        },
        "forks": {
            "total": stats.forks,
            "used_tme": stats.forks_used_tme,
            "pct_used_tme": stats.pct_forks_used_tme,
            "suppressed_duplicate": stats.fork_suppressed_duplicate,
            "alt_paths_deleted": stats.alt_paths_deleted,
            "pct_recycled": stats.pct_forks_recycled,
            "pct_respawned": stats.pct_forks_respawned,
            "merges_per_alt_path": stats.merges_per_alt_path,
        },
        "reclaims": {
            "for_spawn": stats.reclaim_for_spawn,
            "for_pressure": stats.reclaim_for_pressure,
        },
        # The simulator's own frontend recycling: decoded-uop cache
        # effectiveness for this run.
        "uop_cache": {
            "hits": stats.uop_cache_hits,
            "misses": stats.uop_cache_misses,
            "hit_rate": stats.uop_cache_hit_rate,
            "decode_counts": dict(stats.decode_counts),
        },
        # Decanting breakdowns (Coppieters et al., arXiv:1711.06672):
        # uop-cache and reuse hits attributed by functional-unit class
        # crossed with backward-branch loop membership
        # ("<fuclass>[.loop]").
        "decant": {
            "uop_cache_hits_by_class": dict(stats.uop_cache_hits_by_class),
            "reused_by_class": dict(stats.reused_by_class),
        },
        "per_instance": {
            str(k): {
                "committed": stats.per_instance_committed.get(k, 0),
                "cycles": stats.per_instance_cycles.get(k, stats.cycles),
                "ipc": stats.instance_ipc(k),
            }
            for k in stats.per_instance_committed
        },
    }


def run_result_to_dict(result: "RunResult") -> Dict:
    """Flatten a :class:`~repro.sim.runner.RunResult` into the canonical
    JSON document shared by ``repro-sim run --json``, ``repro-sim fetch``
    and the campaign service's ``GET /jobs/{id}/result`` endpoint — one
    serialisation, so clients never see two shapes of the same result."""
    # Imported here: exec.jobs imports the runner, which imports this
    # package, so a module-level import would cycle.
    from ..exec.jobs import spec_to_payload

    return {
        "spec": spec_to_payload(result.spec),
        "ipc": result.ipc,
        "stats": stats_to_dict(result.stats),
        "per_program_ipc": dict(result.per_program_ipc),
    }
