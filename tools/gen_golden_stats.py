#!/usr/bin/env python3
"""Regenerate the golden stats snapshot fixture.

``tests/golden/core_stats_seed.json`` pins the headline per-kernel
numbers (IPC, recycle/reuse/respawn rates, fetch slot usage) that the
stage-decomposition refactor must preserve bit-for-bit.  Regenerating
it is an *intentional* act — only do so when a change is supposed to
shift simulation results, and say so in the commit message.

Usage::

    PYTHONPATH=src python tools/gen_golden_stats.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pipeline.core import Core  # noqa: E402
from repro.sim.runner import RunSpec  # noqa: E402
from repro.workloads.suite import WorkloadSuite  # noqa: E402

#: The matrix the snapshot covers: the recycle feature family the paper
#: ablates, on two kernels with very different branch behaviour.
KERNELS = ("compress", "li")
FEATURES = ("TME", "REC", "REC/RS", "REC/RS/RU")
COMMIT_TARGET = 800

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "golden" / "core_stats_seed.json"


def snapshot_one(suite: WorkloadSuite, kernel: str, features: str) -> dict:
    """The pinned numbers of one run."""
    spec = RunSpec(workload=(kernel,), features=features, commit_target=COMMIT_TARGET)
    config = spec.build_config()
    core = Core(config)
    core.load(suite.mix(spec.workload), commit_target=spec.commit_target)
    stats = core.run(max_cycles=spec.max_cycles)
    return {
        "cycles": stats.cycles,
        "committed": stats.committed,
        "fetched": stats.fetched,
        "renamed": stats.renamed,
        "renamed_recycled": stats.renamed_recycled,
        "renamed_reused": stats.renamed_reused,
        "renamed_reused_loads": stats.renamed_reused_loads,
        "squashed": stats.squashed,
        "ipc": stats.ipc,
        "pct_recycled": stats.pct_recycled,
        "pct_reused": stats.pct_reused,
        "forks": stats.forks,
        "forks_used_tme": stats.forks_used_tme,
        "respawns": stats.respawns,
        "respawn_streams": stats.respawn_streams,
        "merges": stats.merges,
        "back_merges": stats.back_merges,
        "cond_branches_resolved": stats.cond_branches_resolved,
        "mispredicts": stats.mispredicts,
        "mispredicts_covered": stats.mispredicts_covered,
        "streams_ended_exhausted": stats.streams_ended_exhausted,
        "streams_ended_squashed": stats.streams_ended_squashed,
        "streams_ended_branch_mismatch": stats.streams_ended_branch_mismatch,
        # Slot-usage ratios (the paper's bandwidth argument).
        "fetch_util_average": stats.fetched / stats.cycles,
        "fetch_util_utilization": stats.fetched / (stats.cycles * config.fetch_total),
        "rename_fill_from_recycling": (
            stats.renamed_recycled / stats.renamed if stats.renamed else 0.0
        ),
    }


def main() -> int:
    suite = WorkloadSuite()
    payload = {
        "commit_target": COMMIT_TARGET,
        "runs": {
            f"{kernel}|{features}": snapshot_one(suite, kernel, features)
            for kernel in KERNELS
            for features in FEATURES
        },
    }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(payload['runs'])} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
