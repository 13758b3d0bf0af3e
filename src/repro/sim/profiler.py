"""Per-stage wall-time profiling for the simulator itself.

The stage decomposition makes the natural profiling boundary the stage
call: :meth:`Core.step` routes each stage through
:meth:`StageProfiler.timed` when a profiler is attached via
``core.set_profiler(...)``.  This measures the *simulator's* speed
(host seconds per stage, simulated cycles per host second), not the
modelled machine — it lives under :mod:`repro.sim` because the
pipeline packages are wall-clock-free by lint rule (DET001).

``profile_spec`` runs one kernel with profiling attached and returns a
JSON-ready payload; the CLI writes it to ``BENCH_core.json`` so the
perf trajectory of future refactors has a baseline to diff against.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

#: Stage keys in the order Core.step() evaluates them.
STAGE_ORDER = ("commit", "complete", "issue", "rename", "fetch")


class StageProfiler:
    """Accumulates wall seconds and call counts per pipeline stage."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {name: 0.0 for name in STAGE_ORDER}
        self.calls: Dict[str, int] = {name: 0 for name in STAGE_ORDER}

    def timed(self, name: str, fn: Callable[[], None]) -> None:
        # Every stage key is preinitialised in __init__, so plain
        # indexed += keeps this wrapper (5 calls/cycle) cheap.
        start = time.perf_counter()
        fn()
        self.seconds[name] += time.perf_counter() - start
        self.calls[name] += 1

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-stage seconds and share of total stage time."""
        total = self.total_seconds
        return {
            name: {
                "seconds": round(self.seconds[name], 6),
                "pct": round(100.0 * self.seconds[name] / total, 2) if total else 0.0,
            }
            for name in STAGE_ORDER
        }


def profile_spec(spec, suite=None) -> Dict:
    """Run ``spec`` twice: a clean pass and an instrumented pass.

    The headline wall time and cycles/sec come from a run *without* the
    per-stage timer attached — ``timed`` wraps five stage calls per
    cycle, and at current simulator speeds those ~10 extra
    ``perf_counter`` reads per cycle are a measurable observer effect
    (several percent of the whole run).  A second, fresh run with the
    profiler attached supplies the per-stage breakdown; the simulator
    is deterministic, so both passes execute the identical cycle
    sequence.  Returns the ``BENCH_core.json`` payload.  Always
    in-process serial runs.
    """
    from ..pipeline.core import Core
    from ..workloads.suite import WorkloadSuite

    suite = suite or WorkloadSuite()
    programs = suite.mix(spec.workload)

    # Pass 1 — per-stage breakdown with timed stages.  Running it first
    # also serves as warm-up, so the headline pass below measures a
    # steady-state interpreter rather than cold code paths.
    instrumented = Core(spec.build_config())
    instrumented.load(programs, commit_target=spec.commit_target)
    profiler = StageProfiler()
    instrumented.set_profiler(profiler)
    istarted = time.perf_counter()
    istats = instrumented.run(max_cycles=spec.max_cycles)
    iwall = time.perf_counter() - istarted

    # Pass 2 — headline throughput, no instrumentation attached.
    core = Core(spec.build_config())
    core.load(programs, commit_target=spec.commit_target)
    started = time.perf_counter()
    stats = core.run(max_cycles=spec.max_cycles)
    wall = time.perf_counter() - started
    state = core.state
    assert istats.cycles == stats.cycles, "profiled pass diverged"
    uop_cache = state.uop_cache.snapshot()
    wakeups = state.int_queue.wakeups + state.fp_queue.wakeups
    polls = state.int_queue.ready_polls + state.fp_queue.ready_polls
    returned = state.int_queue.ready_returned + state.fp_queue.ready_returned
    fwd_lookups = state.store_fwd_hits + state.store_fwd_misses
    scheduler = {
        "wakeups": wakeups,
        "ready_polls": polls,
        "ready_returned": returned,
        "ready_per_poll": round(returned / polls, 3) if polls else 0.0,
        "store_fwd_hits": state.store_fwd_hits,
        "store_fwd_misses": state.store_fwd_misses,
        "store_fwd_hit_rate": (
            round(state.store_fwd_hits / fwd_lookups, 4) if fwd_lookups else 0.0
        ),
    }
    return {
        "kernel": "+".join(spec.workload),
        "machine": spec.machine,
        "features": spec.features,
        "commit_target": spec.commit_target,
        "cycles": stats.cycles,
        "committed": stats.committed,
        "ipc": round(stats.ipc, 4),
        "wall_seconds": round(wall, 4),
        "cycles_per_second": round(stats.cycles / wall, 1) if wall else 0.0,
        "committed_per_second": round(stats.committed / wall, 1) if wall else 0.0,
        "instrumented_wall_seconds": round(iwall, 4),
        "stage_seconds_total": round(profiler.total_seconds, 4),
        "stages": profiler.breakdown(),
        "scheduler": scheduler,
        "uop_cache": uop_cache,
    }


def format_profile(payload: Dict) -> str:
    lines = [
        f"{payload['kernel']} [{payload['features']}] on {payload['machine']}: "
        f"{payload['cycles']} cycles, {payload['committed']} committed, "
        f"IPC {payload['ipc']:.3f}",
        f"  wall {payload['wall_seconds']:.2f}s — "
        f"{payload['cycles_per_second']:,.0f} cycles/s, "
        f"{payload['committed_per_second']:,.0f} commits/s",
        "  per-stage wall time:",
    ]
    for name in STAGE_ORDER:
        stage = payload["stages"][name]
        bar = "#" * int(round(stage["pct"] / 2))
        lines.append(
            f"    {name:<9s} {stage['seconds']:8.3f}s  {stage['pct']:5.1f}%  {bar}"
        )
    sched = payload.get("scheduler")
    if sched:
        lines.append(
            "  scheduler: "
            f"{sched['wakeups']:,} wakeups, "
            f"{sched['ready_returned']:,} ready over {sched['ready_polls']:,} polls "
            f"({sched['ready_per_poll']:.2f}/poll), "
            f"store-fwd hit rate {sched['store_fwd_hit_rate']:.1%} "
            f"({sched['store_fwd_hits']:,}/{sched['store_fwd_hits'] + sched['store_fwd_misses']:,})"
        )
    ucache = payload.get("uop_cache")
    if ucache:
        lines.append(
            "  uop cache: "
            f"{ucache['hits']:,} hits / {ucache['misses']:,} misses "
            f"({ucache['hit_rate']:.1%}), "
            f"{ucache['entries']:,} entries"
        )
        decodes = ucache.get("decode_counts") or {}
        if decodes:
            per_kernel = ", ".join(f"{k}: {v:,}" for k, v in decodes.items())
            lines.append(f"  decodes by kernel: {per_kernel}")
    return "\n".join(lines)


def write_bench(payload: Dict, path: str = "BENCH_core.json") -> Optional[str]:
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
