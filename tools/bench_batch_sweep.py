#!/usr/bin/env python3
"""Pinned batch-sweep benchmark: long-lived workers vs a process per point.

Runs one fixed 8-point sweep (compress on ``big.2.16`` with REC/RS/RU,
an ``active_list_size`` × ``confidence_threshold`` grid) twice through
the same 2-worker executor pool, in the same process, back to back:

* **baseline** — ``batch_size=1``: a fresh worker process per point;
* **batched** — ``batch_size=8``: each worker serves up to 8 points, one
  at a time, in one process and one gc epoch.  The pool still hands
  every idle worker the next point, so the sweep spreads over both
  workers and only the per-process cost is saved.

Both sides pin ``mp_context="spawn"`` so the per-process cost — the
thing batching amortises — is the portable one (spawn is the only
start method on Windows and the default on macOS; fork-specific
copy-on-write savings would make the baseline unrealistically cheap and
platform-dependent).

The run also *verifies* the batching contract before recording anything:
every point's stats payload must be bit-identical between the two
modes.  A parity violation exits 2 and records nothing.

With ``--bench-json`` the result merges into the benchmark payload as

* ``sweep_points_per_second`` — the batched headline throughput, and
* ``batch_sweep`` — the full detail block (both throughputs, speedup,
  and the pinned spec), compared warn-only by ``tools/bench_compare.py``.

Usage::

    PYTHONPATH=src python tools/bench_batch_sweep.py
    PYTHONPATH=src python tools/bench_batch_sweep.py --bench-json BENCH_core.json

Exit codes: 0 ok, 2 parity violation between batched and baseline runs.
"""

from __future__ import annotations

import argparse
import json
import time

PINNED = dict(
    workload="compress",
    machine="big.2.16",
    features="REC/RS/RU",
    commit_target=1500,
    grid={"active_list_size": [32, 64, 128, 256],
          "confidence_threshold": [4, 12]},
)


def pinned_jobs():
    from repro.sim.sweep import Sweep

    sweep = Sweep(
        workloads=[(PINNED["workload"],)],
        grid=PINNED["grid"],
        machine=PINNED["machine"],
        features=PINNED["features"],
        commit_target=PINNED["commit_target"],
    )
    return sweep.jobs()


def comparable(outcome) -> dict:
    from repro.exec.jobs import stats_to_payload

    return stats_to_payload(outcome.result.stats)


def run_mode(jobs, suite, pool_jobs: int, batch_size: int, rounds: int):
    """Best-of-N throughput for one executor configuration."""
    from repro.exec.pool import Executor

    best = float("inf")
    outcomes = None
    for _ in range(rounds):
        executor = Executor(jobs=pool_jobs, mp_context="spawn",
                            batch_size=batch_size)
        started = time.perf_counter()
        outcomes = executor.run(jobs, suite=suite)
        best = min(best, time.perf_counter() - started)
    return len(jobs) / best, best, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool-jobs", type=int, default=2,
                        help="worker processes in the pool (both modes)")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="points per worker process in the batched mode")
    parser.add_argument("--rounds", type=int, default=2,
                        help="samples per mode (best-of is recorded)")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="merge sweep_points_per_second and the "
                             "batch_sweep block into this payload")
    args = parser.parse_args(argv)

    from repro.workloads.suite import WorkloadSuite

    jobs = pinned_jobs()
    suite = WorkloadSuite()

    baseline_pps, baseline_s, baseline = run_mode(
        jobs, suite, args.pool_jobs, 1, args.rounds)
    print(f"baseline  pool(jobs={args.pool_jobs}, batch_size=1):  "
          f"{baseline_s:6.2f}s  {baseline_pps:6.2f} points/s")

    batched_pps, batched_s, batched = run_mode(
        jobs, suite, args.pool_jobs, args.batch_size, args.rounds)
    print(f"batched   pool(jobs={args.pool_jobs}, batch_size={args.batch_size}):  "
          f"{batched_s:6.2f}s  {batched_pps:6.2f} points/s")

    speedup = batched_pps / baseline_pps
    print(f"speedup: {speedup:.2f}x")

    # Bit-identity gate: a throughput number for a wrong answer is noise.
    for index, (a, b) in enumerate(zip(baseline, batched)):
        if not (a.ok and b.ok):
            print(f"FAIL point {index}: baseline ok={a.ok} batched ok={b.ok}")
            return 2
        if comparable(a) != comparable(b):
            print(f"FAIL point {index}: batched stats diverge from baseline")
            return 2
    print(f"parity: all {len(jobs)} points bit-identical")

    if args.bench_json:
        try:
            with open(args.bench_json) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            payload = {}
        payload["sweep_points_per_second"] = round(batched_pps, 2)
        payload["batch_sweep"] = {
            "spec": PINNED,
            "points": len(jobs),
            "pool_jobs": args.pool_jobs,
            "batch_size": args.batch_size,
            "mp_context": "spawn",
            "serial_pool_points_per_second": round(baseline_pps, 2),
            "batched_points_per_second": round(batched_pps, 2),
            "speedup": round(speedup, 2),
        }
        with open(args.bench_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded sweep_points_per_second in {args.bench_json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
