#!/usr/bin/env python3
"""CI smoke test for the campaign service (``repro-sim serve``).

Boots a real server (loopback HTTP, temp artifact store), then drives
the full client path and asserts the service's core guarantees:

1. submit a tiny sweep campaign → it runs to ``done``;
2. fetch every result document;
3. resubmit the identical spec → every job resolves from the store
   (``resolution == "store"``) and **zero** additional simulations run;
4. stop the server, boot a fresh one on the same store root and resubmit
   the spec → again every job resolves from the store (the cache is the
   only record a restart has) and the new server simulates nothing;
5. measure warm submit→result latency for a single-job campaign and,
   with ``--bench-json``, record it as the ``service_warm_submit_seconds``
   field of the benchmark payload (a warn-only metric for
   ``tools/bench_compare.py``).

Usage::

    PYTHONPATH=src python tools/service_smoke.py --commit-target 400
    PYTHONPATH=src python tools/service_smoke.py --bench-json BENCH_core.json

Exit codes: 0 ok, 1 any guarantee violated.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"service_smoke: FAIL — {message}")


def check_all_stored(client, spec: dict, executed: int, when: str) -> None:
    """Submit ``spec``; every job must resolve from the store, every
    result must fetch, and the server's ``tasks_executed`` must stay at
    ``executed``."""
    status = client.wait(client.submit(spec)["id"], timeout=60.0)
    check(status["state"] == "done", f"{when} campaign finished {status['state']!r}")
    resolutions = [job["resolution"] for job in status["jobs"]]
    check(all(r == "store" for r in resolutions),
          f"{when} resubmit was not pure store hits: {resolutions}")
    documents = client.fetch_results(status["id"])
    check(len(documents) == len(status["jobs"]),
          f"{when} resubmit fetched {len(documents)}/{len(status['jobs'])} results")
    still_executed = client.metrics()["jobs"]["tasks_executed"]
    check(still_executed == executed,
          f"{when} resubmit re-ran {still_executed - executed} task(s)")
    print(f"{when} resubmit: all store hits, zero re-runs")


def warm_latency(client, spec: dict, rounds: int) -> float:
    """Best-of-N submit→result wall time for an all-cached campaign."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        submitted = client.submit(spec)
        for job in submitted["jobs"]:
            client.result(job["id"])
        best = min(best, time.perf_counter() - started)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit-target", type=int, default=400,
                        help="instructions per job (small = fast CI)")
    parser.add_argument("--local-workers", type=int, default=2)
    parser.add_argument("--latency-rounds", type=int, default=5,
                        help="warm-latency samples (best-of is recorded)")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="merge service_warm_submit_seconds into this "
                             "benchmark payload")
    args = parser.parse_args(argv)

    from repro.service import CampaignServer, ServiceClient, sweep_spec

    spec = sweep_spec(
        ["compress", "go"],
        grid={"active_list_size": [32, 64]},
        commit_target=args.commit_target,
        label="smoke",
    )

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as root:
        server = CampaignServer(
            root, port=0, local_workers=args.local_workers
        ).start()
        try:
            client = ServiceClient(server.url, timeout=60.0)
            health = client.healthz()
            check(health.get("ok") is True, f"healthz said {health}")

            cold = client.submit(spec)
            print(f"submitted {cold['id']}: {len(cold['jobs'])} job(s)")
            status = client.wait(cold["id"], timeout=300.0)
            check(status["state"] == "done",
                  f"campaign finished {status['state']!r}")
            documents = client.fetch_results(cold["id"])
            check(len(documents) == len(cold["jobs"]),
                  f"fetched {len(documents)}/{len(cold['jobs'])} results")
            check(all(doc["ipc"] > 0 for doc in documents),
                  "a result document has no IPC")
            executed = client.metrics()["jobs"]["tasks_executed"]
            print(f"cold campaign done: {executed} simulation(s) executed")

            check_all_stored(client, spec, executed, "warm")
        finally:
            server.stop()

        server = CampaignServer(
            root, port=0, local_workers=args.local_workers
        ).start()
        try:
            client = ServiceClient(server.url, timeout=60.0)
            check_all_stored(client, spec, 0, "restarted")

            single = sweep_spec(
                ["compress"],
                grid={"active_list_size": [32]},
                commit_target=args.commit_target,
                label="latency-probe",
            )
            client.submit(single)  # ensure the key is cached
            latency = warm_latency(client, single, args.latency_rounds)
            print(f"warm submit->result latency: {latency * 1000:.1f} ms "
                  f"(best of {args.latency_rounds})")
        finally:
            server.stop()

    if args.bench_json:
        try:
            with open(args.bench_json) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            payload = {}
        payload["service_warm_submit_seconds"] = latency
        with open(args.bench_json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"recorded service_warm_submit_seconds in {args.bench_json}")

    print("service_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
