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
5. boot a head with no local workers on a fresh store: a ``/lease`` from
   a worker on other simulator code gets 409 and leases nothing, and a
   remote worker (``run_worker`` over HTTP) drains the campaign to the
   same ``stats``, label for label, as the cold phase.

Usage::

    PYTHONPATH=src python tools/service_smoke.py --commit-target 400

Exit codes: 0 ok, 1 any guarantee violated.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading


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


def remote_worker_phase(store_root: str, spec: dict, cold_stats: dict) -> None:
    """Drain ``spec`` on a head with no local workers through a remote
    worker; its results must equal ``cold_stats`` (label → stats)."""
    from repro.service import CampaignServer, ServiceClient, ServiceError, run_worker

    server = CampaignServer(store_root, port=0, local_workers=0).start()
    try:
        client = ServiceClient(server.url, timeout=60.0)
        campaign_id = client.submit(spec)["id"]
        try:
            client._request("POST", "/lease", {"max_tasks": 1, "worker": "stranger",
                                               "sim_fingerprint": "0" * 16})
            check(False, "a worker on other simulator code was leased work")
        except ServiceError as exc:
            check(exc.status == 409, f"a foreign-fingerprint lease got {exc}")
        check(client.metrics()["jobs"]["leases_granted"] == 0,
              "a refused lease granted tasks")
        print("foreign-fingerprint lease: 409, nothing leased")

        stop = threading.Event()
        worker = threading.Thread(target=run_worker, args=(server.url, "smoke-remote"),
                                  kwargs={"poll": 0.05, "stop": stop})
        worker.start()
        try:
            status = client.wait(campaign_id, timeout=300.0)
        finally:
            stop.set()
            worker.join(timeout=60.0)
        check(not worker.is_alive(), "the remote worker did not stop")
        check(status["state"] == "done",
              f"remote-worker campaign finished {status['state']!r}")
        remote_stats = {doc["label"]: doc["stats"] for doc in client.fetch_results(campaign_id)}
        differing = sorted(label for label in cold_stats
                           if remote_stats.get(label) != cold_stats[label])
        check(remote_stats == cold_stats,
              f"remote-worker results differ from the cold phase's: {differing}")
        print(f"remote worker: {len(remote_stats)} result(s), identical to the cold phase")
    finally:
        server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit-target", type=int, default=400,
                        help="instructions per job (small = fast CI)")
    parser.add_argument("--local-workers", type=int, default=2)
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
            cold_stats = {doc["label"]: doc["stats"] for doc in documents}
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
        finally:
            server.stop()

        remote_worker_phase(os.path.join(root, "remote"), spec, cold_stats)

    print("service_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
