"""Concurrency stress tests for the service layer.

Three pressure points:

* the **store**: many threads *and* separate processes recording into one
  ``ArtifactStore`` — every entry must survive intact (no torn entry, no
  lost key, no temp file left behind);
* **lease expiry**: a scheduler with a tiny ``lease_ttl`` whose leases are
  deliberately dropped by some workers and completed by others — expired
  leases must re-queue and the campaign must still converge to ``done``;
* **closing**: callers racing ``Scheduler.close()`` must each get a reply
  or ``SchedulerClosed`` — none may wait forever on the stopped owner.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service.scheduler import Scheduler, SchedulerClosed
from repro.service.spec import sweep_spec
from repro.service.store import ArtifactStore

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

# Records `count` results tagged `tag` into the shared store root.
_APPEND_SCRIPT = """
import sys
from repro.service.store import ArtifactStore
root, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ArtifactStore(root)
for i in range(count):
    store.record(f"{tag}-{i:03d}", {"tag": tag, "seq": i})
"""


def _spawn_appender(root: Path, tag: str, count: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _APPEND_SCRIPT, str(root), tag, str(count)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def test_store_survives_thread_and_process_hammering(tmp_path):
    threads_n, procs_n, per_writer = 3, 2, 20
    # One store instance per thread — exactly how independent writers
    # (a second server, a restarted one) share the directory tree.
    stores = [ArtifactStore(tmp_path) for _ in range(threads_n)]
    errors = []

    def hammer(store, tag):
        try:
            for i in range(per_writer):
                store.record(f"{tag}-{i:03d}", {"tag": tag, "seq": i})
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    procs = [
        _spawn_appender(tmp_path, f"proc{p}", per_writer)
        for p in range(procs_n)
    ]
    threads = [
        threading.Thread(target=hammer, args=(store, f"thread{t}"))
        for t, store in enumerate(stores)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    for proc in procs:
        _, err = proc.communicate(timeout=60.0)
        assert proc.returncode == 0, err.decode()
    assert errors == []

    # Every writer's every key reads back intact through a fresh store,
    # and no atomic write left its temp file behind.
    fresh = ArtifactStore(tmp_path)
    assert len(fresh) == (threads_n + procs_n) * per_writer
    for tag in [f"thread{t}" for t in range(threads_n)] + [
        f"proc{p}" for p in range(procs_n)
    ]:
        for i in range(per_writer):
            assert fresh.get(f"{tag}-{i:03d}") == {"tag": tag, "seq": i}
    assert fresh.misses == 0
    assert sorted(tmp_path.rglob("*.tmp")) == []


def test_lease_expiry_under_contention(tmp_path):
    """Dropped leases expire, re-queue and are completed by healthier
    workers; the campaign converges.  Each expiry costs its task an
    attempt, so the droppers get a bound they cannot exhaust."""
    store = ArtifactStore(tmp_path)
    scheduler = Scheduler(store, lease_ttl=0.05, max_attempts=1_000_000)
    try:
        status = scheduler.submit(
            sweep_spec(
                ["compress"],
                grid={"active_list_size": [8, 16, 24, 32, 40, 48]},
                commit_target=100,
                label="lease-stress",
            )
        )
        campaign_id = status["id"]

        # Lease-and-abandon up front so expiry provably happens even
        # if the racing droppers below never win a lease.
        abandoned = scheduler.lease(max_tasks=2, worker="doomed")
        assert abandoned
        time.sleep(0.06)  # let those leases expire

        stop = threading.Event()

        def dropper():
            # Grabs leases and walks away; each one must expire and
            # re-queue rather than wedging the campaign.
            while not stop.is_set():
                scheduler.lease(max_tasks=1, worker="dropper")
                time.sleep(0.02)

        def worker():
            while not stop.is_set():
                tasks = scheduler.lease(max_tasks=1, worker="worker")
                if not tasks:
                    time.sleep(0.005)
                    continue
                for task in tasks:
                    # Completing a lease that expired under us is
                    # tolerated (complete returns False) — exactly
                    # the race this stress is about.
                    scheduler.complete(
                        task["key"],
                        {"ipc": 1.0, "stress": True},
                        worker="worker",
                    )

        threads = [threading.Thread(target=dropper) for _ in range(2)]
        threads += [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if scheduler.campaign_status(campaign_id)["state"] == "done":
                    break
                time.sleep(0.02)
            else:
                pytest.fail("campaign never converged under lease churn")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)

        counters = scheduler.metrics()["jobs"]
        assert counters["leases_expired"] >= 2  # the abandoned pair
        assert counters["jobs_done"] == 6
    finally:
        scheduler.close()


def test_close_under_contention_leaves_no_caller_waiting(tmp_path):
    """Callers racing ``close()`` each get a reply or
    :class:`SchedulerClosed`; none is left waiting on the stopped owner."""
    spec = sweep_spec(["compress"], grid={"active_list_size": [8]},
                      commit_target=100)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(20):  # the race window is narrow; widen the odds
            scheduler = Scheduler(ArtifactStore(tmp_path / str(round_)))
            campaign_id = scheduler.submit(spec)["id"]
            calls = (scheduler.metrics,
                     lambda: scheduler.wait_for_work(timeout=0.01),
                     lambda: scheduler.events_since(campaign_id, 0, timeout=0.01))
            outcomes = []

            def caller(call):
                try:
                    while True:
                        call()
                except SchedulerClosed:
                    outcomes.append(call)

            threads = [threading.Thread(target=caller, args=(calls[i % 3],),
                                        daemon=True) for i in range(8)]
            for t in threads:
                t.start()
            time.sleep(0.02)
            scheduler.close()
            for t in threads:
                t.join(timeout=5.0)
                assert not t.is_alive(), f"a caller waits forever (round {round_})"
            assert len(outcomes) == len(threads)
    finally:
        sys.setswitchinterval(previous)
