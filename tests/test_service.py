"""End-to-end campaign service: dedupe, crash resume, workers, HTTP API.

These tests run real simulations (tiny ``commit_target``) through real
HTTP on loopback — the full ``submit → lease → execute → fetch`` path.
"""

import http.client
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from repro.exec.jobs import (
    Job,
    execute_payload,
    job_to_payload,
    run_job,
    spec_from_payload,
    stats_to_payload,
)
from repro.service import (
    ArtifactStore,
    CampaignServer,
    Scheduler,
    ServiceClient,
    ServiceError,
    parse_campaign,
    run_worker,
    sweep_spec,
)
from repro.pipeline.core import Core
from repro.service.scheduler import Campaign, JobRecord, SchedulerClosed, Task
from repro.sim.sweep import Sweep
from repro.workloads.suite import WorkloadSuite

#: Tiny commit target: each simulation lands in tens of milliseconds.
CT = 150


def grid_spec(alist_values, label=""):
    return sweep_spec(
        ["compress", "go"],
        grid={"active_list_size": list(alist_values)},
        commit_target=CT,
        label=label,
    )


def raw_post(server, path, body=b"", content_length=None):
    """POST ``body`` as-is, bypassing the client's encoding; returns the
    status and the decoded JSON reply."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length",
                             content_length or str(len(body)))
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture
def server(tmp_path):
    srv = CampaignServer(tmp_path / "store", port=0, local_workers=2).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=60.0)


@pytest.fixture
def idle_server(tmp_path):
    """A head with no local workers: queued work stays queued."""
    srv = CampaignServer(tmp_path / "store", port=0, local_workers=0).start()
    yield srv
    srv.stop()


class TestEndToEnd:
    def test_submit_runs_to_completion(self, client):
        submitted = client.submit(grid_spec([32], label="smoke"))
        assert submitted["id"] == "c000001"
        assert [job["id"] for job in submitted["jobs"]] == [
            "c000001.0000", "c000001.0001"
        ]
        status = client.wait(submitted["id"], timeout=60.0)
        assert status["state"] == "done"
        assert status["job_states"] == {"done": 2}
        assert all(job["resolution"] == "run" for job in status["jobs"])
        results = client.fetch_results(submitted["id"])
        assert len(results) == 2
        for document in results:
            assert document["ipc"] > 0
            assert document["stats"]["cycles"] > 0

    def test_results_bit_identical_to_serial_sweep(self, client):
        grid = {"active_list_size": [32, 64]}
        submitted = client.submit(grid_spec(grid["active_list_size"]))
        client.wait(submitted["id"], timeout=120.0)
        documents = client.fetch_results(submitted["id"])
        rows = Sweep(
            workloads=[("compress",), ("go",)], grid=grid, commit_target=CT
        ).run()
        assert len(documents) == len(rows) == 4
        for document, row in zip(documents, rows):
            assert tuple(document["spec"]["workload"]) == row.workload
            assert document["overrides"] == row.params
            assert document["ipc"] == row.ipc  # bit-identical, not approx
            assert document["stats"]["cycles"] == row.cycles
            recycled = document["stats"]["recycled"]
            assert recycled["pct_recycled"] == row.pct_recycled
            assert recycled["pct_reused"] == row.pct_reused

    def test_resubmission_is_pure_store_hits(self, client):
        first = client.submit(grid_spec([32, 64]))
        client.wait(first["id"], timeout=120.0)
        executed = client.metrics()["jobs"]["tasks_executed"]
        second = client.submit(grid_spec([32, 64]))
        status = client.wait(second["id"], timeout=30.0)
        assert status["state"] == "done"
        assert all(job["resolution"] == "store" for job in status["jobs"])
        metrics = client.metrics()
        assert metrics["jobs"]["tasks_executed"] == executed  # nothing re-ran
        assert metrics["jobs"]["jobs_from_store"] == 4
        assert metrics["cache_hit_rate"] == pytest.approx(0.5)
        # And the warm campaign's results are byte-for-byte the originals.
        assert client.fetch_results(second["id"]) == [
            {**doc, "job_id": doc["job_id"].replace(first["id"], second["id"]),
             "campaign_id": second["id"], "resolution": "store"}
            for doc in client.fetch_results(first["id"])
        ]


class TestConcurrentClientsDedupe:
    """Acceptance: two clients, overlapping grids, every point exactly once."""

    def test_overlapping_grids_execute_each_point_once(self, server):
        # A covers {32, 48}, B covers {48, 64}: 3 unique points x 2
        # workloads = 6 unique tasks for 8 submitted jobs.
        specs = {"A": grid_spec([32, 48], "A"), "B": grid_spec([48, 64], "B")}
        statuses = {}

        def submit_and_wait(name):
            own_client = ServiceClient(server.url, timeout=60.0)
            submitted = own_client.submit(specs[name])
            statuses[name] = own_client.wait(submitted["id"], timeout=120.0)

        threads = [
            threading.Thread(target=submit_and_wait, args=(name,))
            for name in sorted(specs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert statuses["A"]["state"] == statuses["B"]["state"] == "done"
        metrics = ServiceClient(server.url).metrics()
        assert metrics["jobs"]["tasks_executed"] == 6, (
            "every unique grid point must be simulated exactly once"
        )
        assert metrics["jobs"]["jobs_done"] == 8
        jobs = metrics["jobs"]
        assert (
            jobs["jobs_run"] + jobs["jobs_from_store"] + jobs["jobs_deduped"] == 8
        )

        # The shared points produced identical payloads for both clients.
        by_key = {}
        own_client = ServiceClient(server.url)
        for status in statuses.values():
            for job in status["jobs"]:
                document = own_client.result(job["id"])
                scrubbed = {
                    k: v for k, v in document.items()
                    if k not in ("job_id", "campaign_id", "resolution")
                }
                assert by_key.setdefault(job["key"], scrubbed) == scrubbed


def _serve_forever(root, url_file):
    server = CampaignServer(root, port=0, local_workers=1).start()
    Path(url_file).write_text(server.url)
    signal.pause()


class TestKillResume:
    """Acceptance: SIGKILL the server mid-campaign; a restart resumes from
    the store's cache without re-running completed jobs."""

    def test_restart_resumes_without_rerunning(self, tmp_path):
        root = tmp_path / "store"
        url_file = tmp_path / "url"
        process = multiprocessing.get_context("fork").Process(
            target=_serve_forever, args=(str(root), str(url_file)), daemon=True
        )
        process.start()
        deadline = time.monotonic() + 30.0
        while not url_file.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        client = ServiceClient(url_file.read_text().strip(), timeout=30.0)

        # 8 slower jobs on a single worker: a wide window to kill inside.
        spec = sweep_spec(
            ["compress", "go"],
            grid={"active_list_size": [16, 24, 32, 48]},
            commit_target=800,
            label="doomed",
        )
        campaign_id = client.submit(spec)["id"]
        while True:
            done = client.metrics()["jobs"]["jobs_done"]
            if done >= 2:
                break
            time.sleep(0.005)
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)

        # The cache entries say exactly which jobs the dead server had
        # finished.
        store = ArtifactStore(root)
        completed = len(store)
        assert 0 < completed < 8, "kill must land mid-campaign"

        restarted = CampaignServer(store, port=0, local_workers=2).start()
        try:
            assert campaign_id in restarted.resumed
            fresh = ServiceClient(restarted.url, timeout=60.0)
            status = fresh.wait(campaign_id, timeout=120.0)
            assert status["state"] == "done"
            resolutions = [job["resolution"] for job in status["jobs"]]
            assert resolutions.count("store") == completed
            metrics = fresh.metrics()
            assert metrics["jobs"]["jobs_from_store"] == completed
            assert metrics["jobs"]["tasks_executed"] == 8 - completed, (
                "stored jobs must not re-run after restart"
            )
            assert len(fresh.fetch_results(campaign_id)) == 8
        finally:
            restarted.stop()


class TestRemoteWorker:
    def test_worker_mode_drains_the_head(self, idle_server):
        client = ServiceClient(idle_server.url, timeout=60.0)
        campaign_id = client.submit(grid_spec([32, 64]))["id"]
        assert client.metrics()["queue_depth"] == 4
        assert client.status(campaign_id)["state"] == "running"

        executed = []
        thread = threading.Thread(
            target=lambda: executed.append(
                run_worker(idle_server.url, "w0", lease_size=2,
                           poll=0.05, max_idle=1.0)
            )
        )
        thread.start()
        status = client.wait(campaign_id, timeout=120.0)
        thread.join(timeout=30.0)
        assert status["state"] == "done"
        assert executed == [4]
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["jobs"]["leases_granted"] >= 2
        assert all(job["resolution"] == "run"
                   for job in status["jobs"])

    def test_leased_slices_bit_identical_to_serial(self, idle_server):
        """Each lease of up to three tasks runs back to back in one gc
        epoch; every stored result equals the same point run serially,
        on every ``SimStats`` field."""
        client = ServiceClient(idle_server.url, timeout=60.0)
        sizes = [32, 64]
        campaign_id = client.submit(grid_spec(sizes))["id"]
        executed = run_worker(idle_server.url, "w0", lease_size=3,
                              poll=0.05, max_idle=0.5)
        assert executed == 4
        assert client.wait(campaign_id, timeout=30.0)["state"] == "done"
        documents = client.fetch_results(campaign_id)
        assert len(documents) == 4
        suite = WorkloadSuite()
        for document in documents:
            job = Job(spec=spec_from_payload(document["spec"]),
                      overrides=tuple(sorted(document["overrides"].items())))
            stored = idle_server.store.get(document["key"])
            expected = stats_to_payload(run_job(job, suite).stats)
            assert stored["stats"] == json.loads(json.dumps(expected)), document["label"]

    def test_lease_completes_each_task_before_the_next_starts(self, idle_server,
                                                              monkeypatch):
        """One lease of three tasks: each task is completed on the head
        before the next one starts, with its own ``elapsed``."""
        client = ServiceClient(idle_server.url, timeout=60.0)
        campaign_id = client.submit(sweep_spec(
            ["compress"], grid={"active_list_size": [16, 32, 64]},
            commit_target=CT))["id"]
        scheduler = idle_server.scheduler
        elapsed, completed_at_start = [], []
        real_run, real_complete = Core.run, scheduler.complete

        def run(core, *args, **kwargs):
            completed_at_start.append(len(elapsed))
            return real_run(core, *args, **kwargs)

        def complete(*args, **kwargs):
            elapsed.append(kwargs["elapsed"])
            return real_complete(*args, **kwargs)

        monkeypatch.setattr(Core, "run", run)
        monkeypatch.setattr(scheduler, "complete", complete)
        started = time.monotonic()
        assert run_worker(idle_server.url, "w0", lease_size=3, poll=0.05,
                          max_idle=0.2) == 3
        wall = time.monotonic() - started
        assert scheduler.metrics()["jobs"]["leases_granted"] == 3
        assert completed_at_start == [0, 1, 2]
        assert len(set(elapsed)) == 3 and sum(elapsed) < wall
        assert client.wait(campaign_id, timeout=30.0)["state"] == "done"

    def test_worker_failure_reports_and_retries_exhaust(self, idle_server):
        client = ServiceClient(idle_server.url, timeout=30.0)
        campaign_id = client.submit({
            "kind": "jobs",
            "jobs": [{"workload": ["no_such_kernel"]}],
        })["id"]
        stop = threading.Event()
        thread = threading.Thread(
            target=run_worker,
            args=(idle_server.url, "w0"),
            kwargs={"poll": 0.05, "max_idle": 2.0, "stop": stop},
        )
        thread.start()
        try:
            status = client.wait(campaign_id, timeout=60.0)
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert status["state"] == "failed"
        job = status["jobs"][0]
        assert job["state"] == "failed"
        assert "no_such_kernel" in job["error"]
        metrics = client.metrics()["jobs"]
        assert metrics["jobs_failed"] == 1
        assert metrics["task_attempts"] == 3  # default max_attempts


class TestHttpApi:
    def test_healthz(self, client):
        from repro import __version__

        assert client.healthz() == {"ok": True, "version": __version__}

    def test_bad_spec_is_400_with_message(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "sweep", "workloads": [["compress"]],
                           "grid": {"no_such_knob": [1]}})
        assert excinfo.value.status == 400
        assert "no_such_knob" in str(excinfo.value)

    def test_unknown_ids_are_404(self, client):
        for call in (
            lambda: client.status("c999999"),
            lambda: client.cancel("c999999"),
            lambda: client.result("c999999.0000"),
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/campaigns/c000001/teapot")
        assert excinfo.value.status == 404

    def test_pending_result_is_409(self, idle_server):
        client = ServiceClient(idle_server.url)
        submitted = client.submit(grid_spec([32]))
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["jobs"][0]["id"])
        assert excinfo.value.status == 409

    def test_failed_result_is_410(self, client):
        submitted = client.submit({
            "kind": "jobs",
            "jobs": [{"workload": ["no_such_kernel"]}],
        })
        client.wait(submitted["id"], timeout=60.0)
        with pytest.raises(ServiceError) as excinfo:
            client.result(submitted["jobs"][0]["id"])
        assert excinfo.value.status == 410
        assert "no_such_kernel" in str(excinfo.value)

    def test_cancel_drains_the_queue(self, idle_server):
        client = ServiceClient(idle_server.url)
        campaign_id = client.submit(grid_spec([32, 64]))["id"]
        assert client.metrics()["queue_depth"] == 4
        status = client.cancel(campaign_id)
        assert status["state"] == "cancelled"
        assert status["job_states"] == {"cancelled": 4}
        assert client.metrics()["queue_depth"] == 0
        # Idempotent; and a cancelled job has no result to serve.
        assert client.cancel(campaign_id)["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.result(f"{campaign_id}.0000")
        assert excinfo.value.status == 409


    @pytest.mark.parametrize("path, body, content_length", [
        ("/lease", b'{"max_tasks": "x"}', None),
        ("/complete", b'{"key": "k", "payload": {}, "elapsed": "x"}', None),
        ("/lease", b'[1, 2]', None),
        ("/fail", b'["key"]', None),
        ("/lease", b"", "abc"),
    ], ids=["lease-max-tasks", "complete-elapsed", "lease-array",
            "fail-array", "content-length"])
    def test_malformed_worker_requests_are_400(self, idle_server, path, body,
                                               content_length):
        status, document = raw_post(idle_server, path, body, content_length)
        assert status == 400
        assert document["error"]
        # The server kept serving.
        assert ServiceClient(idle_server.url).healthz()["ok"] is True

    def test_complete_writes_nothing_outside_the_store(self, idle_server):
        store = idle_server.store
        before = len(store)
        planted = store.path_for("../../planted").resolve()
        status, document = raw_post(idle_server, "/complete", json.dumps(
            {"key": "../../planted", "payload": "not a result"}).encode())
        assert status == 400
        assert "payload" in document["error"]
        # A real result under a key no task has is not written either.
        spec = parse_campaign(grid_spec([32]))
        result = execute_payload(job_to_payload(spec.jobs[0]), spec.suite_args)
        status, document = raw_post(idle_server, "/complete", json.dumps(
            {"key": "../../planted", "payload": result}).encode())
        assert (status, document) == (200, {"accepted": False})
        assert not planted.exists()
        assert len(store) == before


class TestOwnerThread:
    """Every scheduler call is a request to one owner thread."""

    SPEC = sweep_spec(["compress"], grid={"active_list_size": [32]},
                      commit_target=CT)

    @pytest.fixture
    def scheduler(self, tmp_path):
        scheduler = Scheduler(ArtifactStore(tmp_path), lease_ttl=0.05)
        yield scheduler
        scheduler.close()

    def test_failed_bind_starts_no_owner_thread(self, tmp_path):
        """A busy port fails the server's constructor before the
        scheduler starts its owner thread, so no thread is left behind."""
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            before = set(threading.enumerate())
            with pytest.raises(OSError):
                CampaignServer(tmp_path / "store", port=busy.getsockname()[1],
                               local_workers=0)
            leaked = [thread for thread in threading.enumerate()
                      if thread not in before and thread.name == "repro-scheduler"]
        assert leaked == []

    def test_leases_expire_on_the_owners_clock(self, scheduler):
        scheduler.submit(self.SPEC)
        assert len(scheduler.lease()) == 1
        time.sleep(0.2)  # no further lease call
        metrics = scheduler.metrics()
        assert metrics["jobs"]["leases_expired"] == 1
        assert metrics["queue_depth"] == 1

    def test_scheduler_attributes_hold_no_state(self, scheduler):
        campaign_id = scheduler.submit(self.SPEC)["id"]
        scheduler.lease()
        for name, value in vars(scheduler).items():
            assert not isinstance(
                value, (dict, list, set, deque, Campaign, JobRecord, Task)
            ), name
            assert campaign_id not in repr(value), name

    def test_a_raising_request_leaves_the_owner_serving(self, scheduler):
        with pytest.raises(TypeError):
            scheduler.complete(["not", "hashable"], {})
        assert scheduler.metrics()["queue_depth"] == 0

    def test_close_answers_parked_calls_and_refuses_later_ones(self, scheduler):
        campaign_id = scheduler.submit(self.SPEC)["id"]
        scheduler.lease()
        replies = []
        threads = [
            threading.Thread(target=lambda: replies.append(
                scheduler.wait_for_work(timeout=30.0))),
            threading.Thread(target=lambda: replies.append(
                scheduler.events_since(campaign_id, 0, timeout=30.0))),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.02)
        scheduler.close()
        for thread in threads:
            thread.join(timeout=1.0)
            assert not thread.is_alive()
        assert sorted(replies, key=str) == [([], 0, True), False]
        with pytest.raises(SchedulerClosed):
            scheduler.metrics()

    def test_event_stream_ends_when_the_server_stops(self, tmp_path):
        server = CampaignServer(tmp_path / "store", port=0,
                                local_workers=0).start()
        client = ServiceClient(server.url, timeout=30.0)
        campaign_id = client.submit(grid_spec([32]))["id"]
        ended = threading.Event()

        def follow():
            list(client.events(campaign_id))
            ended.set()

        threading.Thread(target=follow, daemon=True).start()
        time.sleep(0.2)  # the stream is open and parked on the owner
        server.stop()
        assert ended.wait(timeout=1.0), "event stream outlived the server"


class TestEventStream:
    def test_stream_ends_with_terminal_campaign_event(self, client):
        campaign_id = client.submit(grid_spec([32]))["id"]
        events = list(client.events(campaign_id))  # live-follows until done
        job_events = [e for e in events if e["type"] == "job"]
        assert len(job_events) == 2
        assert all(e["state"] == "done" for e in job_events)
        assert {e["job_id"] for e in job_events} == {
            f"{campaign_id}.0000", f"{campaign_id}.0001"
        }
        assert events[-1]["type"] == "campaign"
        assert events[-1]["state"] == "done"
        assert events[-1]["wall_seconds"] > 0

    def test_replay_after_completion_is_complete(self, client):
        campaign_id = client.submit(grid_spec([32]))["id"]
        client.wait(campaign_id, timeout=60.0)
        replay = list(client.events(campaign_id))
        assert [e["type"] for e in replay] == ["job", "job", "campaign"]
        # Progress counters ride every job event (the CLI renders these).
        assert replay[1]["done"] == 2 and replay[1]["total"] == 2

    def test_events_for_unknown_campaign_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            list(client.events("c999999"))
        assert excinfo.value.status == 404
