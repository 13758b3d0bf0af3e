"""Executor and service-worker integration of lockstep batching.

The orchestration contract: ``batch_size`` changes *how* attempts are
scheduled (one process per compatible slice instead of one per job),
never *what* comes out — outcomes are per job, bit-identical to the
unbatched engine, with cache and journal artifacts still written one
per point so dedup and resume are unchanged.
"""

import os

import pytest

from repro.exec.jobs import (
    Chaos,
    Job,
    execute_payload_batch,
    job_to_payload,
    stats_to_payload,
)
from repro.exec.pool import Executor
from repro.service.worker import execute_task_batch
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite

SPECS = [
    RunSpec(workload=(kernel,), features=features, commit_target=400)
    for kernel in ("compress", "li")
    for features in ("TME", "REC/RS/RU")
]


def comparable(outcome) -> dict:
    return stats_to_payload(outcome.result.stats)


@pytest.fixture(scope="module")
def suite():
    return WorkloadSuite()


@pytest.fixture(scope="module")
def jobs():
    return [Job(spec=spec) for spec in SPECS]


@pytest.fixture(scope="module")
def reference(jobs, suite):
    outcomes = Executor(jobs=1).run(jobs, suite=suite)
    return [comparable(outcome) for outcome in outcomes]


class TestSerialBatched:
    @pytest.mark.parametrize("batch_size", [2, 4])
    def test_outcomes_identical_to_unbatched(self, jobs, suite, reference, batch_size):
        outcomes = Executor(jobs=1, batch_size=batch_size).run(jobs, suite=suite)
        assert all(outcome.ok for outcome in outcomes)
        assert [comparable(o) for o in outcomes] == reference

    def test_chaos_singleton_retries(self, jobs, suite):
        chaotic = [Job(spec=SPECS[0], chaos=Chaos(fail_first_attempts=1))] + jobs[:2]
        outcomes = Executor(jobs=1, batch_size=4, retries=2).run(chaotic, suite=suite)
        assert all(outcome.ok for outcome in outcomes)
        assert outcomes[0].attempts == 2  # failed once, then succeeded solo


class TestParallelBatched:
    def test_outcomes_identical_to_unbatched(self, jobs, suite, reference):
        outcomes = Executor(jobs=2, batch_size=2).run(jobs, suite=suite)
        assert all(outcome.ok for outcome in outcomes)
        assert [comparable(o) for o in outcomes] == reference

    def test_per_point_cache_and_journal_artifacts(self, jobs, suite, reference, tmp_path):
        cache_dir = os.fspath(tmp_path / "cache")
        journal = os.fspath(tmp_path / "journal.jsonl")
        first = Executor(jobs=2, batch_size=4, cache=cache_dir, journal=journal)
        outcomes = first.run(jobs, suite=suite)
        assert all(outcome.ok and not outcome.cached for outcome in outcomes)
        # A fresh executor over the same cache resolves every point
        # individually — one artifact per point, not per batch.
        second = Executor(jobs=2, batch_size=4, cache=cache_dir)
        cached = second.run(jobs, suite=suite)
        assert all(outcome.cached for outcome in cached)
        assert [comparable(o) for o in cached] == reference
        # And the journal alone resumes the batch point-by-point.
        third = Executor(jobs=1, batch_size=4, journal=journal)
        resumed = third.run(jobs, suite=suite)
        assert all(outcome.cached for outcome in resumed)

    def test_crashed_batch_degrades_to_singleton_retries(self, jobs, suite):
        chaotic = [Job(spec=SPECS[0], chaos=Chaos(exit_first_attempts=1))] + jobs[:3]
        outcomes = Executor(jobs=2, batch_size=4, retries=1).run(chaotic, suite=suite)
        assert all(outcome.ok for outcome in outcomes)

    def test_mixed_machines_split_across_batches(self, suite):
        mixed = [
            Job(spec=RunSpec(workload=("compress",), machine=machine,
                             commit_target=200))
            for machine in ("big.2.16", "small.2.8", "big.2.16", "small.2.8")
        ]
        outcomes = Executor(jobs=2, batch_size=4).run(mixed, suite=suite)
        assert all(outcome.ok for outcome in outcomes)
        for job, outcome in zip(mixed, outcomes):
            assert outcome.job is job


class TestWorkerBatchExecution:
    def _task(self, spec, key, suite_args=(12, False)):
        return {
            "key": key,
            "payload": job_to_payload(Job(spec=spec)),
            "suite": list(suite_args),
        }

    def test_execute_payload_batch_shapes(self, suite):
        payloads = [job_to_payload(Job(spec=spec)) for spec in SPECS[:2]]
        results = execute_payload_batch(payloads, (suite.iters, suite.extended))
        assert [status for status, _ in results] == ["ok", "ok"]
        for (_, body), spec in zip(results, SPECS[:2]):
            assert body["spec"]["features"] == spec.features

    def test_execute_task_batch_groups_and_reports_per_key(self):
        tasks = [
            self._task(RunSpec(workload=("compress",), commit_target=200), "t1"),
            self._task(RunSpec(workload=("li",), commit_target=200), "t2"),
            self._task(
                RunSpec(workload=("compress",), machine="small.2.8",
                        commit_target=200),
                "t3",
            ),
        ]
        results = execute_task_batch(tasks)
        assert set(results) == {"t1", "t2", "t3"}
        for key in ("t1", "t2", "t3"):
            status, body = results[key]
            assert status == "ok", body
            assert "stats" in body
