"""Executor ``batch_size``.

The orchestration contract: ``batch_size`` changes *where* points run
(how many share one worker process and gc epoch), never *what* comes
out — outcomes are per job, bit-identical to the unbatched engine, with
cache entries still written one per point so dedup and resume are
unchanged.
"""

import os

import pytest

from repro.exec.cache import ResultCache
from repro.exec.jobs import Chaos, Job, stats_to_payload
from repro.exec.pool import Executor
from repro.sim.runner import RunSpec, run_spec
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
        assert outcomes[0].attempts == 2  # failed once, retried at once
        assert [outcome.attempts for outcome in outcomes[1:]] == [1, 1]


class TestParallelBatched:
    def test_outcomes_identical_to_unbatched(self, jobs, suite, reference):
        outcomes = Executor(jobs=2, batch_size=2).run(jobs, suite=suite)
        assert all(outcome.ok for outcome in outcomes)
        assert [comparable(o) for o in outcomes] == reference

    def test_per_point_cache_artifacts(self, jobs, suite, reference, tmp_path):
        cache_dir = os.fspath(tmp_path / "cache")
        first = Executor(jobs=2, batch_size=4, cache=cache_dir)
        outcomes = first.run(jobs, suite=suite)
        assert all(outcome.ok and not outcome.cached for outcome in outcomes)
        assert len(ResultCache(cache_dir)) == len(jobs)
        # A fresh executor over the same cache resolves every point
        # individually — one artifact per point, not per batch.
        for width in (2, 1):
            cached = Executor(jobs=width, batch_size=4, cache=cache_dir).run(jobs, suite=suite)
            assert all(outcome.cached for outcome in cached)
            assert [comparable(o) for o in cached] == reference

    def test_crash_retries_only_the_point_in_flight(self, jobs, suite):
        chaotic = [Job(spec=SPECS[0], chaos=Chaos(exit_first_attempts=1))] + jobs[:3]
        outcomes = Executor(jobs=2, batch_size=4, retries=1).run(chaotic, suite=suite)
        assert all(outcome.ok for outcome in outcomes)
        assert [outcome.attempts for outcome in outcomes] == [2, 1, 1, 1]

    def test_mixed_machines_split_across_batches(self, suite):
        """A worker serves points in dispatch order, whatever their machines."""
        mixed = [
            Job(spec=RunSpec(workload=("compress",), machine=machine,
                             commit_target=200))
            for machine in ("big.2.16", "small.2.8", "big.2.16", "small.2.8")
        ]
        outcomes = Executor(jobs=2, batch_size=2).run(mixed, suite=suite)
        assert all(outcome.ok for outcome in outcomes)
        for job, outcome in zip(mixed, outcomes):
            assert outcome.job is job
            assert comparable(outcome) == stats_to_payload(
                run_spec(job.spec, suite).stats
            )

