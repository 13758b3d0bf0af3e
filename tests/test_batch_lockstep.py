"""Lockstep batch simulation: bit-identity, grouping, and engine wiring.

The contract under test is the one :mod:`repro.sim.batch` documents:
every point simulated in a batch is *bit-identical* to the same point
run serially — every ``SimStats`` field, utilization histograms, cycle
stamps — regardless of batch composition or size.
"""

import gc as gc_module
import importlib.util
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.exec.jobs import Job, stats_to_payload
from repro.pipeline.uopcache import DecodedUopCache
from repro.sim.batch import (
    BatchRunner,
    group_batches,
    run_jobs_batched,
    validate_batch,
)
from repro.sim.runner import RunSpec, run_spec
from repro.workloads.suite import WorkloadSuite

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "golden" / "core_stats_seed.json"
GOLDEN = json.loads(FIXTURE.read_text())

_spec = importlib.util.spec_from_file_location(
    "gen_golden_stats", REPO / "tools" / "gen_golden_stats.py"
)
gen_golden_stats = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden_stats)

#: The golden fixture's 8 configurations (2 kernels x 4 feature sets).
GOLDEN_SPECS = [
    RunSpec(
        workload=(kernel,),
        features=features,
        commit_target=gen_golden_stats.COMMIT_TARGET,
    )
    for kernel in gen_golden_stats.KERNELS
    for features in gen_golden_stats.FEATURES
]


def snapshot_from_driver(driver) -> dict:
    """The golden fixture's field set, off a finished batch driver."""
    stats = driver.core.stats
    util = driver.core.state.util
    out = {}
    for field in (
        "cycles", "committed", "fetched", "renamed", "renamed_recycled",
        "renamed_reused", "renamed_reused_loads", "squashed", "ipc",
        "pct_recycled", "pct_reused", "forks", "forks_used_tme", "respawns",
        "respawn_streams", "merges", "back_merges", "cond_branches_resolved",
        "mispredicts", "mispredicts_covered", "streams_ended_exhausted",
        "streams_ended_squashed", "streams_ended_branch_mismatch",
    ):
        out[field] = getattr(stats, field)
    out["fetch_util_average"] = util.fetch.average
    out["fetch_util_utilization"] = util.fetch.utilization
    out["rename_fill_from_recycling"] = util.rename_fill_from_recycling
    return out


@pytest.fixture(scope="module")
def suite():
    return WorkloadSuite()


@pytest.fixture(scope="module")
def serial_results(suite):
    return [run_spec(spec, suite) for spec in GOLDEN_SPECS]


class TestGoldenParity:
    def test_batch_of_8_matches_golden_fixture(self, suite):
        """The whole fixture matrix, lockstep in one batch, hits the seed
        numbers bit-for-bit — including utilization averages fed by the
        idle fast-forward's bulk recording."""
        runner = BatchRunner([Job(spec=s) for s in GOLDEN_SPECS], suite=suite)
        points = runner.run()
        assert all(p.error is None for p in points)
        for spec, driver in zip(GOLDEN_SPECS, runner.drivers):
            key = f"{spec.workload[0]}|{spec.features}"
            assert snapshot_from_driver(driver) == GOLDEN["runs"][key], key

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batched_stats_identical_to_serial(self, suite, serial_results, batch_size):
        jobs = [Job(spec=s) for s in GOLDEN_SPECS]
        points = run_jobs_batched(jobs, suite, batch_size=batch_size)
        assert len(points) == len(jobs)
        for serial, point in zip(serial_results, points):
            assert point.error is None, point.error
            assert stats_to_payload(point.result.stats) == stats_to_payload(
                serial.stats
            )
            assert point.result.per_program_ipc == serial.per_program_ipc

    def test_every_core_owns_its_decode_cache(self, suite):
        specs = GOLDEN_SPECS[:3]  # one kernel, so one shared Program
        runner = BatchRunner([Job(spec=s) for s in specs], suite=suite)
        runner.run()
        caches = [driver.core.state.uop_cache for driver in runner.drivers]
        assert all(isinstance(cache, DecodedUopCache) for cache in caches)
        assert len({id(cache) for cache in caches}) == len(caches)
        (program,) = suite.mix(specs[0].workload)
        views = [cache.program_view(program) for cache in caches]
        assert len({id(view) for view in views}) == len(views)

    def test_composition_independence(self, suite, serial_results):
        """A point's numbers do not depend on who else is in its batch."""
        target = GOLDEN_SPECS[0]
        expected = stats_to_payload(serial_results[0].stats)
        for companions in ([1], [2, 3], [4, 5, 6, 7]):
            batch = [Job(spec=target)] + [
                Job(spec=GOLDEN_SPECS[i]) for i in companions
            ]
            points = BatchRunner(batch, suite=suite).run()
            assert stats_to_payload(points[0].result.stats) == expected, companions

    def test_max_cycles_cutoff_identical_to_serial(self, suite):
        """Cutting a run short mid-flight lands on the same cycle/stats
        whether the last stretch was stepped or fast-forwarded."""
        spec = RunSpec(workload=("compress",), features="TME",
                       commit_target=800, max_cycles=400)
        serial = run_spec(spec, suite)
        (point,) = BatchRunner([Job(spec=spec)], suite=suite, quantum=64).run()
        assert point.error is None
        assert point.result.stats.cycles == serial.stats.cycles == 400
        assert stats_to_payload(point.result.stats) == stats_to_payload(serial.stats)


class TestGrouping:
    def test_mixed_machines_rejected_eagerly(self):
        jobs = [
            Job(spec=RunSpec(workload=("compress",), machine="big.2.16")),
            Job(spec=RunSpec(workload=("compress",), machine="small.2.8")),
        ]
        with pytest.raises(ValueError, match="incompatible machine"):
            validate_batch(jobs)
        with pytest.raises(ValueError, match="incompatible machine"):
            BatchRunner(jobs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BatchRunner([])

    def test_group_batches_never_mixes_machines(self):
        jobs = [
            Job(spec=RunSpec(workload=("compress",), machine=m))
            for m in ("big.2.16", "small.2.8", "big.2.16", "small.2.8")
        ]
        groups = group_batches(jobs, batch_size=4)
        assert sorted(sum(groups, [])) == [0, 1, 2, 3]  # a partition
        for indices in groups:
            machines = {jobs[i].spec.machine for i in indices}
            assert len(machines) == 1

    def test_group_batches_respects_size_and_order(self):
        jobs = [Job(spec=RunSpec(workload=("compress",))) for _ in range(5)]
        groups = group_batches(jobs, batch_size=2)
        assert groups == [[0, 1], [2, 3], [4]]

    def test_batch_size_one_is_all_singletons(self):
        jobs = [Job(spec=RunSpec(workload=("compress",))) for _ in range(3)]
        assert group_batches(jobs, batch_size=1) == [[0], [1], [2]]

    def test_chaos_jobs_run_as_singletons(self):
        from repro.exec.jobs import Chaos

        spec = RunSpec(workload=("compress",))
        jobs = [
            Job(spec=spec),
            Job(spec=spec, chaos=Chaos(fail_first_attempts=1)),
            Job(spec=spec),
        ]
        groups = group_batches(jobs, batch_size=3)
        assert [1] in groups
        assert sorted(sum(groups, [])) == [0, 1, 2]

    def test_run_jobs_batched_handles_mixed_machines(self, suite):
        jobs = [
            Job(spec=RunSpec(workload=("compress",), machine=m,
                             commit_target=200))
            for m in ("big.2.16", "small.2.8", "big.2.16")
        ]
        points = run_jobs_batched(jobs, suite, batch_size=3)
        assert len(points) == 3
        assert all(p.error is None for p in points)
        # Input order preserved across the machine split.
        for job, point in zip(jobs, points):
            assert point.job is job


class TestFailureIsolation:
    def test_failing_point_does_not_sink_siblings(self, suite):
        jobs = [
            Job(spec=RunSpec(workload=("compress",), commit_target=400)),
            Job(spec=RunSpec(workload=("compress",), commit_target=400,
                             max_cycles=0)),
            Job(spec=RunSpec(workload=("li",), commit_target=400)),
        ]
        points = BatchRunner(jobs, suite=suite).run()
        assert points[0].error is None and points[2].error is None
        # max_cycles=0 finishes instantly with zero commits — a valid
        # (empty) result, not an error; the isolation claim is that the
        # degenerate sibling changed nothing for the healthy ones.
        healthy = run_spec(jobs[0].spec, suite)
        assert stats_to_payload(points[0].result.stats) == stats_to_payload(
            healthy.stats
        )


class TestGcDiscipline:
    def test_collect_runs_even_when_gc_already_disabled(self, suite):
        """Satellite: ``Core.run`` must collect at end-of-run even when
        the caller (e.g. a batch driver) had already disabled the
        collector — otherwise each point's cyclic garbage rides along
        into every later point of the batch."""
        from repro.pipeline.core import Core

        spec = RunSpec(workload=("compress",), commit_target=200)
        core = Core(spec.build_config())
        core.load(suite.mix(spec.workload), commit_target=spec.commit_target)
        was_enabled = gc_module.isenabled()
        gc_module.disable()
        try:
            with mock.patch("repro.pipeline.core.gc.collect") as collect:
                core.run(max_cycles=spec.max_cycles)
            assert collect.called
            assert not gc_module.isenabled()  # run() must not re-enable
        finally:
            if was_enabled:
                gc_module.enable()

    def test_batch_runner_restores_collector_state(self, suite):
        jobs = [Job(spec=RunSpec(workload=("compress",), commit_target=200))]
        assert gc_module.isenabled()
        BatchRunner(jobs, suite=suite).run()
        assert gc_module.isenabled()
