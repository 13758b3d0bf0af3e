"""Batches: bit-identity, composition, failure isolation and the gc epoch.

The serial executor (``Executor(jobs=1, batch_size=N)``) runs each batch
of up to N consecutive points one after another through ``Core.run``
inside one garbage-collector epoch.  The contract under test: every
point simulated in a batch is *bit-identical* to the same point run
alone — every ``SimStats`` field — regardless of batch composition or
size.
"""

import gc as gc_module
import importlib.util
import json
from pathlib import Path

import pytest

import repro.exec.pool as pool_module
from repro.exec.jobs import Job, stats_to_payload
from repro.exec.pool import Executor
from repro.pipeline.core import Core
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

#: Golden-fixture fields read off ``SimStats``; the utilization fields
#: are pinned on the same ``Core.run`` by ``tests/test_golden_stats.py``.
UTILIZATION_FIELDS = (
    "fetch_util_average", "fetch_util_utilization", "rename_fill_from_recycling",
)


def run_batch(jobs, suite):
    """Every job's outcome from one serial batch holding all of them."""
    return Executor(jobs=1, batch_size=len(jobs), retries=0).run(jobs, suite=suite)


def results_of(outcomes):
    """The ``RunResult`` of every outcome, failing on the first failure."""
    for outcome in outcomes:
        assert outcome.ok, outcome.failure
    return [outcome.result for outcome in outcomes]


@pytest.fixture(scope="module")
def suite():
    return WorkloadSuite()


@pytest.fixture(scope="module")
def serial_results(suite):
    return [run_spec(spec, suite) for spec in GOLDEN_SPECS]


class TestGoldenParity:
    def test_batch_of_8_matches_golden_fixture(self, suite):
        """The whole fixture matrix, back to back in one batch, hits the
        seed numbers bit-for-bit."""
        results = results_of(run_batch([Job(spec=s) for s in GOLDEN_SPECS], suite))
        for spec, result in zip(GOLDEN_SPECS, results):
            key = f"{spec.workload[0]}|{spec.features}"
            expected = {
                name: value for name, value in GOLDEN["runs"][key].items()
                if name not in UTILIZATION_FIELDS
            }
            got = {name: getattr(result.stats, name) for name in expected}
            assert got == expected, key

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batched_stats_identical_to_serial(self, suite, serial_results, batch_size):
        jobs = [Job(spec=s) for s in GOLDEN_SPECS]
        outcomes = Executor(jobs=1, batch_size=batch_size).run(jobs, suite=suite)
        assert len(outcomes) == len(jobs)
        for serial, outcome in zip(serial_results, outcomes):
            assert outcome.ok, outcome.failure
            assert stats_to_payload(outcome.result.stats) == stats_to_payload(
                serial.stats
            )
            assert outcome.result.per_program_ipc == serial.per_program_ipc

    def test_every_core_owns_its_decode_cache(self, suite, serial_results):
        """Three points on one kernel share its assembled ``Program``; a
        decode cache shared between them would let the later points hit
        where a serial run misses."""
        results = results_of(run_batch([Job(spec=s) for s in GOLDEN_SPECS[:3]], suite))
        for serial, result in zip(serial_results, results):
            assert result.stats.uop_cache_misses > 0
            for name in ("uop_cache_hits", "uop_cache_misses", "decode_counts"):
                assert getattr(result.stats, name) == getattr(serial.stats, name), name

    def test_composition_independence(self, suite, serial_results):
        """A point's numbers do not depend on who else is in its batch."""
        target = Job(spec=GOLDEN_SPECS[0])
        expected = stats_to_payload(serial_results[0].stats)
        for companions in ([1], [2, 3], [4, 5, 6, 7]):
            others = [Job(spec=GOLDEN_SPECS[i]) for i in companions]
            first = results_of(run_batch([target] + others, suite))[0]
            last = results_of(run_batch(others + [target], suite))[-1]
            assert stats_to_payload(first.stats) == expected, companions
            assert stats_to_payload(last.stats) == expected, companions

    def test_max_cycles_cutoff_identical_to_serial(self, suite):
        """Cutting a run short mid-flight lands on the same cycle and
        stats in a batch as alone."""
        spec = RunSpec(workload=("compress",), features="TME",
                       commit_target=800, max_cycles=400)
        serial = run_spec(spec, suite)
        (result,) = results_of(run_batch([Job(spec=spec)], suite))
        assert result.stats.cycles == serial.stats.cycles == 400
        assert stats_to_payload(result.stats) == stats_to_payload(serial.stats)


class TestGrouping:
    def test_mixed_machines_share_one_slice(self, suite):
        jobs = [
            Job(spec=RunSpec(workload=("compress",), machine=m,
                             commit_target=200))
            for m in ("big.2.16", "small.2.8", "big.2.16", "small.1.8")
        ]
        results = results_of(run_batch(jobs, suite))
        for job, result in zip(jobs, results):
            assert result.spec == job.spec
            assert stats_to_payload(result.stats) == stats_to_payload(
                run_spec(job.spec, suite).stats
            )


class TestFailureIsolation:
    def test_failing_point_does_not_sink_siblings(self, suite):
        jobs = [
            Job(spec=RunSpec(workload=("compress",), commit_target=400)),
            Job(spec=RunSpec(workload=("no_such_kernel",), commit_target=400)),
            Job(spec=RunSpec(workload=("compress",), commit_target=400,
                             max_cycles=0)),
            Job(spec=RunSpec(workload=("li",), commit_target=400)),
        ]
        outcomes = run_batch(jobs, suite)
        assert [outcome.ok for outcome in outcomes] == [True, False, True, True]
        assert outcomes[1].failure.message.startswith("KeyError:")
        assert "no_such_kernel" in outcomes[1].failure.message
        # max_cycles=0 finishes instantly with zero commits — a valid
        # (empty) result, not an error; the isolation claim is that the
        # failing and degenerate siblings changed nothing for the rest.
        for index in (0, 3):
            healthy = run_spec(jobs[index].spec, suite)
            assert stats_to_payload(outcomes[index].result.stats) == stats_to_payload(
                healthy.stats
            )


@pytest.fixture
def gc_calls(monkeypatch):
    """Record every ``gc.disable``/``enable``/``collect`` call (they
    still take effect) and every job a batch runs, in order."""
    calls = []
    for name in ("disable", "enable", "collect"):
        real = getattr(gc_module, name)

        def recorded(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(gc_module, name, recorded)
    real_run_job = pool_module.run_job

    def recorded_job(job, suite):
        result = real_run_job(job, suite)
        calls.append("job")
        return result

    monkeypatch.setattr(pool_module, "run_job", recorded_job)
    return calls


class TestGcDiscipline:
    SPEC = RunSpec(workload=("compress",), commit_target=200)

    def _loaded_core(self, suite):
        core = Core(self.SPEC.build_config())
        core.load(suite.mix(self.SPEC.workload), commit_target=self.SPEC.commit_target)
        return core

    def test_run_with_collector_disabled_leaves_collection_to_caller(self, suite, gc_calls):
        """Whoever disables the collector collects: a run entered with it
        already disabled neither collects nor re-enables it."""
        gc_module.disable()
        try:
            del gc_calls[:]
            self._loaded_core(suite).run(max_cycles=self.SPEC.max_cycles)
            assert gc_calls == []
            assert not gc_module.isenabled()
        finally:
            gc_module.enable()

    def test_run_with_collector_enabled_owns_its_epoch(self, suite, gc_calls):
        assert gc_module.isenabled()
        self._loaded_core(suite).run(max_cycles=self.SPEC.max_cycles)
        assert gc_calls == ["disable", "enable", "collect"]
        assert gc_module.isenabled()

    def test_slice_disables_once_and_collects_once_after_last_job(self, suite, gc_calls):
        assert gc_module.isenabled()
        outcomes = run_batch([Job(spec=self.SPEC)] * 3, suite)
        assert [outcome.ok for outcome in outcomes] == [True] * 3
        assert gc_calls == ["disable", "job", "job", "job", "enable", "collect"]
        assert gc_module.isenabled()

    def test_batch_runner_restores_collector_state(self, suite, gc_calls):
        """A batch restores the collector's prior state; entered with it
        disabled, the batch leaves both the collector and collection to
        its caller."""
        gc_module.disable()
        try:
            del gc_calls[:]
            run_batch([Job(spec=self.SPEC)] * 2, suite)
            assert gc_calls == ["job", "job"]
            assert not gc_module.isenabled()
        finally:
            gc_module.enable()
        run_batch([Job(spec=self.SPEC)], suite)
        assert gc_module.isenabled()
