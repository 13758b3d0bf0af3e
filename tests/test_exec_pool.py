"""Orchestration engine: fault tolerance, retries, parallel == serial."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.exec import Chaos, ExecutionError, Executor, Job, ProgressReporter, ResultCache
from repro.exec.jobs import stats_to_payload
from repro.pipeline.core import Core
from repro.sim.runner import RunSpec, run_matrix, run_spec
from repro.sim.sweep import Sweep
from repro.workloads import WorkloadSuite

SUITE = WorkloadSuite()


def tiny_spec(**kwargs):
    defaults = dict(workload=("compress",), commit_target=250)
    defaults.update(kwargs)
    return RunSpec(**defaults)


SPECS = [
    tiny_spec(),
    tiny_spec(workload=("vortex",), features="TME"),
    tiny_spec(workload=("gcc", "go")),
]


class TestParallelEqualsSerial:
    def test_run_matrix_identical(self):
        serial = run_matrix(SPECS, SUITE)
        parallel = run_matrix(SPECS, SUITE, executor=Executor(jobs=2))
        assert [stats_to_payload(r.stats) for r in serial] == [
            stats_to_payload(r.stats) for r in parallel
        ]
        assert [r.per_program_ipc for r in serial] == [r.per_program_ipc for r in parallel]

    def test_order_preserved(self):
        results = Executor(jobs=3).map(SPECS, suite=SUITE)
        assert [r.spec.workload for r in results] == [s.workload for s in SPECS]

    def test_sweep_identical(self):
        sweep = Sweep(
            workloads=[("compress",), ("vortex",)],
            grid={"active_list_size": [32, 64]},
            commit_target=250,
        )
        serial = sweep.run(SUITE)
        parallel = sweep.run(SUITE, executor=Executor(jobs=2))
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.params == b.params and a.workload == b.workload
            assert a.ipc == b.ipc and a.cycles == b.cycles

    def test_experiment_identical(self):
        from repro.sim.experiments import figure3

        kwargs = dict(kernels=["compress", "go"], variants=["SMT", "TME"],
                      commit_target=250, suite=SUITE)
        assert figure3(**kwargs) == figure3(executor=Executor(jobs=2), **kwargs)


class TestFaultTolerance:
    def test_failing_job_is_retried_then_succeeds(self):
        job = Job(spec=tiny_spec(), chaos=Chaos(fail_first_attempts=1))
        outcome = Executor(jobs=2, retries=2).run([job], suite=SUITE)[0]
        assert outcome.ok and outcome.attempts == 2

    def test_exhausted_retries_yield_structured_failure(self):
        job = Job(spec=tiny_spec(), chaos=Chaos(fail_first_attempts=99))
        outcome = Executor(jobs=2, retries=1).run([job], suite=SUITE)[0]
        assert not outcome.ok
        assert outcome.failure.kind == "error"
        assert outcome.failure.attempts == 2
        assert "injected failure" in outcome.failure.message

    def test_failure_does_not_abort_batch(self):
        jobs = [
            Job(spec=SPECS[0]),
            Job(spec=SPECS[1], chaos=Chaos(fail_first_attempts=99)),
            Job(spec=SPECS[2]),
        ]
        outcomes = Executor(jobs=2, retries=0).run(jobs, suite=SUITE)
        assert [o.ok for o in outcomes] == [True, False, True]

    def test_worker_crash_surfaces_as_crash(self):
        job = Job(spec=tiny_spec(), chaos=Chaos(exit_first_attempts=99))
        outcome = Executor(jobs=2, retries=1).run([job], suite=SUITE)[0]
        assert not outcome.ok and outcome.failure.kind == "crash"

    def test_crash_recovers_on_retry(self):
        job = Job(spec=tiny_spec(), chaos=Chaos(exit_first_attempts=1))
        outcome = Executor(jobs=2, retries=1).run([job], suite=SUITE)[0]
        assert outcome.ok and outcome.attempts == 2

    def test_timeout_kills_and_reports(self):
        job = Job(
            spec=tiny_spec(),
            chaos=Chaos(sleep_first_attempts=99, sleep_seconds=30.0),
        )
        outcome = Executor(jobs=2, retries=0, timeout=0.5).run([job], suite=SUITE)[0]
        assert not outcome.ok and outcome.failure.kind == "timeout"
        assert outcome.elapsed < 10.0

    def test_timeout_recovers_on_retry(self):
        job = Job(
            spec=tiny_spec(),
            chaos=Chaos(sleep_first_attempts=1, sleep_seconds=30.0),
        )
        outcome = Executor(jobs=2, retries=1, timeout=0.5).run([job], suite=SUITE)[0]
        assert outcome.ok and outcome.attempts == 2

    def test_map_raises_execution_error(self):
        jobs = [Job(spec=tiny_spec(), chaos=Chaos(fail_first_attempts=99))]
        with pytest.raises(ExecutionError) as excinfo:
            Executor(jobs=2, retries=0).map(jobs, suite=SUITE)
        assert len(excinfo.value.failures) == 1

    def test_serial_path_retries_too(self):
        job = Job(spec=tiny_spec(), chaos=Chaos(fail_first_attempts=1))
        outcome = Executor(jobs=1, retries=1).run([job], suite=SUITE)[0]
        assert outcome.ok and outcome.attempts == 2

    def test_serial_path_structured_failure(self):
        job = Job(spec=tiny_spec(), chaos=Chaos(fail_first_attempts=99))
        outcome = Executor(jobs=1, retries=0).run([job], suite=SUITE)[0]
        assert not outcome.ok and outcome.failure.kind == "error"


class TestProgress:
    def test_events_cover_batch(self, tmp_path):
        events = []
        reporter = ProgressReporter(callback=events.append)
        Executor(jobs=2, cache=tmp_path, progress=reporter).run(SPECS, suite=SUITE)
        assert len(events) == len(SPECS)
        assert events[-1].done == events[-1].total == len(SPECS)
        assert events[-1].cache_hits == 0

    def test_cache_hits_counted(self, tmp_path):
        Executor(cache=tmp_path).run(SPECS, suite=SUITE)
        reporter = ProgressReporter()
        Executor(jobs=2, cache=tmp_path, progress=reporter).run(SPECS, suite=SUITE)
        event = reporter.event()
        assert event.cache_hits == len(SPECS)
        assert event.done == len(SPECS)

    def test_reporter_spans_batches(self):
        reporter = ProgressReporter()
        ex = Executor(progress=reporter)
        ex.run([tiny_spec()], suite=SUITE)
        ex.run([tiny_spec(workload=("vortex",))], suite=SUITE)
        assert reporter.event().total == 2
        assert reporter.event().done == 2

    def test_format_line(self):
        from repro.exec import format_line
        from repro.exec.progress import ProgressEvent

        line = format_line(
            ProgressEvent(done=3, total=10, cache_hits=2, failures=1,
                          elapsed=65.0, eta=30.0)
        )
        assert "jobs 3/10" in line and "2 cached" in line
        assert "1 failed" in line and "01:05" in line and "00:30" in line


class TestPerPointDispatch:
    """An idle worker takes the next point, and each result lands as soon
    as its point finishes."""

    LONG = tiny_spec(commit_target=4000)
    SHORT = [tiny_spec(workload=(kernel,), commit_target=100) for kernel in ("vortex", "li", "go")]

    def test_short_points_land_before_a_long_one_with_their_own_elapsed(self):
        events = []
        reporter = ProgressReporter(callback=events.append)
        outcomes = Executor(jobs=2, batch_size=4, progress=reporter).run(
            [self.LONG] + self.SHORT, suite=SUITE)
        assert all(outcome.ok for outcome in outcomes)
        # One worker serves the long point while the other serves the
        # three short ones, each landing the moment it finishes.
        assert [event.label for event in events][-1] == self.LONG.label()
        long_elapsed = outcomes[0].elapsed
        assert all(outcome.elapsed < long_elapsed for outcome in outcomes[1:])
        assert len({outcome.elapsed for outcome in outcomes}) == 4

    def test_crash_fails_only_the_point_in_flight(self):
        """A chaos exit on the third point a worker serves costs that point
        alone; the two this worker already returned keep their results."""
        jobs = [Job(spec=self.LONG), Job(spec=self.SHORT[0]), Job(spec=self.SHORT[1]),
                Job(spec=self.SHORT[2], chaos=Chaos(exit_first_attempts=1))]
        outcomes = Executor(jobs=2, batch_size=4, retries=0).run(jobs, suite=SUITE)
        assert [outcome.ok for outcome in outcomes] == [True, True, True, False]
        assert outcomes[3].failure.kind == "crash"
        assert [outcome.attempts for outcome in outcomes[:3]] == [1, 1, 1]
        for job, outcome in zip(jobs[:3], outcomes):
            assert stats_to_payload(outcome.result.stats) == stats_to_payload(
                run_spec(job.spec, SUITE).stats)

    def test_serial_caches_each_point_before_the_next_starts(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cached_at_start = []
        real_run = Core.run

        def run(core, *args, **kwargs):
            cached_at_start.append(len(cache))
            return real_run(core, *args, **kwargs)

        monkeypatch.setattr(Core, "run", run)
        outcomes = Executor(jobs=1, batch_size=3, cache=cache).run(SPECS, suite=SUITE)
        assert all(outcome.ok for outcome in outcomes)
        assert cached_at_start == [0, 1, 2]
        assert len(cache) == 3

    def test_more_workers_than_cpus_with_chaos_matches_serial(self):
        specs = [tiny_spec(workload=(kernel,), features=features, commit_target=150)
                 for kernel in ("compress", "li", "go", "vortex")
                 for features in ("SMT", "TME", "REC/RS/RU")]
        jobs = [Job(spec=spec) for spec in specs]
        jobs[4] = Job(spec=specs[4], chaos=Chaos(fail_first_attempts=1))
        jobs[9] = Job(spec=specs[9], chaos=Chaos(exit_first_attempts=1))
        started = time.monotonic()
        outcomes = Executor(jobs=4, batch_size=3, retries=1).run(jobs, suite=SUITE)
        assert time.monotonic() - started < 60.0
        assert all(outcome.ok for outcome in outcomes)
        assert [outcome.attempts for outcome in outcomes] == [
            2 if index in (4, 9) else 1 for index in range(len(jobs))]
        for spec, outcome in zip(specs, outcomes):
            assert outcome.job.spec == spec
            assert stats_to_payload(outcome.result.stats) == stats_to_payload(
                run_spec(spec, SUITE).stats)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self):
        """An idle worker blocked on its pipe, and a busy one, both exit
        once a SIGKILLed parent is gone."""
        script = (
            "import os, sys\n"
            "import repro.exec.pool as pool\n"
            "from repro.exec import Executor\n"
            "from repro.sim.runner import RunSpec\n"
            "real = pool.execute_payload\n"
            "def announced(payload, suite_args):\n"
            "    os.write(1, b'start %d\\n' % os.getpid())\n"
            "    result = real(payload, suite_args)\n"
            "    os.write(1, b'done %d\\n' % os.getpid())\n"
            "    return result\n"
            "pool.execute_payload = announced\n"
            "Executor(jobs=2, batch_size=4).run([\n"
            "    RunSpec(workload=('compress',), commit_target=100),\n"
            "    RunSpec(workload=('compress',), commit_target=4000)])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                  text=True, env=env)
        workers, idle = set(), False
        # Until both workers are running and the short point's one is idle;
        # on a loaded machine the short point can end before the second
        # worker announces its start.  Each announcement is one write(2),
        # so the two workers' lines cannot interleave as print()'s can.
        for line in parent.stdout:
            event, pid = line.split()
            workers.add(int(pid))
            idle = idle or event == "done"
            if idle and len(workers) == 2:
                break
        parent.kill()
        parent.wait(timeout=10)

        def alive(pid):
            try:
                return "\tZ" not in Path(f"/proc/{pid}/status").read_text()
            except OSError:
                return False

        deadline = time.monotonic() + 20
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        stuck = [pid for pid in workers if alive(pid)]
        for pid in stuck:
            os.kill(pid, signal.SIGKILL)
        assert len(workers) == 2 and not stuck


class TestJobValidation:
    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            Job(spec=tiny_spec(), overrides=(("warp_drive", 9),))

    def test_specs_accepted_directly(self):
        outcomes = Executor().run([tiny_spec()], suite=SUITE)
        assert outcomes[0].ok and outcomes[0].job.spec == tiny_spec()
