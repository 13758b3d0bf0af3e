"""The stage profiler hook, ``Core.set_profiler``.

``repro-sim profile`` and perfbench's stage timer attach here: with a
profiler set, ``Core.step`` hands each stage's ``run`` to
``profiler.timed(name, fn)``.  Timing a stage must not change what it
simulates, and clearing the profiler must restore the plain path.
"""

from repro.exec.jobs import stats_to_payload
from repro.pipeline import Core
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite

SPEC = RunSpec(workload=("compress",), commit_target=300)

#: The names ``timed`` receives each cycle, in evaluation order.
STAGES = ["commit", "complete", "issue", "rename", "fetch"]


class RecordingProfiler:
    def __init__(self):
        self.names = []

    def timed(self, name, fn):
        self.names.append(name)
        fn()


def fresh_core():
    core = Core(SPEC.build_config())
    core.load(WorkloadSuite().mix(SPEC.workload), commit_target=SPEC.commit_target)
    return core


def plain_payload():
    return stats_to_payload(fresh_core().run(max_cycles=SPEC.max_cycles))


class TestSetProfiler:
    def test_each_cycle_times_the_five_stages_in_order(self):
        core = fresh_core()
        profiler = RecordingProfiler()
        core.set_profiler(profiler)
        stats = core.run(max_cycles=SPEC.max_cycles)
        assert stats.cycles > 0
        assert profiler.names == STAGES * stats.cycles

    def test_a_profiled_run_simulates_the_same_machine(self):
        core = fresh_core()
        core.set_profiler(RecordingProfiler())
        profiled = core.run(max_cycles=SPEC.max_cycles)
        assert stats_to_payload(profiled) == plain_payload()

    def test_clearing_the_profiler_restores_the_plain_path(self):
        core = fresh_core()
        profiler = RecordingProfiler()
        core.set_profiler(profiler)
        core.step()
        core.step()
        assert profiler.names == STAGES * 2
        core.set_profiler(None)
        stats = core.run(max_cycles=SPEC.max_cycles)
        assert profiler.names == STAGES * 2
        assert stats_to_payload(stats) == plain_payload()
