"""Differential test: event-driven scheduler vs the old scan-based one.

The wakeup rework replaced "rescan every queue entry every cycle" with
per-register waiter lists and an incrementally maintained ready pool.
That optimization must be *behaviour-free*: this test keeps the old
readiness logic alive as a ``ReferenceQueue`` test double, runs the
same workloads through both queue implementations, and asserts the
issue streams are identical uop-for-uop.

The double implements the pre-rework semantics directly: membership in
an insertion-ordered dict, and ``take_ready`` as a full scan for
resident RENAMED uops whose every source register is ready at the
current cycle, oldest (lowest seq) first.  ``requeue`` is a no-op —
the next cycle's scan naturally finds blocked uops again — and no
waiters are ever registered, so ``regfile.write`` wakes nothing.
"""

from typing import List

import pytest

import repro.pipeline.stages.state as stage_state
from repro.pipeline import Core
from repro.pipeline.events import Issued
from repro.pipeline.uop import UopState
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite


class ReferenceQueue:
    """The old scan-the-world instruction queue (test double)."""

    def __init__(self, name, size, regfile):
        self.name = name
        self.size = size
        self.regfile = regfile
        self._members = {}

    def has_room(self):
        return len(self._members) < self.size

    def __contains__(self, uop):
        return uop in self._members

    def insert(self, uop):
        assert len(self._members) < self.size, f"{self.name} queue overflow"
        self._members[uop] = None

    def remove(self, uop):
        assert uop in self._members, f"removing non-resident uop {uop!r}"
        del self._members[uop]

    def clear(self):
        self._members.clear()

    def _wake(self, uop):  # pragma: no cover - no waiters are registered
        raise AssertionError("ReferenceQueue never registers waiters")

    def take_ready(self, cycle):
        ready_cycles = self.regfile.ready_cycle
        out = [
            u
            for u in self._members
            if u.state is UopState.RENAMED
            and all(ready_cycles[p] <= cycle for p in u.phys_srcs)
        ]
        out.sort(key=lambda u: u.seq)
        return out

    def requeue(self, uops):
        pass  # next cycle's scan rediscovers them


def run_and_capture(spec: RunSpec, queue_cls=None):
    """Run ``spec``; return (stats, issue stream as (cycle, ctx, pc))."""
    if queue_cls is not None:
        real = stage_state.InstructionQueue
        stage_state.InstructionQueue = queue_cls
    try:
        core = Core(spec.build_config())
    finally:
        if queue_cls is not None:
            stage_state.InstructionQueue = real
    core.load(
        WorkloadSuite().mix(spec.workload), commit_target=spec.commit_target
    )
    issued: List[tuple] = []
    core.bus.subscribe(
        Issued, lambda ev: issued.append((ev.cycle, ev.uop.ctx, ev.uop.pc))
    )
    stats = core.run(max_cycles=spec.max_cycles)
    return stats, issued


WORKLOADS = sorted(WorkloadSuite().names)


@pytest.mark.parametrize("kernel", WORKLOADS)
def test_issue_stream_identical_with_recycling(kernel):
    spec = RunSpec(workload=(kernel,), features="REC/RS/RU", commit_target=500)
    stats_new, issued_new = run_and_capture(spec)
    stats_ref, issued_ref = run_and_capture(spec, queue_cls=ReferenceQueue)
    assert issued_new == issued_ref, f"{kernel}: issue order diverged"
    assert stats_new.cycles == stats_ref.cycles
    assert stats_new.committed == stats_ref.committed
    assert stats_new.squashed == stats_ref.squashed


@pytest.mark.parametrize("kernel", ["compress", "li"])
def test_issue_stream_identical_tme_only(kernel):
    """The no-recycle path (plain TME forking) is pinned too."""
    spec = RunSpec(workload=(kernel,), features="TME", commit_target=500)
    stats_new, issued_new = run_and_capture(spec)
    stats_ref, issued_ref = run_and_capture(spec, queue_cls=ReferenceQueue)
    assert issued_new == issued_ref
    assert stats_new.cycles == stats_ref.cycles
    assert stats_new.committed == stats_ref.committed
