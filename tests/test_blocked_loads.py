"""A load blocked behind an older pending store waits on that store.

Memory ordering is conservative: a load may not issue while any older
store visible to its context has not executed.  Instead of handing such
a load out of the ready pool every cycle and re-checking it, the issue
stage parks it on the blocking store's ``waiters`` list; the store's
completion or squash hands it back.  These tests pin that contract on
small programs:

* the int queue hands a blocked load out at most twice (once when it
  first becomes ready, once when its store releases it), where a
  per-cycle re-check handed it out once per stalled cycle;
* the issue stream is unchanged, with the rescan-every-cycle
  ``ReferenceQueue`` of ``tests/test_scheduler_differential.py`` as the
  oracle;
* a squashed store releases its parked loads through ``squash_uop``.
"""

import pytest

import repro.pipeline.stages.state as stage_state
from repro.isa import assemble
from repro.pipeline import Core, Features, MachineConfig
from repro.pipeline.events import Issued
from tests.test_scheduler_differential import ReferenceQueue

#: The store's address waits on a chain of four multiplies; the load
#: after it reads a different, ready address, so only memory order
#: holds it back.
STORE_THEN_LOAD = """
        .data
buf:    .space 64
        .text
main:   movi r1, buf
        movi r9, 1
        mul  r2, r1, r9
        mul  r2, r2, r9
        mul  r2, r2, r9
        mul  r2, r2, r9
        st   r9, 0(r2)
        ld   r4, 8(r1)
        add  r5, r4, r4
        halt
"""

#: ``bgt`` is predicted taken but falls through once its multiply chain
#: resolves.  The wrong path at ``wrong`` renames a store whose address
#: waits on a longer chain, and a load behind it, which parks on the
#: store until the mispredict squashes them both.
WRONG_PATH_STORE = """
        .data
buf:    .space 64
        .text
main:   movi r1, buf
        movi r9, 1
        sub  r3, r9, r9
        mul  r3, r3, r9
        mul  r3, r3, r9
        mul  r3, r3, r9
        bgt  r3, wrong
        ld   r6, 16(r1)
        halt
wrong:  mul  r2, r1, r9
        mul  r2, r2, r9
        mul  r2, r2, r9
        mul  r2, r2, r9
        st   r9, 0(r2)
        ld   r4, 8(r1)
        add  r5, r4, r4
        halt
"""


def build(src, queue_cls=None):
    """A core loaded with ``src`` (no TME, so a mispredict squashes),
    optionally built on another queue class."""
    if queue_cls is not None:
        real = stage_state.InstructionQueue
        stage_state.InstructionQueue = queue_cls
    try:
        core = Core(MachineConfig(features=Features.smt()))
    finally:
        if queue_cls is not None:
            stage_state.InstructionQueue = real
    core.load([assemble(src, name="blocked")])
    return core


def issue_stream(core):
    issued = []
    core.bus.subscribe(
        Issued, lambda ev: issued.append((ev.cycle, ev.uop.pc, str(ev.uop.instr)))
    )
    return issued


def count_load_handouts(core):
    """Every (cycle, pc) at which the int queue hands out a load."""
    handed = []
    take_ready = core.int_queue.take_ready

    def counting(cycle):
        ready = take_ready(cycle)
        handed.extend((cycle, uop.pc) for uop in ready if uop.dec.is_load)
        return ready

    core.int_queue.take_ready = counting
    return handed


class TestParkedLoadWaitsOnItsStore:
    def test_load_is_handed_out_at_most_twice(self):
        core = build(STORE_THEN_LOAD)
        handed = count_load_handouts(core)
        issued = issue_stream(core)
        core.run(max_cycles=10_000)
        (store_issue,) = [cycle for cycle, _, text in issued if text.startswith("st")]
        ((load_issue, load_pc),) = [
            (cycle, pc) for cycle, pc, text in issued if text.startswith("ld")
        ]
        handouts = [cycle for cycle, pc in handed if pc == load_pc]
        # The load is ready long before its store executes ...
        assert handouts[0] < store_issue
        assert load_issue - handouts[0] > 10
        # ... yet it leaves the ready pool only when it first becomes
        # ready and when the store releases it, not once per stall.
        assert len(handouts) <= 2
        assert handouts[-1] == load_issue

    @pytest.mark.parametrize("src", [STORE_THEN_LOAD, WRONG_PATH_STORE])
    def test_issue_stream_matches_the_rescanning_oracle(self, src):
        core = build(src)
        issued = issue_stream(core)
        stats = core.run(max_cycles=10_000)
        oracle = build(src, ReferenceQueue)
        expected = issue_stream(oracle)
        oracle_stats = oracle.run(max_cycles=10_000)
        assert issued == expected
        assert stats.cycles == oracle_stats.cycles
        assert stats.committed == oracle_stats.committed


class TestSquashedStoreReleasesItsLoads:
    def test_squash_uop_hands_the_parked_load_back(self):
        """Squashes run youngest first, so a load parked on a store of
        its own path is already squashed when the store goes; the
        store's ``squash_uop`` still empties its waiter list back into
        the queue, whose next ``take_ready`` drops the dead load."""
        core = build(WRONG_PATH_STORE)
        issued = issue_stream(core)
        released, requeued = [], []
        squash_uop = core.resolve.squash_uop
        requeue = core.int_queue.requeue

        def watching(uop):
            parked = uop.waiters
            squash_uop(uop)
            if parked:
                released.append((uop, list(parked), uop.waiters))

        def recording(uops):
            requeued.extend(uops)
            requeue(uops)

        core.resolve.squash_uop = watching
        core.int_queue.requeue = recording
        core.run(max_cycles=10_000)
        ((store, parked, after),) = released
        assert str(store.instr).startswith("st") and store.squashed
        (load,) = parked
        assert str(load.instr).startswith("ld r4") and load.squashed
        assert after is None
        assert load in requeued
        assert load.issue_cycle == -1 and load not in core.int_queue
        # The right path's load issues once the branch resolves.
        right_load = [cycle for cycle, _, text in issued if text.startswith("ld r6")]
        assert len(right_load) == 1
