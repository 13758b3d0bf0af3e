"""Failure injection: the co-simulation checker must catch corruption.

These tests deliberately break one invariant at a time inside a running
core and assert the commit-time golden check (or an internal assertion)
fires.  If any of these pass silently, the "all runs are golden-clean"
guarantee the reproduction rests on would be meaningless.
"""

import pytest

from repro.isa import assemble
from repro.pipeline import Core, Features, MachineConfig, SimulationError
from repro.pipeline.uop import UopState

SRC = """
main:  movi r1, 777
       movi r2, 200
loop:  slli r3, r1, 13
       xor  r1, r1, r3
       srli r3, r1, 7
       xor  r1, r1, r3
       andi r4, r1, 1
       beq  r4, skip
       addi r5, r5, 1
skip:  st   r5, 0(r6)
       ld   r7, 0(r6)
       subi r2, r2, 1
       bgt  r2, loop
       halt
"""


def fresh_core(features=Features.rec_rs_ru()):
    core = Core(MachineConfig(features=features))
    core.load([assemble(SRC, name="victim")])
    return core


class TestValueCorruption:
    def test_wrong_alu_value_detected(self):
        core = fresh_core()
        original = core.issue.execute

        state = {"armed": 200}

        def corrupt(uop):
            original(uop)
            state["armed"] -= 1
            if state["armed"] <= 0 and uop.value is not None and uop.instr.dst is not None:
                uop.value = (uop.value or 0) + 1
                core.regfile.values[uop.phys_dst] = uop.value

        core.issue.execute = corrupt
        with pytest.raises(SimulationError, match="mismatch"):
            core.run(max_cycles=300_000)

    def test_wrong_store_value_detected(self):
        core = fresh_core()
        original = core.issue.execute

        def corrupt(uop):
            original(uop)
            if uop.instr.is_store and uop.store_bits is not None:
                uop.store_bits ^= 0xFF

        core.issue.execute = corrupt
        with pytest.raises(SimulationError, match="store mismatch|mismatch"):
            core.run(max_cycles=300_000)

    def test_wrong_store_address_detected(self):
        core = fresh_core()
        original = core.issue.execute

        def corrupt(uop):
            original(uop)
            if uop.instr.is_store and uop.eff_addr is not None:
                uop.eff_addr += 8

        core.issue.execute = corrupt
        with pytest.raises(SimulationError):
            core.run(max_cycles=300_000)


class TestControlFlowCorruption:
    def test_skipped_commit_detected(self):
        """Dropping an instruction from the committed stream is caught
        immediately by the PC cross-check."""
        core = fresh_core(Features.smt())
        original = core.commit.retire
        state = {"skip": 150}

        def skipping(instance, ctx, uop):
            state["skip"] -= 1
            if state["skip"] == 0:
                # Silently drop the uop without stepping the golden model.
                ctx.active_list.advance_commit()
                uop.state = UopState.COMMITTED
                return
            original(instance, ctx, uop)

        core.commit.retire = skipping
        with pytest.raises(SimulationError, match="commit PC"):
            core.run(max_cycles=300_000)

    def test_bogus_branch_outcome_detected(self):
        core = fresh_core(Features.smt())
        original = core.issue.execute
        state = {"armed": 120}

        def corrupt(uop):
            original(uop)
            if uop.instr.is_cond_branch:
                state["armed"] -= 1
                if state["armed"] <= 0:
                    uop.taken = not uop.taken
                    uop.target = (
                        uop.instr.target if uop.taken else uop.pc + 4
                    )

        core.issue.execute = corrupt
        with pytest.raises(SimulationError):
            core.run(max_cycles=300_000)


class TestReuseCorruption:
    def test_unsound_reuse_detected(self):
        """Force reuse decisions to ignore the written-bit test; the
        golden check must flag the first stale value that commits."""
        core = fresh_core()
        original = core.rename.reuse_candidate

        def always(dst, src, uop, stream):
            result = original(dst, src, uop, stream)
            if result is not None:
                return result
            # Bypass the safety checks: reuse whatever is there.
            if (
                not uop.squashed
                and uop.executed_on_path
                and uop.phys_dst is not None
                and uop.instr.dst is not None
                and not uop.instr.is_store
                and not uop.instr.is_branch
            ):
                return uop
            return None

        core.rename.reuse_candidate = always
        with pytest.raises(SimulationError):
            core.run(max_cycles=300_000)


class TestRegfileInvariants:
    def test_double_free_asserts(self):
        core = fresh_core(Features.smt())
        core.run(max_cycles=2000)
        # Grab any live register and free it behind the core's back.
        reg = core.contexts[0].map.lookup(1)
        with pytest.raises(AssertionError):
            for _ in range(64):
                core.regfile.decref(reg)

    def test_deadlock_detector_fires(self):
        core = fresh_core(Features.smt())
        # Stop the commit stage entirely: the watchdog must trip.
        core.commit.run = lambda: None
        with pytest.raises(SimulationError, match="no commits"):
            core.run(max_cycles=100_000, deadlock_limit=2_000)


class TestSquashCorruption:
    def test_unsquashed_wrong_path_detected(self):
        """An off-by-one squash that always retains the oldest wrong-path
        uop must be caught (a single skipped squash can be masked by an
        older branch's own recovery, so the fault is persistent)."""
        core = fresh_core(Features.smt())
        original = core.resolve.squash_suffix

        def off_by_one(ctx, branch_pos):
            if ctx.active_list.tail_pos > branch_pos + 1:
                return original(ctx, branch_pos + 1)
            return original(ctx, branch_pos)

        core.resolve.squash_suffix = off_by_one
        with pytest.raises(SimulationError):
            core.run(max_cycles=300_000)

    def test_skipped_prev_map_free_leaks_registers(self):
        """Never freeing displaced mappings exhausts the file; with
        reclaim exhausted the machine deadlocks and the watchdog fires,
        or an assertion trips — either way the run cannot pass."""
        core = fresh_core(Features.smt())
        original = core.commit.retire

        def leaky(instance, ctx, uop):
            saved = uop.prev_map
            if uop.phys_dst is not None:
                uop.prev_map = None  # drop the reference on the floor
                try:
                    original(instance, ctx, uop)
                finally:
                    uop.prev_map = saved
                core.regfile.incref(saved) if False else None
            else:
                original(instance, ctx, uop)

        core.commit.retire = leaky
        with pytest.raises((SimulationError, AssertionError)):
            core.run(max_cycles=300_000, deadlock_limit=3_000)
