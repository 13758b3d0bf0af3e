"""Tests for instruction queues and functional-unit accounting."""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.pipeline.queues import FunctionalUnits, InstructionQueue
from repro.pipeline.regfile import PhysicalRegisterFile
from repro.pipeline.uopcache import FU_FP, FU_INT, FU_LDST, FU_NONE
from repro.pipeline.uop import Uop, UopState


def mk_uop(op=Op.ADD, srcs=()):
    u = Uop(Instruction(op, rd=1, ra=2, rb=3), 0x1000, 0, None)
    u.phys_srcs = list(srcs)
    return u


def mk_queue(size=8, rf=None):
    return InstructionQueue("int", size, rf or PhysicalRegisterFile(8, 8))


class TestQueue:
    def test_capacity(self):
        q = mk_queue(size=2)
        q.insert(mk_uop())
        q.insert(mk_uop())
        assert not q.has_room()

    def test_ready_requires_sources(self):
        rf = PhysicalRegisterFile(8, 8)
        a = rf.alloc(fp=False)
        q = mk_queue(rf=rf)
        u = mk_uop(srcs=[a])
        q.insert(u)
        assert q.take_ready(0) == []
        rf.write(a, 5)
        assert q.take_ready(0) == [u]

    def test_wakeup_respects_ready_cycle(self):
        """A producer result forwardable at cycle N wakes dependents then."""
        rf = PhysicalRegisterFile(8, 8)
        a = rf.alloc(fp=False)
        q = mk_queue(rf=rf)
        u = mk_uop(srcs=[a])
        q.insert(u)
        rf.write(a, 5, ready_at=3)
        assert q.take_ready(2) == []
        assert q.take_ready(3) == [u]

    def test_ready_oldest_first(self):
        q = mk_queue()
        u1, u2 = mk_uop(), mk_uop()
        q.insert(u2)
        q.insert(u1)
        ready = q.take_ready(0)
        assert ready == sorted([u1, u2], key=lambda u: u.seq)

    def test_requeue_returns_blocked_uops(self):
        q = mk_queue()
        u = mk_uop()
        q.insert(u)
        assert q.take_ready(0) == [u]
        assert q.take_ready(0) == []  # the caller owns them now
        q.requeue([u])
        assert q.take_ready(0) == [u]

    def test_issued_uops_not_ready(self):
        q = mk_queue()
        u = mk_uop()
        q.insert(u)
        u.state = UopState.ISSUED
        assert q.take_ready(0) == []

    def test_squashed_waiter_dropped(self):
        """A waiter squashed before its producer writes never surfaces."""
        rf = PhysicalRegisterFile(8, 8)
        a = rf.alloc(fp=False)
        q = mk_queue(rf=rf)
        u = mk_uop(srcs=[a])
        q.insert(u)
        q.remove(u)
        u.state = UopState.SQUASHED
        rf.write(a, 5)
        assert q.take_ready(0) == []

    def test_remove_absent_asserts(self):
        q = mk_queue()
        with pytest.raises(AssertionError):
            q.remove(mk_uop())

    def test_double_remove_asserts(self):
        q = mk_queue()
        u = mk_uop()
        q.insert(u)
        q.remove(u)
        with pytest.raises(AssertionError):
            q.remove(u)


class TestFunctionalUnits:
    """``try_issue_code``, the claim the issue stage makes, keyed by the
    decoded uop's ``fu_code``."""

    def test_int_units_limit(self):
        fus = FunctionalUnits(2, 1, 1)
        assert fus.try_issue_code(FU_INT)
        assert fus.try_issue_code(FU_INT)
        assert not fus.try_issue_code(FU_INT)

    def test_fp_units_independent(self):
        fus = FunctionalUnits(1, 1, 1)
        assert fus.try_issue_code(FU_INT)
        assert fus.try_issue_code(FU_FP)
        assert not fus.try_issue_code(FU_INT)

    def test_ldst_consumes_int_unit(self):
        fus = FunctionalUnits(2, 0, 2)
        assert fus.try_issue_code(FU_LDST)
        assert fus.try_issue_code(FU_LDST)
        # Both integer units consumed by the two memory ops.
        assert not fus.try_issue_code(FU_INT)

    def test_ldst_port_limit(self):
        fus = FunctionalUnits(12, 6, 1)
        assert fus.try_issue_code(FU_LDST)
        assert not fus.try_issue_code(FU_LDST)
        assert fus.try_issue_code(FU_INT)

    def test_none_claims_an_int_slot(self):
        fus = FunctionalUnits(1, 1, 1)
        assert fus.try_issue_code(FU_NONE)
        assert not fus.try_issue_code(FU_INT)
        assert not fus.try_issue_code(FU_NONE)
        assert fus.try_issue_code(FU_FP)

    def test_new_cycle_resets(self):
        fus = FunctionalUnits(1, 1, 1)
        fus.try_issue_code(FU_INT)
        fus.new_cycle()
        assert fus.try_issue_code(FU_INT)

    def test_paper_configuration(self):
        """12 int, 6 fp, 8 ld/st → 18 issues max, 8 of them memory."""
        fus = FunctionalUnits(12, 6, 8)
        mem = sum(fus.try_issue_code(FU_LDST) for _ in range(10))
        ints = sum(fus.try_issue_code(FU_INT) for _ in range(10))
        fps = sum(fus.try_issue_code(FU_FP) for _ in range(10))
        assert mem == 8 and ints == 4 and fps == 6
