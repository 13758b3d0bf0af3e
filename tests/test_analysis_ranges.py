"""Tests for the strided-interval domain (repro.analysis.ranges).

The domain's soundness contract is that every concrete value a register
can hold is contained in its abstract value; the lattice contract is
that join/widen only ever grow the set.  Both are pinned here on hand
cases and with hypothesis over random inputs, alongside the fixpoint
engine's exactness on straight-line constant code.
"""

from hypothesis import given, strategies as st

from repro.analysis.ranges import TOP, StridedInterval, ValueRangeAnalysis
from repro.isa.assembler import assemble
from repro.isa.semantics import to_signed, to_unsigned

S = StridedInterval


def si(stride, offset, lo, hi):
    return StridedInterval.make(stride, offset, lo, hi)


class TestConstruction:
    def test_const_is_singleton(self):
        x = S.const(42)
        assert x.is_singleton and x.value == 42
        assert x.contains(42) and not x.contains(43)

    def test_bounds_tighten_onto_congruence(self):
        # [1, 30] with x ≡ 0 (mod 8) snaps to [8, 24]
        x = si(8, 0, 1, 30)
        assert (x.lo, x.hi) == (8, 24)

    def test_empty_congruence_window_is_top(self):
        # no multiple of 8 in [1, 7] — nothing representable, go to TOP
        assert si(8, 0, 1, 7).is_top

    def test_congruence_only_requires_pow2_stride(self):
        assert not si(8, 4, None, None).is_top  # 8 divides 2^64: wrap-safe
        assert si(12, 4, None, None).is_top  # 12 doesn't: unsound, drop

    def test_out_of_signed64_bounds_is_top(self):
        assert si(1, 0, -(2**70), 0).is_top

    def test_equal_bounds_collapse_to_singleton(self):
        assert si(4, 1, 5, 5).is_singleton


class TestLattice:
    def test_join_of_constants_keeps_congruence(self):
        x = S.const(8).join(S.const(24))
        assert x.stride == 16 and x.contains(8) and x.contains(24)
        assert not x.contains(12)

    def test_join_is_upper_bound(self):
        a = si(8, 0, 0, 64)
        b = si(4, 2, -10, 10)
        j = a.join(b)
        for v in (0, 64, -10, 6):
            assert j.contains(v)

    def test_widen_drops_unstable_bounds_together(self):
        a = si(4, 0, 0, 16)
        b = si(4, 0, 0, 32)  # hi grew: both bounds must go
        w = a.widen(b)
        assert w.lo is None and w.hi is None
        assert w.stride == 4  # congruence survives widening

    def test_widen_keeps_stable_value(self):
        a = si(4, 0, 0, 16)
        assert a.widen(a) == a

    @given(
        st.integers(-1000, 1000), st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    def test_join_contains_both_operands_members(self, a, b, c):
        x = S.const(a).join(S.const(b))
        y = x.join(S.const(c))
        for v in (a, b, c):
            assert y.contains(v)


class TestTransfer:
    def test_add_singletons_exact(self):
        assert S.const(3).add(S.const(4)).value == 7

    def test_add_interval_shifts_bounds(self):
        x = si(8, 0, 0, 64).add(S.const(16))
        assert (x.lo, x.hi) == (16, 80) and x.contains(24 + 16)

    def test_align_down_models_address_masking(self):
        # x & ~7 for x in [13, 29] → multiples of 8 in [8, 24]
        x = si(1, 0, 13, 29).align_down(8)
        assert x.stride == 8 and (x.lo, x.hi) == (8, 24)

    def test_align_down_of_top_keeps_congruence_only(self):
        x = TOP.align_down(8)
        assert x.lo is None and x.stride == 8 and x.contains(16)
        assert not x.contains(12)

    def test_and_const_alignment_mask(self):
        x = si(1, 0, 0, 100).and_const(-8)
        assert x.stride == 8 and x.hi == 96

    def test_and_const_low_mask(self):
        x = si(1, 0, -50, 50).and_const(0xF)
        assert (x.lo, x.hi) == (0, 15)

    def test_shl_const(self):
        x = si(1, 0, 0, 7).shl_const(3)
        assert x.stride == 8 and (x.lo, x.hi) == (0, 56)

    def test_mul_const(self):
        x = si(2, 0, 0, 10).mul_const(3)
        assert x.stride == 6 and (x.lo, x.hi) == (0, 30)

    @given(st.integers(-(2**31), 2**31), st.integers(0, 1000))
    def test_align_down_membership_sound(self, base, spread):
        x = si(1, 0, base, base + spread)
        aligned = x.align_down(8)
        for v in (base, base + spread // 2, base + spread):
            assert aligned.contains(v - (v % 8))


class TestSetRelations:
    def test_disjoint_bounded_ranges_cannot_intersect(self):
        a = si(8, 0, 0, 64)
        b = si(8, 0, 128, 256)
        assert not a.may_intersect(b)

    def test_incompatible_congruences_cannot_intersect(self):
        a = si(8, 0, None, None)
        b = si(8, 4, None, None)
        assert not a.may_intersect(b)

    def test_overlap_may_intersect(self):
        assert si(8, 0, 0, 64).may_intersect(si(8, 0, 32, 96))

    def test_must_equal_only_for_equal_singletons(self):
        assert S.const(5).must_equal(S.const(5))
        assert not S.const(5).must_equal(S.const(6))
        assert not si(1, 0, 0, 5).must_equal(si(1, 0, 0, 5))

    def test_top_intersects_everything(self):
        assert TOP.may_intersect(S.const(0))

    @given(st.integers(-10**6, 10**6), st.integers(1, 64),
           st.integers(0, 63), st.integers(-10**6, 10**6))
    def test_no_intersection_claim_is_a_proof(self, v, stride, off, base):
        a = S.const(v)
        b = si(stride, off, base, base + 512)
        if not a.may_intersect(b):
            assert not b.contains(v)


PROGRAM = """
main:   movi r1, 4096
        movi r2, 7
        andi r2, r2, 3
        slli r3, r2, 3
        add  r4, r1, r3
        ld   r5, 8(r4)
        halt
"""


class TestValueRangeAnalysis:
    def test_straight_line_constants_exact(self):
        program = assemble(PROGRAM, name="t")
        vra = ValueRangeAnalysis(program)
        # r1 = 4096 exactly once the movi executed (state before ld)
        load_idx = next(
            i for i, ins in enumerate(program.instructions) if ins.info.is_load
        )
        assert vra.reg_at(load_idx, 1).value == 4096
        assert vra.reg_at(load_idx, 2).value == 3
        assert vra.reg_at(load_idx, 4).value == 4096 + 24

    def test_zero_register_reads_as_zero(self):
        program = assemble(PROGRAM, name="t")
        vra = ValueRangeAnalysis(program)
        assert vra.reg_at(0, 31).value == 0

    def test_loop_counter_stays_bounded_or_sound(self):
        program = assemble(
            """
main:   movi r1, 0
loop:   addi r1, r1, 8
        subi r2, r1, 64
        blt  r2, loop
        halt
""",
            name="loop",
        )
        vra = ValueRangeAnalysis(program)
        # at loop entry r1 is a multiple of 8 (stride survives widening)
        loop_idx = 1
        x = vra.reg_at(loop_idx, 1)
        assert x.contains(0) and x.contains(8) and x.contains(64)
        assert x.stride % 8 == 0 or x.is_top is False

    def test_fixpoint_terminates_on_all_kernels(self):
        from repro.workloads.suite import WorkloadSuite

        suite = WorkloadSuite()
        for name in suite.names:
            vra = ValueRangeAnalysis(suite.program(name))
            assert vra.iterations < vra.MAX_VISITS * len(
                suite.program(name).instructions
            )

    def test_address_eval_agrees_with_unsigned_view(self):
        # contains_address bridges signed analysis to unsigned addresses
        x = S.const(to_signed(0xFFFF_FFFF_FFFF_FFF8))
        assert x.contains_address(to_unsigned(-8))
