"""Tests for the extended compute opcodes (div/rem/umulh/cmov/sext/f*)."""

import math

from hypothesis import given, settings, strategies as st

from repro.emulator import Emulator
from repro.isa import assemble
from repro.isa import semantics as S
from repro.isa.encoding import decode, encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import LAT_FSQRT, LAT_IDIV, Op, info
from repro.pipeline import Core, Features, MachineConfig

i64 = st.integers(-(1 << 63), (1 << 63) - 1)


def value(op, *srcs):
    return S.compute_value(Instruction(op, rd=1, ra=2, rb=3), srcs, 0)


class TestIntegerExtended:
    def test_div_truncates_toward_zero(self):
        assert value(Op.DIV, 7, 2) == 3
        assert value(Op.DIV, -7, 2) == -3
        assert value(Op.DIV, 7, -2) == -3
        assert value(Op.DIV, -7, -2) == 3

    def test_div_by_zero_is_zero(self):
        assert value(Op.DIV, 42, 0) == 0

    def test_rem_matches_div(self):
        assert value(Op.REM, 7, 2) == 1
        assert value(Op.REM, -7, 2) == -1
        assert value(Op.REM, 42, 0) == 42

    @given(a=i64, b=i64)
    @settings(max_examples=120)
    def test_div_rem_identity(self, a, b):
        q = value(Op.DIV, a, b)
        r = value(Op.REM, a, b)
        if b != 0:
            assert S.wrap(q * b + r) == a
            assert abs(r) < abs(b)

    def test_umulh(self):
        assert value(Op.UMULH, 1 << 63, 2) == 1
        assert value(Op.UMULH, 3, 4) == 0
        assert value(Op.UMULH, -1, -1) == -2  # (2^64-1)^2 >> 64

    def test_sextb(self):
        assert value(Op.SEXTB, 0x7F, 0) == 127
        assert value(Op.SEXTB, 0x80, 0) == -128
        assert value(Op.SEXTB, 0x1FF, 0) == -1

    def test_sextw(self):
        assert value(Op.SEXTW, 0x7FFFFFFF, 0) == 0x7FFFFFFF
        assert value(Op.SEXTW, 0x80000000, 0) == -(1 << 31)


class TestConditionalMove:
    def test_reads_destination(self):
        ins = Instruction(Op.CMOVEQ, rd=5, ra=1, rb=2)
        assert ins.srcs == (1, 2, 5)

    def test_cmoveq_semantics(self):
        # srcs order: (ra, rb, old dst)
        assert value(Op.CMOVEQ, 0, 11, 22) == 11
        assert value(Op.CMOVEQ, 9, 11, 22) == 22
        assert value(Op.CMOVNE, 0, 11, 22) == 22
        assert value(Op.CMOVNE, 9, 11, 22) == 11

    def test_cmov_to_zero_reg_has_no_extra_src(self):
        ins = Instruction(Op.CMOVEQ, rd=31, ra=1, rb=2)
        assert ins.dst is None and len(ins.srcs) == 2


class TestFloatExtended:
    def test_fsqrt(self):
        assert value(Op.FSQRT, 9.0, 0.0) == 3.0
        assert math.isnan(value(Op.FSQRT, -1.0, 0.0))

    def test_fneg_fabs(self):
        assert value(Op.FNEG, 2.5, 0.0) == -2.5
        assert value(Op.FABS, -2.5, 0.0) == 2.5

    def test_latencies(self):
        assert info(Op.DIV).latency == LAT_IDIV == 20
        assert info(Op.FSQRT).latency == LAT_FSQRT == 16


class TestToolchain:
    def test_assembles_with_unary_syntax(self):
        prog = assemble(
            """
            main: movi r1, 200
                  movi r2, 7
                  div  r3, r1, r2
                  rem  r4, r1, r2
                  sextb r5, r1
                  cmoveq r6, r4, r3
                  fsqrt f1, f2
                  fneg  f3, f1
                  halt
            """
        )
        emu = Emulator(prog)
        emu.run_to_halt()
        assert emu.state.regs[3] == 28
        assert emu.state.regs[4] == 4
        assert emu.state.regs[5] == -56  # 200 & 0xff = 0xc8 → -56

    def test_encoding_roundtrip(self):
        for op in (Op.DIV, Op.UMULH, Op.CMOVNE, Op.SEXTW, Op.FSQRT, Op.FABS):
            ins = Instruction(op, rd=4, ra=5, rb=6)
            assert decode(encode(ins, 0x1000), 0x1000) == ins

    def test_pipeline_golden_clean_with_extended_ops(self):
        src = """
        main:  movi r1, 31415
               movi r2, 150
        loop:  slli r3, r1, 13
               xor  r1, r1, r3
               srli r3, r1, 7
               xor  r1, r1, r3
               andi r4, r1, 255
               movi r5, 7
               div  r6, r4, r5
               rem  r7, r4, r5
               umulh r8, r1, r4
               cmoveq r9, r7, r6
               sextb r10, r1
               cvtif f1, r4, zero
               fsqrt f2, f1
               fabs  f3, f2
               beq   r7, skip
               addi  r11, r11, 1
        skip:  subi r2, r2, 1
               bgt  r2, loop
               halt
        """
        core = Core(MachineConfig(features=Features.rec_rs_ru()))
        core.load([assemble(src, name="ext")])
        stats = core.run(max_cycles=400_000)
        assert core.instances[0].halted
        assert stats.committed > 1000
