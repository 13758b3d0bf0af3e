"""Exhaustive opcode coverage: every opcode executes through the whole
stack (assembler → emulator → pipeline).

Guards future ISA additions: a new opcode missing semantics, an
assembler case, or pipeline handling fails here immediately.
"""

import pytest

from repro.emulator import Emulator
from repro.isa import assemble
from repro.isa.opcodes import Format, Op, info
from repro.pipeline import Core, Features, MachineConfig

# One assembly statement exercising each opcode (operands chosen so the
# program below stays architecturally meaningful).
OPCODE_STATEMENTS = {
    Op.ADD: "add r1, r2, r3",
    Op.SUB: "sub r1, r2, r3",
    Op.MUL: "mul r1, r2, r3",
    Op.AND: "and r1, r2, r3",
    Op.OR: "or r1, r2, r3",
    Op.XOR: "xor r1, r2, r3",
    Op.SLL: "sll r1, r2, r3",
    Op.SRL: "srl r1, r2, r3",
    Op.SRA: "sra r1, r2, r3",
    Op.CMPEQ: "cmpeq r1, r2, r3",
    Op.CMPLT: "cmplt r1, r2, r3",
    Op.CMPLE: "cmple r1, r2, r3",
    Op.CMPULT: "cmpult r1, r2, r3",
    Op.ADDI: "addi r1, r2, 5",
    Op.SUBI: "subi r1, r2, 5",
    Op.MULI: "muli r1, r2, 5",
    Op.ANDI: "andi r1, r2, 5",
    Op.ORI: "ori r1, r2, 5",
    Op.XORI: "xori r1, r2, 5",
    Op.SLLI: "slli r1, r2, 5",
    Op.SRLI: "srli r1, r2, 5",
    Op.SRAI: "srai r1, r2, 5",
    Op.CMPEQI: "cmpeqi r1, r2, 5",
    Op.CMPLTI: "cmplti r1, r2, 5",
    Op.MOVI: "movi r1, 5",
    Op.FADD: "fadd f1, f2, f3",
    Op.FSUB: "fsub f1, f2, f3",
    Op.FMUL: "fmul f1, f2, f3",
    Op.FDIV: "fdiv f1, f2, f3",
    Op.FCMPEQ: "fcmpeq r1, f2, f3",
    Op.FCMPLT: "fcmplt r1, f2, f3",
    Op.FCMPLE: "fcmple r1, f2, f3",
    Op.CVTIF: "cvtif f1, r2, zero",
    Op.CVTFI: "cvtfi r1, f2, fzero",
    Op.LD: "ld r1, 0(r2)",
    Op.ST: "st r1, 0(r2)",
    Op.FLD: "fld f1, 0(r2)",
    Op.FST: "fst f1, 0(r2)",
    Op.BEQ: "beq r1, next",
    Op.BNE: "bne r1, next",
    Op.BLT: "blt r1, next",
    Op.BLE: "ble r1, next",
    Op.BGT: "bgt r1, next",
    Op.BGE: "bge r1, next",
    Op.BR: "br next",
    Op.JSR: "jsr ra, next",
    Op.JMP: "jmp (r1)",
    Op.RET: "ret (ra)",
    Op.NOP: "nop",
    Op.HALT: "halt",
}


class TestInventoryCoverage:
    def test_statement_table_covers_every_opcode(self):
        assert set(OPCODE_STATEMENTS) == set(Op)

    @pytest.mark.parametrize("op", sorted(Op, key=int))
    def test_assembles_and_encodes(self, op):
        source = f"main: {OPCODE_STATEMENTS[op]}\nnext: halt"
        prog = assemble(source)
        ins = prog.instructions[0]
        assert ins.op is op
        assert len(ins.srcs) <= 2  # a uop has two physical source slots

    def test_every_opcode_has_positive_latency_and_fu(self):
        for op in Op:
            oi = info(op)
            assert oi.latency >= 1
            assert isinstance(oi.fmt, Format)


# A single program touching every opcode, run through emulator and
# pipeline (golden-checked), proving semantics exist and agree.
ALL_OPS_PROGRAM = """
        .data
buf:    .word 12, -7, 0
vals:   .double 2.25, -3.5
        .text
main:   movi r2, 12
        movi r3, 5
        movi r9, buf
        add  r1, r2, r3
        sub  r1, r1, r3
        mul  r1, r1, r3
        and  r4, r1, r2
        or   r4, r4, r3
        xor  r4, r4, r2
        sll  r5, r2, r3
        srl  r5, r5, r3
        sra  r5, r5, r3
        cmpeq r6, r2, r3
        cmplt r6, r3, r2
        cmple r6, r2, r2
        cmpult r6, r3, r2
        addi r7, r2, 100
        subi r7, r7, 1
        muli r7, r7, 2
        andi r7, r7, 255
        ori  r7, r7, 1
        xori r7, r7, 3
        slli r8, r2, 2
        srli r8, r8, 1
        srai r8, r8, 1
        cmpeqi r8, r8, 6
        cmplti r8, r8, 10
        ld   r16, 0(r9)
        st   r16, 16(r9)
        fld  f1, 0(r9)      # reinterpret: still well-defined
        movi r17, vals
        fld  f2, 0(r17)
        fld  f3, 8(r17)
        fadd f4, f2, f3
        fsub f4, f4, f2
        fmul f5, f2, f2
        fdiv f6, f5, f2
        fcmpeq r18, f2, f3
        fcmplt r18, f3, f2
        fcmple r18, f2, f2
        cvtif f9, r2, zero
        cvtfi r19, f9, fzero
        fst  f4, 16(r9)
        beq  r6, skip1
        nop
skip1:  bne  r31, skip2
        nop
skip2:  blt  r3, skip3
skip3:  ble  r31, skip4
skip4:  bgt  r2, skip5
skip5:  bge  r2, skip6
skip6:  br   direct
        nop
direct: jsr  ra, callee
        movi r20, done_tgt
        jmp  (r20)
        nop
done_tgt: halt
callee: ret  (ra)
"""


class TestAllOpsProgram:
    def test_emulates(self):
        emu = Emulator(assemble(ALL_OPS_PROGRAM, name="allops"))
        emu.run_to_halt(limit=10_000)

    def test_pipeline_golden_clean(self):
        core = Core(MachineConfig(features=Features.rec_rs_ru()))
        core.load([assemble(ALL_OPS_PROGRAM, name="allops")])
        core.run(max_cycles=100_000)
        assert core.instances[0].halted
