"""Opcode definitions, instruction formats and latency classes.

The RRISC ISA is a small 64-bit load/store architecture whose opcode
inventory is just large enough to express the synthetic SPEC95-analog
workloads: integer ALU and multiply, IEEE-ish floating point, 64-bit
loads/stores, compare-against-zero conditional branches (Alpha style)
and direct/indirect jumps with call/return hints for the return-address
stack.

Execution latencies follow the DEC Alpha 21264 values the paper assumes
(Section 4): single-cycle integer ALU, 7-cycle integer multiply,
4-cycle FP add/multiply/compare/convert, 12-cycle FP divide.  Load
latency is *not* fixed here — the data-cache model supplies it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Format(enum.Enum):
    """Assembly operand format of an opcode."""

    R3 = "r3"  # op rd, ra, rb
    R2I = "r2i"  # op rd, ra, imm
    RI = "ri"  # op rd, imm
    LOAD = "load"  # op rd, imm(ra)
    STORE = "store"  # op rb, imm(ra)
    BRANCH = "branch"  # op ra, label        (conditional, vs. zero)
    JUMP = "jump"  # op label             (BR) / op rd, label (JSR)
    JUMP_REG = "jump_reg"  # op (ra)              (JMP / RET)
    NONE = "none"  # op                   (NOP / HALT)


class FuClass(enum.Enum):
    """Functional-unit class an opcode issues to.

    The paper's machine has 12 integer units (8 of which can also
    perform load/store) and 6 floating-point units.  ``LDST`` ops
    require one of the load/store-capable integer units.
    """

    INT = "int"
    FP = "fp"
    LDST = "ldst"
    NONE = "none"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode."""

    name: str
    fmt: Format
    fu: FuClass
    latency: int
    dst_fp: bool = False
    src_fp: bool = False
    is_load: bool = False
    is_store: bool = False
    is_cond_branch: bool = False
    is_uncond_branch: bool = False
    is_indirect: bool = False
    is_call: bool = False
    is_return: bool = False
    is_halt: bool = False

    @property
    def is_branch(self) -> bool:
        """True for any control-transfer instruction."""
        return self.is_cond_branch or self.is_uncond_branch

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    @property
    def has_dst(self) -> bool:
        return self.fmt in (Format.R3, Format.R2I, Format.RI, Format.LOAD) or (
            self.fmt is Format.JUMP and self.is_call
        )


# Latencies (cycles in execute).  Loads take ``LAT_ALU`` plus whatever the
# data cache reports.
LAT_ALU = 1
LAT_MUL = 7
LAT_FP = 4
LAT_FDIV = 12


def _build_table() -> "dict[Op, OpInfo]":
    spec = {
        # --- integer ALU -------------------------------------------------
        Op.ADD: OpInfo("add", Format.R3, FuClass.INT, LAT_ALU),
        Op.SUB: OpInfo("sub", Format.R3, FuClass.INT, LAT_ALU),
        Op.MUL: OpInfo("mul", Format.R3, FuClass.INT, LAT_MUL),
        Op.AND: OpInfo("and", Format.R3, FuClass.INT, LAT_ALU),
        Op.OR: OpInfo("or", Format.R3, FuClass.INT, LAT_ALU),
        Op.XOR: OpInfo("xor", Format.R3, FuClass.INT, LAT_ALU),
        Op.SLL: OpInfo("sll", Format.R3, FuClass.INT, LAT_ALU),
        Op.SRL: OpInfo("srl", Format.R3, FuClass.INT, LAT_ALU),
        Op.SRA: OpInfo("sra", Format.R3, FuClass.INT, LAT_ALU),
        Op.CMPEQ: OpInfo("cmpeq", Format.R3, FuClass.INT, LAT_ALU),
        Op.CMPLT: OpInfo("cmplt", Format.R3, FuClass.INT, LAT_ALU),
        Op.CMPLE: OpInfo("cmple", Format.R3, FuClass.INT, LAT_ALU),
        Op.CMPULT: OpInfo("cmpult", Format.R3, FuClass.INT, LAT_ALU),
        # --- integer ALU, immediate forms --------------------------------
        Op.ADDI: OpInfo("addi", Format.R2I, FuClass.INT, LAT_ALU),
        Op.SUBI: OpInfo("subi", Format.R2I, FuClass.INT, LAT_ALU),
        Op.MULI: OpInfo("muli", Format.R2I, FuClass.INT, LAT_MUL),
        Op.ANDI: OpInfo("andi", Format.R2I, FuClass.INT, LAT_ALU),
        Op.ORI: OpInfo("ori", Format.R2I, FuClass.INT, LAT_ALU),
        Op.XORI: OpInfo("xori", Format.R2I, FuClass.INT, LAT_ALU),
        Op.SLLI: OpInfo("slli", Format.R2I, FuClass.INT, LAT_ALU),
        Op.SRLI: OpInfo("srli", Format.R2I, FuClass.INT, LAT_ALU),
        Op.SRAI: OpInfo("srai", Format.R2I, FuClass.INT, LAT_ALU),
        Op.CMPEQI: OpInfo("cmpeqi", Format.R2I, FuClass.INT, LAT_ALU),
        Op.CMPLTI: OpInfo("cmplti", Format.R2I, FuClass.INT, LAT_ALU),
        Op.MOVI: OpInfo("movi", Format.RI, FuClass.INT, LAT_ALU),
        # --- floating point ----------------------------------------------
        Op.FADD: OpInfo("fadd", Format.R3, FuClass.FP, LAT_FP, dst_fp=True, src_fp=True),
        Op.FSUB: OpInfo("fsub", Format.R3, FuClass.FP, LAT_FP, dst_fp=True, src_fp=True),
        Op.FMUL: OpInfo("fmul", Format.R3, FuClass.FP, LAT_FP, dst_fp=True, src_fp=True),
        Op.FDIV: OpInfo("fdiv", Format.R3, FuClass.FP, LAT_FDIV, dst_fp=True, src_fp=True),
        Op.FCMPEQ: OpInfo("fcmpeq", Format.R3, FuClass.FP, LAT_FP, src_fp=True),
        Op.FCMPLT: OpInfo("fcmplt", Format.R3, FuClass.FP, LAT_FP, src_fp=True),
        Op.FCMPLE: OpInfo("fcmple", Format.R3, FuClass.FP, LAT_FP, src_fp=True),
        Op.CVTIF: OpInfo("cvtif", Format.R3, FuClass.FP, LAT_FP, dst_fp=True),
        Op.CVTFI: OpInfo("cvtfi", Format.R3, FuClass.FP, LAT_FP, src_fp=True),
        # --- memory -------------------------------------------------------
        Op.LD: OpInfo("ld", Format.LOAD, FuClass.LDST, LAT_ALU, is_load=True),
        Op.ST: OpInfo("st", Format.STORE, FuClass.LDST, LAT_ALU, is_store=True),
        Op.FLD: OpInfo("fld", Format.LOAD, FuClass.LDST, LAT_ALU, dst_fp=True, is_load=True),
        Op.FST: OpInfo(
            "fst", Format.STORE, FuClass.LDST, LAT_ALU, src_fp=True, is_store=True
        ),
        # --- control ------------------------------------------------------
        Op.BEQ: OpInfo("beq", Format.BRANCH, FuClass.INT, LAT_ALU, is_cond_branch=True),
        Op.BNE: OpInfo("bne", Format.BRANCH, FuClass.INT, LAT_ALU, is_cond_branch=True),
        Op.BLT: OpInfo("blt", Format.BRANCH, FuClass.INT, LAT_ALU, is_cond_branch=True),
        Op.BLE: OpInfo("ble", Format.BRANCH, FuClass.INT, LAT_ALU, is_cond_branch=True),
        Op.BGT: OpInfo("bgt", Format.BRANCH, FuClass.INT, LAT_ALU, is_cond_branch=True),
        Op.BGE: OpInfo("bge", Format.BRANCH, FuClass.INT, LAT_ALU, is_cond_branch=True),
        Op.BR: OpInfo("br", Format.JUMP, FuClass.INT, LAT_ALU, is_uncond_branch=True),
        Op.JSR: OpInfo(
            "jsr", Format.JUMP, FuClass.INT, LAT_ALU, is_uncond_branch=True, is_call=True
        ),
        Op.JMP: OpInfo(
            "jmp",
            Format.JUMP_REG,
            FuClass.INT,
            LAT_ALU,
            is_uncond_branch=True,
            is_indirect=True,
        ),
        Op.RET: OpInfo(
            "ret",
            Format.JUMP_REG,
            FuClass.INT,
            LAT_ALU,
            is_uncond_branch=True,
            is_indirect=True,
            is_return=True,
        ),
        # --- misc ----------------------------------------------------------
        Op.NOP: OpInfo("nop", Format.NONE, FuClass.INT, LAT_ALU),
        Op.HALT: OpInfo("halt", Format.NONE, FuClass.INT, LAT_ALU, is_halt=True),
    }
    return spec


class Op(enum.IntEnum):
    """The RRISC opcodes."""

    ADD = 0
    SUB = 1
    MUL = 2
    AND = 3
    OR = 4
    XOR = 5
    SLL = 6
    SRL = 7
    SRA = 8
    CMPEQ = 9
    CMPLT = 10
    CMPLE = 11
    CMPULT = 12
    ADDI = 13
    SUBI = 14
    MULI = 15
    ANDI = 16
    ORI = 17
    XORI = 18
    SLLI = 19
    SRLI = 20
    SRAI = 21
    CMPEQI = 22
    CMPLTI = 23
    MOVI = 24
    FADD = 25
    FSUB = 26
    FMUL = 27
    FDIV = 28
    FCMPEQ = 29
    FCMPLT = 30
    FCMPLE = 31
    CVTIF = 32
    CVTFI = 33
    LD = 34
    ST = 35
    FLD = 36
    FST = 37
    BEQ = 38
    BNE = 39
    BLT = 40
    BLE = 41
    BGT = 42
    BGE = 43
    BR = 44
    JSR = 45
    JMP = 46
    RET = 47
    NOP = 48
    HALT = 49


#: Opcode → :class:`OpInfo` lookup table.
OP_INFO = _build_table()

#: Mnemonic → :class:`Op` lookup used by the assembler.
MNEMONICS = {info.name: op for op, info in OP_INFO.items()}


def info(op: "Op") -> OpInfo:
    """Return the :class:`OpInfo` record for ``op``."""
    return OP_INFO[op]
