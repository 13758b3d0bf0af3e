"""Architectural semantics of RRISC instructions.

Both the golden functional emulator and the pipeline's execute stage
call into this module, so the out-of-order core and the reference model
agree by construction — the commit-time co-simulation check in the
pipeline then verifies *ordering*, not arithmetic.

Value conventions:

* integer registers hold Python ints in signed 64-bit range,
* fp registers hold Python floats,
* memory holds raw unsigned 64-bit words; loads/stores convert.
"""

from __future__ import annotations

import math
import struct
from typing import Tuple

from .instruction import INSTRUCTION_BYTES, Instruction
from .opcodes import Op

_U64 = (1 << 64) - 1
_S64_SIGN = 1 << 63


def to_signed(u: int) -> int:
    """Reinterpret an unsigned 64-bit pattern as signed."""
    u &= _U64
    return u - (1 << 64) if u & _S64_SIGN else u


def to_unsigned(s: int) -> int:
    """Truncate a Python int to an unsigned 64-bit pattern."""
    return s & _U64


def wrap(s: int) -> int:
    """Wrap a Python int into signed 64-bit range."""
    return to_signed(to_unsigned(s))


def float_to_bits(f: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", f))[0]


def bits_to_float(u: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", u & _U64))[0]


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (math.copysign(1.0, b) > 0) else -math.inf
    try:
        return a / b
    except OverflowError:
        return math.inf if (a > 0) == (b > 0) else -math.inf


def _cvtfi(f: float) -> int:
    if math.isnan(f):
        return 0
    if f >= 2.0**63:
        return (1 << 63) - 1
    if f <= -(2.0**63):
        return -(1 << 63)
    return int(f)


_INT_ALU = {
    Op.ADD: lambda a, b: wrap(a + b),
    Op.SUB: lambda a, b: wrap(a - b),
    Op.MUL: lambda a, b: wrap(a * b),
    Op.AND: lambda a, b: to_signed(to_unsigned(a) & to_unsigned(b)),
    Op.OR: lambda a, b: to_signed(to_unsigned(a) | to_unsigned(b)),
    Op.XOR: lambda a, b: to_signed(to_unsigned(a) ^ to_unsigned(b)),
    Op.SLL: lambda a, b: to_signed(to_unsigned(a) << (b & 63)),
    Op.SRL: lambda a, b: to_signed(to_unsigned(a) >> (b & 63)),
    Op.SRA: lambda a, b: wrap(a >> (b & 63)),
    Op.CMPEQ: lambda a, b: 1 if a == b else 0,
    Op.CMPLT: lambda a, b: 1 if a < b else 0,
    Op.CMPLE: lambda a, b: 1 if a <= b else 0,
    Op.CMPULT: lambda a, b: 1 if to_unsigned(a) < to_unsigned(b) else 0,
}

_IMM_ALU = {
    Op.ADDI: Op.ADD,
    Op.SUBI: Op.SUB,
    Op.MULI: Op.MUL,
    Op.ANDI: Op.AND,
    Op.ORI: Op.OR,
    Op.XORI: Op.XOR,
    Op.SLLI: Op.SLL,
    Op.SRLI: Op.SRL,
    Op.SRAI: Op.SRA,
    Op.CMPEQI: Op.CMPEQ,
    Op.CMPLTI: Op.CMPLT,
}

_FP_ALU = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: _fdiv,
    Op.FCMPEQ: lambda a, b: 1 if a == b else 0,
    Op.FCMPLT: lambda a, b: 1 if a < b else 0,
    Op.FCMPLE: lambda a, b: 1 if a <= b else 0,
}

_BRANCH_COND = {
    Op.BEQ: lambda a: a == 0,
    Op.BNE: lambda a: a != 0,
    Op.BLT: lambda a: a < 0,
    Op.BLE: lambda a: a <= 0,
    Op.BGT: lambda a: a > 0,
    Op.BGE: lambda a: a >= 0,
}


def compute_value(ins: Instruction, src_values: Tuple, pc: int):
    """Result value of a non-memory, value-producing instruction.

    ``src_values`` are the operand values in :attr:`Instruction.srcs`
    order.  Returns None for instructions with no destination.
    """
    op = ins.op
    if op in _INT_ALU:
        return _INT_ALU[op](src_values[0], src_values[1])
    if op in _IMM_ALU:
        return _INT_ALU[_IMM_ALU[op]](src_values[0], ins.imm)
    if op in _FP_ALU:
        return _FP_ALU[op](src_values[0], src_values[1])
    if op is Op.MOVI:
        return wrap(ins.imm)
    if op is Op.CVTIF:
        # CVTIF rd, ra, rb uses only ra (rb conventionally the zero reg).
        return float(src_values[0])
    if op is Op.CVTFI:
        return _cvtfi(src_values[0])
    if op is Op.JSR:
        return pc + INSTRUCTION_BYTES
    return None


def effective_address(ins: Instruction, base_value: int) -> int:
    """Byte address of a load/store, 8-byte aligned."""
    return to_unsigned(base_value + ins.imm) & ~0x7


def branch_outcome(ins: Instruction, src_values: Tuple, pc: int) -> Tuple[bool, int]:
    """(taken, target) of any control-transfer instruction."""
    op = ins.op
    if op in _BRANCH_COND:
        taken = _BRANCH_COND[op](src_values[0])
        target = ins.target if taken else pc + INSTRUCTION_BYTES
        return taken, target
    if op in (Op.BR, Op.JSR):
        return True, ins.target
    if op in (Op.JMP, Op.RET):
        return True, to_unsigned(src_values[0]) & ~0x3
    raise ValueError(f"not a branch: {ins}")


def load_value(word_bits: int, fp: bool):
    """Convert a raw memory word into a register value."""
    return bits_to_float(word_bits) if fp else to_signed(word_bits)


def store_bits(value, fp: bool) -> int:
    """Convert a register value into a raw memory word."""
    return float_to_bits(value) if fp else to_unsigned(value)
