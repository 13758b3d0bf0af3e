"""Architectural state for the functional emulator."""

from __future__ import annotations

from typing import List, Optional

from ..isa.program import Program, STACK_TOP
from ..isa.registers import (
    FP_BASE,
    NUM_LOGICAL_REGS,
    STACK_POINTER_REG,
    is_zero,
)
from .memory import SparseMemory


def initial_reg_value(index: int):
    """Reset value of logical register ``index``, in the golden model and
    in a fresh hardware context: the stack pointer holds ``STACK_TOP``,
    every other register zero (an int below ``FP_BASE``, else a float)."""
    if index == STACK_POINTER_REG:
        return STACK_TOP
    return 0.0 if index >= FP_BASE else 0


class ArchState:
    """Registers + memory + PC of one running program instance.

    Registers live in the unified logical space: indices below
    ``FP_BASE`` are integers (Python ints), the rest are floats.  The
    two hardwired-zero registers are enforced on write.
    """

    __slots__ = ("regs", "memory", "pc", "halted", "program")

    def __init__(self, program: Program, memory: Optional[SparseMemory] = None):
        self.program = program
        self.regs: List = [initial_reg_value(i) for i in range(NUM_LOGICAL_REGS)]
        self.memory = memory if memory is not None else SparseMemory()
        if memory is None and program.data:
            self.memory.load_image(program.data_base, program.data)
        self.pc = program.entry
        self.halted = False

    def read_reg(self, index: int):
        return self.regs[index]

    def write_reg(self, index: int, value) -> None:
        if is_zero(index):
            return
        self.regs[index] = value
