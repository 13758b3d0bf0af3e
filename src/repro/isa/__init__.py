"""The RRISC instruction-set architecture.

Public surface:

* :mod:`repro.isa.registers` — logical register space
* :mod:`repro.isa.opcodes` — opcode inventory, formats, latencies
* :mod:`repro.isa.instruction` — decoded instruction objects
* :mod:`repro.isa.assembler` — two-pass assembler
* :mod:`repro.isa.program` — assembled program images
"""

from .assembler import Assembler, AssemblerError, assemble
from .instruction import INSTRUCTION_BYTES, Instruction
from .opcodes import Format, FuClass, Op, OpInfo, info
from .program import DATA_BASE, Program, STACK_TOP, TEXT_BASE
from . import registers

__all__ = [
    "Assembler",
    "AssemblerError",
    "assemble",
    "INSTRUCTION_BYTES",
    "Instruction",
    "Format",
    "FuClass",
    "Op",
    "OpInfo",
    "info",
    "DATA_BASE",
    "Program",
    "STACK_TOP",
    "TEXT_BASE",
    "registers",
]
