"""Golden functional emulator.

Executes a :class:`~repro.isa.program.Program` one instruction at a
time, architecturally.  The out-of-order pipeline co-simulates against
this model: at every commit it steps the emulator once and compares PC,
destination value and memory effects.  The emulator is also used by the
workload suite to characterise kernels (dynamic instruction mix, branch
behaviour) without any timing machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..isa import semantics
from ..isa.instruction import INSTRUCTION_BYTES, Instruction
from ..isa.opcodes import Op
from ..isa.program import Program
from .memory import SparseMemory
from .state import ArchState


class EmulationError(RuntimeError):
    """PC left the text segment, or an instruction was malformed."""


@dataclass(slots=True)
class StepRecord:
    """Architectural effects of one retired instruction."""

    pc: int
    instr: Instruction
    next_pc: int
    dst: Optional[int] = None
    value: object = None
    taken: Optional[bool] = None
    target: Optional[int] = None
    eff_addr: Optional[int] = None
    store_bits: Optional[int] = None

    @property
    def is_branch(self) -> bool:
        return self.taken is not None


class Emulator:
    """In-order architectural interpreter for one program instance."""

    def __init__(self, program: Program, memory: Optional[SparseMemory] = None):
        self.state = ArchState(program, memory)
        self.program = program
        self.instret = 0

    @property
    def halted(self) -> bool:
        return self.state.halted

    def step(self) -> StepRecord:
        """Execute one instruction; raises on a bad PC, no-ops when halted."""
        st = self.state
        if st.halted:
            return StepRecord(pc=st.pc, instr=Instruction(Op.HALT), next_pc=st.pc)
        pc = st.pc
        ins = self.program.instr_at(pc)
        if ins is None:
            raise EmulationError(
                f"{self.program.name}: pc {pc:#x} outside text segment"
            )
        rec = self._execute(ins, pc)
        st.pc = rec.next_pc
        self.instret += 1
        return rec

    def _execute(self, ins: Instruction, pc: int) -> StepRecord:
        st = self.state
        oi = ins.info
        srcs = tuple(st.read_reg(s) for s in ins.srcs)
        rec = StepRecord(pc=pc, instr=ins, next_pc=pc + INSTRUCTION_BYTES)
        if oi.is_halt:
            st.halted = True
            rec.next_pc = pc
            return rec
        if oi.is_load:
            addr = semantics.effective_address(ins, srcs[0])
            value = semantics.load_value(st.memory.read64(addr), oi.dst_fp)
            rec.eff_addr = addr
            rec.dst, rec.value = ins.dst, value
            if ins.dst is not None:
                st.write_reg(ins.dst, value)
            return rec
        if oi.is_store:
            addr = semantics.effective_address(ins, srcs[0])
            bits = semantics.store_bits(srcs[1], oi.src_fp)
            st.memory.write64(addr, bits)
            rec.eff_addr, rec.store_bits = addr, bits
            return rec
        if oi.is_branch:
            taken, target = semantics.branch_outcome(ins, srcs, pc)
            rec.taken, rec.target = taken, target
            rec.next_pc = target if taken else pc + INSTRUCTION_BYTES
            if oi.is_call and ins.dst is not None:
                value = semantics.compute_value(ins, srcs, pc)
                rec.dst, rec.value = ins.dst, value
                st.write_reg(ins.dst, value)
            return rec
        value = semantics.compute_value(ins, srcs, pc)
        if ins.dst is not None:
            rec.dst, rec.value = ins.dst, value
            st.write_reg(ins.dst, value)
        return rec

    def run(
        self,
        max_instructions: int,
        on_step: Optional[Callable[[StepRecord], None]] = None,
    ) -> int:
        """Run up to ``max_instructions``; returns instructions retired."""
        executed = 0
        while executed < max_instructions and not self.state.halted:
            rec = self.step()
            executed += 1
            if on_step is not None:
                on_step(rec)
        return executed

    def run_to_halt(self, limit: int = 10_000_000) -> int:
        """Run until HALT; raises if ``limit`` is exceeded (runaway guard)."""
        executed = self.run(limit)
        if not self.state.halted:
            raise EmulationError(
                f"{self.program.name}: no HALT within {limit} instructions"
            )
        return executed


def branch_trace(program: Program, max_instructions: int) -> List[Tuple[int, bool]]:
    """(pc, taken) for every conditional branch executed — workload analysis."""
    trace: List[Tuple[int, bool]] = []

    def record(rec: StepRecord) -> None:
        if rec.instr.is_cond_branch:
            trace.append((rec.pc, bool(rec.taken)))

    Emulator(program).run(max_instructions, on_step=record)
    return trace
