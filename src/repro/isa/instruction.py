"""Decoded-instruction representation.

An :class:`Instruction` is the *static* form of one RRISC instruction:
opcode plus register/immediate operands, with the operand roles already
resolved into the unified logical register space (see
:mod:`repro.isa.registers`).  The pipeline stores these directly in its
active lists — which is exactly the paper's point: the active list
already holds "the decoded opcode and physical and logical register
operands", making recycling cheap.

Direct control transfers carry an absolute byte ``target`` (the
assembler resolves labels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .opcodes import Format, Op, OpInfo, info
from .registers import FP_BASE, FP_ZERO_REG, ZERO_REG, reg_name

INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class Instruction:
    """One decoded static instruction.

    ``rd``/``ra``/``rb`` are raw 5-bit register numbers in their own
    class's namespace (the opcode determines int vs. fp); ``srcs`` and
    ``dst`` are the derived unified logical indices the renamer uses.
    Writes to a hardwired-zero register yield ``dst is None``.
    """

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    target: Optional[int] = None  # absolute byte address for direct branches
    srcs: Tuple[int, ...] = field(init=False)
    dst: Optional[int] = field(init=False)
    #: Cached OpInfo — a plain attribute, not a property: ``instr.info``
    #: is on every pipeline fast path (>100k reads per profile run) and
    #: a descriptor dispatch there is measurable.
    info: OpInfo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        oi = info(self.op)
        srcs, dst = _operand_roles(self, oi)
        object.__setattr__(self, "srcs", srcs)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "info", oi)

    # Convenience predicates, forwarded from OpInfo ----------------------
    @property
    def is_branch(self) -> bool:
        return self.info.is_branch

    @property
    def is_cond_branch(self) -> bool:
        return self.info.is_cond_branch

    @property
    def is_load(self) -> bool:
        return self.info.is_load

    @property
    def is_store(self) -> bool:
        return self.info.is_store

    def __str__(self) -> str:  # assembly-ish rendering
        oi = self.info
        f = oi.fmt
        if f is Format.R3:
            c = "f" if oi.src_fp else "r"
            d = "f" if oi.dst_fp else "r"
            return f"{oi.name} {d}{self.rd}, {c}{self.ra}, {c}{self.rb}"
        if f is Format.R2I:
            return f"{oi.name} r{self.rd}, r{self.ra}, {self.imm}"
        if f is Format.RI:
            return f"{oi.name} r{self.rd}, {self.imm}"
        if f is Format.LOAD:
            d = "f" if oi.dst_fp else "r"
            return f"{oi.name} {d}{self.rd}, {self.imm}({'r'}{self.ra})"
        if f is Format.STORE:
            c = "f" if oi.src_fp else "r"
            return f"{oi.name} {c}{self.rb}, {self.imm}(r{self.ra})"
        if f is Format.BRANCH:
            return f"{oi.name} r{self.ra}, {self.target:#x}"
        if f is Format.JUMP:
            if oi.is_call:
                return f"{oi.name} r{self.rd}, {self.target:#x}"
            return f"{oi.name} {self.target:#x}"
        if f is Format.JUMP_REG:
            return f"{oi.name} (r{self.ra})"
        return oi.name

    def operand_names(self) -> str:
        """Unified-space operand summary, for debugging."""
        parts = []
        if self.dst is not None:
            parts.append(f"dst={reg_name(self.dst)}")
        if self.srcs:
            parts.append("srcs=" + ",".join(reg_name(s) for s in self.srcs))
        return " ".join(parts)


def _unified(raw: int, fp: bool) -> int:
    return raw + FP_BASE if fp else raw


def _drop_zero_dst(idx: int) -> Optional[int]:
    if idx == ZERO_REG or idx == FP_ZERO_REG:
        return None
    return idx


def _operand_roles(ins: Instruction, oi: OpInfo) -> Tuple[Tuple[int, ...], Optional[int]]:
    """Compute (unified source indices, unified dst index or None)."""
    f = oi.fmt
    if f is Format.R3:
        srcs = (_unified(ins.ra, oi.src_fp), _unified(ins.rb, oi.src_fp))
        return srcs, _drop_zero_dst(_unified(ins.rd, oi.dst_fp))
    if f is Format.R2I:
        return (_unified(ins.ra, False),), _drop_zero_dst(_unified(ins.rd, False))
    if f is Format.RI:
        return (), _drop_zero_dst(_unified(ins.rd, False))
    if f is Format.LOAD:
        return (_unified(ins.ra, False),), _drop_zero_dst(_unified(ins.rd, oi.dst_fp))
    if f is Format.STORE:
        return (_unified(ins.ra, False), _unified(ins.rb, oi.src_fp)), None
    if f is Format.BRANCH:
        return (_unified(ins.ra, False),), None
    if f is Format.JUMP:
        if oi.is_call:
            return (), _drop_zero_dst(_unified(ins.rd, False))
        return (), None
    if f is Format.JUMP_REG:
        return (_unified(ins.ra, False),), None
    return (), None
