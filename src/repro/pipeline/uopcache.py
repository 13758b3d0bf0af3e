"""Decoded-uop cache: recycling applied to the simulator's own frontend.

Fetching re-reads the same hot loop bodies thousands of times per run,
and every read used to re-derive the same static facts — ``instr_at``'s
index arithmetic, ``instr.info`` chasing, the branch/load/store
predicate properties, the functional-unit class.  A :class:`DecodedUop`
precomputes all of it once into flat slots (plain attributes, no
descriptor dispatch, enum identities resolved to small ints), and the
:class:`DecodedUopCache` memoises the records per ``(program, pc)`` so
fetch and rename never decode or re-classify a hot PC twice.

The cache also carries the decanting metadata (per Coppieters et al.,
arXiv:1711.06672): each record knows its functional-unit class and
whether its PC sits inside a backward-branch loop body, so uop-cache
and reuse hits can be attributed by instruction type and loop
membership (``decant_key``).

The cache is a memo with no bound: a :class:`~repro.isa.program.Program`
is frozen, so a record never goes stale, and the memo holds at most one
record per static instruction of the programs its core runs.  Nothing
is evicted or invalidated.  The simulated machine never sees it; only
the simulator's speed and the hit/miss counters do.

Ownership: every core builds its own memo, so no cache state is ever
shared between cores and a point's counters read the same whether it
ran alone or among the consecutive points one pool worker serves.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..isa.instruction import INSTRUCTION_BYTES, Instruction
from ..isa.opcodes import FuClass, Op
from ..isa.program import Program

#: Execute-dispatch codes (``DecodedUop.kind``), replacing the
#: is_load/is_store/is_branch predicate ladder on the issue hot path.
K_ALU = 0
K_LOAD = 1
K_STORE = 2
K_BRANCH = 3
K_NONE = 4  # halt / nop: nothing to compute

#: Functional-unit class codes (``DecodedUop.fu_code``), matching
#: :meth:`FunctionalUnits.try_issue_code`.
FU_INT = 0
FU_FP = 1
FU_LDST = 2
FU_NONE = 3

_FU_CODES = {
    FuClass.INT: FU_INT,
    FuClass.FP: FU_FP,
    FuClass.LDST: FU_LDST,
    FuClass.NONE: FU_NONE,
}


class DecodedUop:
    """Immutable static record for one (program, pc): everything the
    pipeline derives from an :class:`Instruction`, predigested."""

    __slots__ = (
        "instr",
        "info",
        "pc",
        "seq_next",  # pc + INSTRUCTION_BYTES (the fallthrough successor)
        "fu",
        "fu_code",
        "fu_fp",  # fu is FuClass.FP (queue select)
        "latency",
        "dst",
        "dst_fp",
        "srcs",
        "nsrcs",
        "src0",
        "src1",
        "src2",
        "is_branch",
        "is_cond_branch",
        "is_load",
        "is_store",
        "is_halt",
        "is_call",
        "kind",
        "target",
        "backward",  # branch with target <= pc
        "loop_member",  # pc inside a backward-branch loop body
        "decant_key",  # e.g. "int.loop" — FuClass × loop membership
    )

    def __init__(self, instr: Instruction, pc: int, loop_member: bool = False):
        oi = instr.info
        self.instr = instr
        self.info = oi
        self.pc = pc
        self.seq_next = pc + INSTRUCTION_BYTES
        self.fu = oi.fu
        self.fu_code = _FU_CODES[oi.fu]
        self.fu_fp = oi.fu is FuClass.FP
        self.latency = oi.latency
        self.dst = instr.dst
        self.dst_fp = oi.dst_fp
        srcs = instr.srcs
        self.srcs = srcs
        n = len(srcs)
        self.nsrcs = n
        self.src0 = srcs[0] if n > 0 else -1
        self.src1 = srcs[1] if n > 1 else -1
        self.src2 = srcs[2] if n > 2 else -1
        is_branch = oi.is_cond_branch or oi.is_uncond_branch
        self.is_branch = is_branch
        self.is_cond_branch = oi.is_cond_branch
        self.is_load = oi.is_load
        self.is_store = oi.is_store
        self.is_halt = oi.is_halt
        self.is_call = oi.is_call
        if oi.is_load:
            kind = K_LOAD
        elif oi.is_store:
            kind = K_STORE
        elif is_branch:
            kind = K_BRANCH
        elif oi.is_halt or instr.op is Op.NOP:
            kind = K_NONE
        else:
            kind = K_ALU
        self.kind = kind
        self.target = instr.target
        self.backward = (
            is_branch and instr.target is not None and instr.target <= pc
        )
        self.loop_member = loop_member
        self.decant_key = oi.fu.value + (".loop" if loop_member else "")

    def __repr__(self) -> str:  # debug aid
        return f"<dec {self.pc:#x} {self.instr} {self.decant_key}>"


def loop_pcs_of(program: Program) -> "set[int]":
    """PCs inside at least one backward-branch loop body.

    One linear scan: every direct branch whose target is at or before
    its own PC closes the span ``[target, branch_pc]``.  This is the
    cheap dynamic-loop approximation the decanting breakdown keys on
    (natural-loop analysis lives in :mod:`repro.analysis` and is not
    imported here to keep the pipeline dependency-free).
    """
    spans = []
    base = program.text_base
    pc = base
    for instr in program.instructions:
        oi = instr.info
        if (
            (oi.is_cond_branch or oi.is_uncond_branch)
            and instr.target is not None
            and instr.target <= pc
        ):
            spans.append((instr.target, pc))
        pc += INSTRUCTION_BYTES
    member: set = set()
    for lo, hi in spans:
        member.update(range(lo, hi + 1, INSTRUCTION_BYTES))
    return member


class DecodedUopCache:
    """Per-core memo of :class:`DecodedUop` records per program.

    Owned by :class:`~repro.pipeline.stages.state.CoreState` (one per
    core, like every other column structure — never a module global).
    The fetch hot loop holds the per-program view dict from
    :meth:`program_view` and probes it directly; the miss path funnels
    through :meth:`decode`, which is also where the per-program decode
    counters live.
    """

    __slots__ = (
        "hits",
        "misses",
        "decode_counts",
        "hits_by_class",
        "_programs",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        #: Decodes per program name (cache misses that found text).
        self.decode_counts: Dict[str, int] = {}
        #: Cache hits per ``decant_key`` (FuClass × loop membership).
        self.hits_by_class: Dict[str, int] = {}
        #: id(program) -> (program, {pc: DecodedUop}, loop_pcs).  The
        #: program reference pins the id against reuse.
        self._programs: Dict[int, Tuple[Program, Dict[int, DecodedUop], set]] = {}

    def _record(self, program: Program) -> Tuple[Program, Dict[int, DecodedUop], set]:
        rec = self._programs.get(id(program))
        if rec is None:
            rec = (program, {}, loop_pcs_of(program))
            self._programs[id(program)] = rec
        return rec

    # -- hot-path handles ----------------------------------------------
    def program_view(self, program: Program) -> Dict[int, DecodedUop]:
        """The per-program ``{pc: DecodedUop}`` dict, for direct probing."""
        return self._record(program)[1]

    def decode(self, program: Program, pc: int) -> Optional[DecodedUop]:
        """Miss path: decode ``pc``, memoise and return the record — or
        None when ``pc`` is off-text."""
        self.misses += 1
        instr = program.instr_at(pc)
        if instr is None:
            return None
        _, view, loop_pcs = self._record(program)
        dec = DecodedUop(instr, pc, loop_member=pc in loop_pcs)
        name = program.name
        self.decode_counts[name] = self.decode_counts.get(name, 0) + 1
        view[pc] = dec
        return dec

    def lookup(self, program: Program, pc: int) -> Optional[DecodedUop]:
        """Convenience probe (cold paths, tests): hit or decode."""
        dec = self.program_view(program).get(pc)
        if dec is not None:
            self.hits += 1
            key = dec.decant_key
            self.hits_by_class[key] = self.hits_by_class.get(key, 0) + 1
            return dec
        return self.decode(program, pc)
