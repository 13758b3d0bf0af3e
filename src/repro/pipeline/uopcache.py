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

Capacity semantics: bounded FIFO over all programs.  ``capacity == 0``
disables caching entirely (every lookup decodes, nothing is stored) —
the simulated machine's behaviour is identical either way; only the
simulator's speed and the hit/miss counters change.

Ownership: every core builds its own cache, so no cache state is ever
shared between cores and a point's counters read the same whether it
ran alone or in a batch slice.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

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
    """Bounded FIFO cache of :class:`DecodedUop` records per program.

    Owned by :class:`~repro.pipeline.stages.state.CoreState` (one per
    core, like every other column structure — never a module global).
    The fetch hot loop holds the per-program view dict from
    :meth:`program_view` and probes it directly; the miss path funnels
    through :meth:`decode`, which is also where capacity eviction and
    the per-program decode counters live.
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "evictions",
        "decode_counts",
        "hits_by_class",
        "_programs",
        "_fifo",
        "_size",
    )

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Decodes per program name (cache misses that found text).
        self.decode_counts: Dict[str, int] = {}
        #: Cache hits per ``decant_key`` (FuClass × loop membership).
        self.hits_by_class: Dict[str, int] = {}
        #: id(program) -> (program, {pc: DecodedUop}, loop_pcs).  The
        #: program reference pins the id against reuse.
        self._programs: Dict[int, Tuple[Program, Dict[int, DecodedUop], set]] = {}
        #: FIFO of (view, pc) in insertion order; stale entries (already
        #: invalidated) are skipped at eviction time.
        self._fifo: Deque[Tuple[Dict[int, DecodedUop], int]] = deque()
        self._size = 0

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

    def decode(
        self,
        program: Program,
        pc: int,
        view: Optional[Dict[int, DecodedUop]] = None,
    ) -> Optional[DecodedUop]:
        """Miss path: decode ``pc``, insert (evicting FIFO-oldest when
        full), return the record — or None when ``pc`` is off-text."""
        self.misses += 1
        instr = program.instr_at(pc)
        if instr is None:
            return None
        rec = self._record(program)
        dec = DecodedUop(instr, pc, loop_member=pc in rec[2])
        name = program.name
        self.decode_counts[name] = self.decode_counts.get(name, 0) + 1
        if not self.capacity:
            return dec
        if view is None:
            view = rec[1]
        if pc not in view:
            fifo = self._fifo
            while self._size >= self.capacity:
                old_view, old_pc = fifo.popleft()
                if old_view.pop(old_pc, None) is not None:
                    self._size -= 1
                    self.evictions += 1
            fifo.append((view, pc))
            self._size += 1
        view[pc] = dec
        return dec

    def lookup(self, program: Program, pc: int) -> Optional[DecodedUop]:
        """Convenience probe (cold paths, tests): hit or decode."""
        view = self.program_view(program)
        dec = view.get(pc)
        if dec is not None:
            self.hits += 1
            key = dec.decant_key
            self.hits_by_class[key] = self.hits_by_class.get(key, 0) + 1
            return dec
        return self.decode(program, pc, view)

    # -- invalidation --------------------------------------------------
    def invalidate(self, program: Program, pc: int) -> bool:
        """Drop one entry (e.g. self-modifying text in a future ISA);
        returns whether anything was cached there."""
        rec = self._programs.get(id(program))
        if rec is None:
            return False
        if rec[1].pop(pc, None) is None:
            return False
        self._size -= 1
        return True

    def invalidate_program(self, program: Program) -> int:
        """Drop every entry (and the loop map) for ``program``.

        A fetch loop still holding the view dict sees it emptied in
        place and falls back to the decode path, which re-registers the
        program.
        """
        rec = self._programs.pop(id(program), None)
        if rec is None:
            return 0
        dropped = len(rec[1])
        self._size -= dropped
        rec[1].clear()  # the fetch hot loop may still hold this view
        return dropped

    def clear(self) -> None:
        self._programs.clear()
        self._fifo.clear()
        self._size = 0

    # -- reporting -----------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def snapshot(self) -> Dict:
        """JSON-ready counter payload (profiler / stats export)."""
        lookups = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "entries": self._size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
            "decode_counts": dict(sorted(self.decode_counts.items())),
            "hits_by_class": dict(sorted(self.hits_by_class.items())),
        }
