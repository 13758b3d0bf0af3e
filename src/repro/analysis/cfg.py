"""Control-flow graph construction over assembled :class:`Program` images.

The CFG is the foundation of the static-analysis subsystem: basic
blocks are maximal straight-line instruction runs, edges carry a kind
describing *why* control may flow (fall-through, taken conditional,
direct jump, call fall-through, return, indirect, halt), and a single
virtual EXIT node collects every way out of the program.

Two successor relations are exposed:

* the **intraprocedural** relation (``BasicBlock.succs``) treats a call
  as falling through to its return site and sends returns/indirect
  jumps to EXIT — this is the graph dominator and post-dominator
  analysis runs on, matching how reconvergence is usually defined;
* the **flow** relation (:meth:`CFG.flow_successors`) additionally
  over-approximates indirect control: a ``ret`` may continue at any
  return site in the program, an indirect ``jmp`` at any labelled
  instruction, and a call may also enter its callee.  Every path real
  execution can take is a walk in this relation, which makes it the
  right graph for the invariant cross-checker's reachability and
  must-definition queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instruction import INSTRUCTION_BYTES, Instruction
from ..isa.program import Program

#: Virtual exit node id (never a real block index).
EXIT_BLOCK = -1


class EdgeKind(enum.Enum):
    """Why control may flow along a CFG edge."""

    FALL = "fall"  # sequential fall-through
    TAKEN = "taken"  # conditional branch taken
    JUMP = "jump"  # unconditional direct branch
    CALL = "call"  # call fall-through (the call is assumed to return)
    RET = "ret"  # procedure return (to EXIT intraprocedurally)
    INDIRECT = "indirect"  # computed jump (to EXIT intraprocedurally)
    HALT = "halt"  # program termination


@dataclass
class BasicBlock:
    """A maximal single-entry straight-line run of instructions."""

    id: int
    start: int  # first instruction index (inclusive)
    end: int  # last instruction index (exclusive)
    succs: List[Tuple[int, EdgeKind]] = field(default_factory=list)

    def __len__(self) -> int:
        return self.end - self.start

    def indices(self) -> range:
        return range(self.start, self.end)


def _direct_target_index(program: Program, instr: Instruction) -> Optional[int]:
    """Instruction index of a direct transfer's target, None if off-text."""
    if instr.target is None:
        return None
    return program.instr_index(instr.target)


class CFG:
    """Control-flow graph of one assembled program."""

    def __init__(self, program: Program):
        self.program = program
        self.blocks: List[BasicBlock] = []
        #: instruction index -> owning block id
        self.block_of: List[int] = []
        #: instruction indices immediately after a ``jsr`` (return sites)
        self.return_sites: List[int] = []
        #: callee entry block ids (targets of ``jsr``)
        self.call_entries: List[int] = []
        #: instruction indices carrying a label (indirect-jump candidates)
        self.labelled: List[int] = []
        self._preds: Optional[List[List[int]]] = None
        self._flow_succs: Optional[List[List[int]]] = None
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        program = self.program
        instrs = program.instructions
        n = len(instrs)
        if n == 0:
            return
        leaders = {0}
        entry_idx = program.instr_index(program.entry or program.text_base)
        if entry_idx is not None:
            leaders.add(entry_idx)
        for i, ins in enumerate(instrs):
            oi = ins.info
            if oi.is_branch and not oi.is_indirect:
                tgt = _direct_target_index(program, ins)
                if tgt is not None:
                    leaders.add(tgt)
            if oi.is_branch or oi.is_halt:
                if i + 1 < n:
                    leaders.add(i + 1)
            if oi.is_call and i + 1 < n:
                self.return_sites.append(i + 1)
        for addr in sorted(program.labels.values()):
            idx = program.instr_index(addr)
            if idx is not None:
                self.labelled.append(idx)
                leaders.add(idx)

        ordered = sorted(leaders)
        self.block_of = [0] * n
        for bid, start in enumerate(ordered):
            end = ordered[bid + 1] if bid + 1 < len(ordered) else n
            block = BasicBlock(bid, start, end)
            self.blocks.append(block)
            for i in range(start, end):
                self.block_of[i] = bid
        for block in self.blocks:
            block.succs = self._block_successors(block)
        for ins in instrs:
            if ins.info.is_call:
                tgt = _direct_target_index(self.program, ins)
                if tgt is not None:
                    self.call_entries.append(self.block_of[tgt])

    def _block_successors(self, block: BasicBlock) -> List[Tuple[int, EdgeKind]]:
        program = self.program
        last = program.instructions[block.end - 1]
        oi = last.info
        n = len(program.instructions)
        succs: List[Tuple[int, EdgeKind]] = []
        if oi.is_halt:
            return [(EXIT_BLOCK, EdgeKind.HALT)]
        if oi.is_indirect:
            kind = EdgeKind.RET if oi.is_return else EdgeKind.INDIRECT
            return [(EXIT_BLOCK, kind)]
        if oi.is_cond_branch:
            fall = self.block_of[block.end] if block.end < n else EXIT_BLOCK
            succs.append((fall, EdgeKind.FALL))
            tgt = _direct_target_index(program, last)
            succs.append((self.block_of[tgt], EdgeKind.TAKEN) if tgt is not None
                         else (EXIT_BLOCK, EdgeKind.TAKEN))
            return succs
        if oi.is_uncond_branch:  # br / jsr (direct)
            if oi.is_call:
                fall = self.block_of[block.end] if block.end < n else EXIT_BLOCK
                return [(fall, EdgeKind.CALL)]
            tgt = _direct_target_index(program, last)
            return [(self.block_of[tgt], EdgeKind.JUMP) if tgt is not None
                    else (EXIT_BLOCK, EdgeKind.JUMP)]
        fall = self.block_of[block.end] if block.end < n else EXIT_BLOCK
        return [(fall, EdgeKind.FALL)]

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    @property
    def entry_block(self) -> int:
        idx = self.program.instr_index(self.program.entry or self.program.text_base)
        return self.block_of[idx] if idx is not None else 0

    def pc_of(self, index: int) -> int:
        return self.program.text_base + index * INSTRUCTION_BYTES

    def index_of(self, pc: int) -> Optional[int]:
        return self.program.instr_index(pc)

    def block_at_pc(self, pc: int) -> Optional[BasicBlock]:
        idx = self.index_of(pc)
        if idx is None:
            return None
        return self.blocks[self.block_of[idx]]

    def is_leader(self, pc: int) -> bool:
        """Is ``pc`` the first instruction of a basic block?"""
        idx = self.index_of(pc)
        return idx is not None and self.blocks[self.block_of[idx]].start == idx

    @property
    def num_edges(self) -> int:
        return sum(len(b.succs) for b in self.blocks)

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------
    def preds(self) -> List[List[int]]:
        """Block-level predecessor lists (EXIT excluded)."""
        preds = self._preds
        if preds is None:
            preds = [[] for _ in self.blocks]
            for block in self.blocks:
                for succ, _kind in block.succs:
                    if succ != EXIT_BLOCK and block.id not in preds[succ]:
                        preds[succ].append(block.id)
            self._preds = preds
        return preds

    def instr_successors(self, index: int) -> List[int]:
        """Intraprocedural successor instruction indices of ``index``."""
        program = self.program
        ins = program.instructions[index]
        oi = ins.info
        n = len(program.instructions)
        if oi.is_halt or oi.is_indirect:
            return []
        if oi.is_cond_branch:
            out = [index + 1] if index + 1 < n else []
            tgt = _direct_target_index(program, ins)
            if tgt is not None:
                out.append(tgt)
            return out
        if oi.is_uncond_branch:
            if oi.is_call:
                return [index + 1] if index + 1 < n else []
            tgt = _direct_target_index(program, ins)
            return [tgt] if tgt is not None else []
        return [index + 1] if index + 1 < n else []

    def flow_successors(self) -> List[List[int]]:
        """Instruction-level successor lists over-approximating real flow.

        Adds ``ret`` → every return site, indirect ``jmp`` → every
        labelled instruction, and ``jsr`` → its callee entry, so every
        dynamically executable path is a walk in this relation.
        """
        flow = self._flow_succs
        if flow is None:
            program = self.program
            n = len(program.instructions)
            out: List[List[int]] = []
            for i in range(n):
                succs = self.instr_successors(i)
                oi = program.instructions[i].info
                if oi.is_return:
                    succs = succs + self.return_sites
                elif oi.is_indirect:  # computed jmp
                    succs = succs + self.labelled
                elif oi.is_call:
                    tgt = _direct_target_index(program, program.instructions[i])
                    if tgt is not None:
                        succs = succs + [tgt]
                # dedupe, preserving deterministic order
                seen: Dict[int, None] = {}
                for s in succs:
                    seen.setdefault(s, None)
                out.append(list(seen))
            flow = self._flow_succs = out
        return flow
