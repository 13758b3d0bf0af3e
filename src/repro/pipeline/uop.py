"""In-flight instruction records (micro-ops).

A :class:`Uop` is one dynamic instance of an instruction travelling
through the pipeline.  Uops live in the per-context active lists, which
double as the paper's recycling trace storage: each entry carries the
decoded opcode, logical and physical operands, the path's recorded
next-PC, and (after execution) the computed value — everything the
recycle datapath and reuse test need.

Every field is a slot on the object, the hot pipeline ones included:
the state code, the physical sources and destination mapping, and the
scheduler's wakeup counters.  The stage inner loops read and write
them directly (``uop.state_code``, ``uop.src0``, ``uop.wait_count``);
only :attr:`Uop.state` (the :class:`UopState` view over the code) and
:attr:`Uop.phys_srcs` (the source list rebuilt from ``src0`` and ``src1``)
are properties, for the event bus, tracer, CrossChecker and tests.  A
uop's state goes with the uop: once nothing references it, nothing of
it stays behind.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional

from ..branch.predictor import Prediction
from ..isa.instruction import INSTRUCTION_BYTES, Instruction

_seq_counter = itertools.count(1)


class UopState(enum.Enum):
    RENAMED = "renamed"  # in active list, maybe queued
    ISSUED = "issued"  # sent to a functional unit
    COMPLETED = "completed"  # result available
    COMMITTED = "committed"  # architecturally retired
    SQUASHED = "squashed"  # cancelled


#: Integer state codes stored in ``Uop.state_code`` — the stage hot
#: loops compare these instead of enum identities.
ST_RENAMED = 0
ST_ISSUED = 1
ST_COMPLETED = 2
ST_COMMITTED = 3
ST_SQUASHED = 4

#: code -> UopState (the Uop.state property view).
STATE_OBJS = (
    UopState.RENAMED,
    UopState.ISSUED,
    UopState.COMPLETED,
    UopState.COMMITTED,
    UopState.SQUASHED,
)
#: UopState -> code.
STATE_CODES = {obj: code for code, obj in enumerate(STATE_OBJS)}


class Uop:
    """One dynamic instruction instance."""

    __slots__ = (
        "seq",
        "ctx",
        "instance",
        "instr",
        "dec",  # DecodedUop static record (None only outside the pipeline)
        "pc",
        "next_pc",
        "dst",
        "value",
        "eff_addr",
        "store_bits",
        "pred",
        "taken",
        "target",
        "forked_ctx",
        "recycled",
        "reused",
        "reuse_src_ctx",
        "no_execute",
        "rename_cycle",
        "issue_cycle",
        "complete_cycle",
        "back_merge",
        "al_pos",
        # Hot pipeline fields, read and written by the stages directly.
        "state_code",  # ST_* code; ``state`` is its UopState view
        "phys_dst",  # physical destination register or None
        "prev_map",  # displaced mapping (released at commit) or None
        "src0",  # physical source registers, -1 = unused slot
        "src1",
        "nsrcs",
        "wait_count",  # not-yet-issued source producers (scheduler)
        "in_queue",
        "waiters",  # loads parked on this pending store (issue), or None
    )

    def __init__(
        self, instr: Instruction, pc: int, ctx: int, instance, dec=None
    ) -> None:
        self.seq: int = next(_seq_counter)
        self.ctx = ctx
        self.instance = instance
        self.instr = instr
        self.dec = dec
        self.pc = pc
        #: Recorded next PC along the fetched/recycled path (the trace
        #: geometry recycling replays).
        self.next_pc: int = pc + INSTRUCTION_BYTES
        self.dst: Optional[int] = instr.dst
        self.value = None
        self.eff_addr: Optional[int] = None
        self.store_bits: Optional[int] = None
        self.pred: Optional[Prediction] = None
        self.taken: Optional[bool] = None  # resolved direction
        self.target: Optional[int] = None  # resolved target
        self.forked_ctx: Optional[int] = None  # TME alternate spawned here
        self.recycled = False
        self.reused = False
        self.reuse_src_ctx: Optional[int] = None
        self.no_execute = False  # FETCH-policy instructions never issue
        self.rename_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.back_merge = False  # entered via a backward-branch merge
        self.al_pos = -1  # position in the owning context's active list
        self.state_code = ST_RENAMED
        self.phys_dst: Optional[int] = None
        self.prev_map: Optional[int] = None
        self.src0 = -1
        self.src1 = -1
        self.nsrcs = 0
        self.wait_count = 0
        self.in_queue = False
        self.waiters: Optional[List["Uop"]] = None

    @property
    def state(self) -> UopState:
        return STATE_OBJS[self.state_code]

    @state.setter
    def state(self, value: UopState) -> None:
        self.state_code = STATE_CODES[value]

    @property
    def phys_srcs(self) -> List[int]:
        n = self.nsrcs
        if n == 0:
            return []
        if n == 1:
            return [self.src0]
        return [self.src0, self.src1]

    @phys_srcs.setter
    def phys_srcs(self, srcs) -> None:
        assert len(srcs) <= 2, f"more than 2 physical sources: {srcs!r}"
        n = len(srcs)
        self.nsrcs = n
        self.src0 = srcs[0] if n > 0 else -1
        self.src1 = srcs[1] if n > 1 else -1

    @property
    def completed(self) -> bool:
        code = self.state_code
        return code == ST_COMPLETED or code == ST_COMMITTED

    @property
    def squashed(self) -> bool:
        return self.state_code == ST_SQUASHED

    @property
    def executed_on_path(self) -> bool:
        """Did this uop actually produce a result usable for reuse?"""
        return self.completed and not self.no_execute

    def __repr__(self) -> str:  # debug aid
        flags = "".join(
            c
            for c, cond in (
                ("R", self.recycled),
                ("U", self.reused),
                ("N", self.no_execute),
            )
            if cond
        )
        return (
            f"<uop#{self.seq} ctx{self.ctx} {self.pc:#x} {self.instr} "
            f"{self.state.value}{' ' + flags if flags else ''}>"
        )
