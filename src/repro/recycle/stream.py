"""Recycle streams: the datapath from an active list back into rename.

When a merge point matches, a stream is opened that reads instructions
from the *source* trace (an alternate/inactive context's active list,
the thread's own list for backward-branch merges, or a detached trace
buffer for re-spawns) and re-injects them into the *destination*
context at the rename stage, up to rename bandwidth each cycle
(Section 3.3-3.4).
"""

from __future__ import annotations

import enum
from dataclasses import field
from typing import List, Optional

from ..compat import slots_dataclass as _slots_dataclass
from ..isa.instruction import Instruction


@_slots_dataclass
class TraceEntry:
    """The static payload recycling needs from one active-list entry."""

    instr: Instruction
    pc: int
    next_pc: int  # recorded path successor
    src_pos: Optional[int] = None  # position in the source active list
    #: Decoded-uop record carried over from the source uop, so stream
    #: draining re-injects without re-decoding.
    dec: Optional[object] = None


class StreamKind(enum.Enum):
    ALTERNATE = "alternate"  # alternate/inactive trace → primary
    SELF_FIRST = "self_first"  # primary's own list, first-PC match
    BACK = "back"  # backward-branch merge, own list
    RESPAWN = "respawn"  # detached trace → re-activated alternate


@_slots_dataclass
class RecycleStream:
    kind: StreamKind
    dst_ctx: int
    src_ctx: Optional[int]  # None for detached (re-spawn) sources
    entries: List[TraceEntry] = field(default_factory=list)
    index: int = 0
    #: May instructions from this stream reuse old results?  Only
    #: alternate→primary recycling qualifies (Section 3.5).
    reuse_allowed: bool = False
    ended: bool = False
    end_reason: Optional[str] = None
    #: Logical registers whose *current* destination-context value is
    #: known to equal the source trace's value at the current stream
    #: position: destinations of reused entries, and of re-executed
    #: entries whose sources were themselves consistent.  Lets reuse
    #: chains survive the conservative global written-bit marking.
    consistent_writes: set = field(default_factory=set)

    @property
    def remaining(self) -> int:
        return 0 if self.ended else len(self.entries) - self.index

    def peek(self) -> Optional[TraceEntry]:
        if self.ended or self.index >= len(self.entries):
            return None
        return self.entries[self.index]

    def advance(self) -> TraceEntry:
        entry = self.entries[self.index]
        self.index += 1
        return entry

    def exhausted(self) -> bool:
        return self.index >= len(self.entries)

    def resume_pc(self) -> int:
        """Where fetch continues when the stream ends normally.

        The recorded successor of the last recycled entry — "the PC of
        the instruction after the last instruction in the active list".
        """
        if self.index == 0:
            return self.entries[0].pc
        return self.entries[self.index - 1].next_pc

    def stop(self, reason: str) -> None:
        self.ended = True
        self.end_reason = reason
