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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from ..pipeline.uop import Uop


class StreamKind(enum.Enum):
    ALTERNATE = "alternate"  # alternate/inactive trace → primary
    SELF_FIRST = "self_first"  # primary's own list, first-PC match
    BACK = "back"  # backward-branch merge, own list
    RESPAWN = "respawn"  # detached trace → re-activated alternate


@dataclass(slots=True)
class RecycleStream:
    kind: StreamKind
    dst_ctx: int
    src_ctx: Optional[int]  # None for detached (re-spawn) sources
    #: The source trace's uops, held by reference: a uop's ``pc``,
    #: ``instr`` and ``dec`` never change once it is built.
    uops: List[Uop]
    #: Each uop's recorded path successor, copied when the stream opens:
    #: resolution may still rewrite a source branch's ``next_pc``.
    next_pcs: List[int]
    #: Source active-list position of ``uops[0]``; None for detached
    #: sources, whose ring no longer holds the trace.
    first_pos: Optional[int] = None
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

    def resume_pc(self) -> int:
        """Where fetch continues when the stream ends normally.

        The recorded successor of the last recycled entry — "the PC of
        the instruction after the last instruction in the active list".
        """
        if self.index == 0:
            return self.uops[0].pc
        return self.next_pcs[self.index - 1]

    def stop(self, reason: str) -> None:
        self.ended = True
        self.end_reason = reason
