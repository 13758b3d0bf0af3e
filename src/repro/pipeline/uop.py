"""In-flight instruction records (micro-ops), structure-of-arrays.

A :class:`Uop` is one dynamic instance of an instruction travelling
through the pipeline.  Uops live in the per-context active lists, which
double as the paper's recycling trace storage: each entry carries the
decoded opcode, logical and physical operands, the path's recorded
next-PC, and (after execution) the computed value — everything the
recycle datapath and reuse test need.

The *hot* per-uop fields — pipeline state, physical operands, the
destination mapping and the scheduler's wakeup counters — do not live
on the object.  They live in :class:`UopColumns`, parallel arrays
keyed by a dense per-core uop id and owned by
:class:`~repro.pipeline.stages.state.CoreState`.  The stage inner
loops index the columns directly (no attribute chasing, batchable
later); the :class:`Uop` object is a thin *view* exposing the same
attribute API as before through properties, so the event bus, tracer,
CrossChecker and tests are unchanged.

Ids are allocated densely and never recycled within a run: every
structure that may hold a stale reference (completion lists, store
heaps, the forwarding index, register-file waiter lists) validates
entries by reading the uop's state, and a recycled slot would alias a
live uop's state onto a dead reference.  Column growth is therefore
O(total renamed uops per run) — bounded by the commit target in
practice — and a generation-tagged free list can be layered in when
the lockstep-batch sweep needs long-lived cores.
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


#: Integer state codes stored in ``UopColumns.state`` — the stage hot
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


class UopColumns:
    """Parallel columns for every Uop's hot fields, keyed by uop id.

    One instance per :class:`CoreState` (never a module global): a
    future lockstep-batch sweep steps many cores by walking each
    core's columns as flat arrays.
    """

    __slots__ = (
        "state",  # ST_* codes
        "phys_dst",  # physical destination register or None
        "prev_map",  # displaced mapping (released at commit) or None
        "src0",  # physical source registers, -1 = unused slot
        "src1",
        "src2",
        "nsrcs",
        "wait_count",  # not-yet-issued source producers (scheduler)
        "in_queue",
        "n",
    )

    def __init__(self) -> None:
        self.state: List[int] = []
        self.phys_dst: List[Optional[int]] = []
        self.prev_map: List[Optional[int]] = []
        self.src0: List[int] = []
        self.src1: List[int] = []
        self.src2: List[int] = []
        self.nsrcs: List[int] = []
        self.wait_count: List[int] = []
        self.in_queue: List[bool] = []
        self.n = 0

    def alloc(self) -> int:
        """Append one zeroed row; returns the new dense uop id."""
        uid = self.n
        self.n = uid + 1
        self.state.append(ST_RENAMED)
        self.phys_dst.append(None)
        self.prev_map.append(None)
        self.src0.append(-1)
        self.src1.append(-1)
        self.src2.append(-1)
        self.nsrcs.append(0)
        self.wait_count.append(0)
        self.in_queue.append(False)
        return uid

    def srcs_of(self, uid: int) -> List[int]:
        """The physical source list for ``uid`` (view reconstruction)."""
        n = self.nsrcs[uid]
        if n == 0:
            return []
        if n == 1:
            return [self.src0[uid]]
        if n == 2:
            return [self.src0[uid], self.src1[uid]]
        return [self.src0[uid], self.src1[uid], self.src2[uid]]


class Uop:
    """One dynamic instruction instance — a view over the core's columns."""

    __slots__ = (
        "seq",
        "uid",  # dense id into ``cols``
        "cols",  # owning UopColumns (CoreState's, or a private one)
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
    )

    def __init__(
        self, instr: Instruction, pc: int, ctx: int, instance, cols=None, dec=None
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
        if cols is None:
            # Standalone construction (tests, tools): a private
            # single-row column set keeps the view API identical.
            cols = UopColumns()
        self.cols = cols
        # Inline of ``cols.alloc`` — one call per renamed uop.
        uid = cols.n
        cols.n = uid + 1
        self.uid = uid
        cols.state.append(ST_RENAMED)
        cols.phys_dst.append(None)
        cols.prev_map.append(None)
        cols.src0.append(-1)
        cols.src1.append(-1)
        cols.src2.append(-1)
        cols.nsrcs.append(0)
        cols.wait_count.append(0)
        cols.in_queue.append(False)

    # ------------------------------------------------------------------
    # Hot-field views over the columns (the historical attribute API)
    # ------------------------------------------------------------------
    @property
    def state(self) -> UopState:
        return STATE_OBJS[self.cols.state[self.uid]]

    @state.setter
    def state(self, value: UopState) -> None:
        self.cols.state[self.uid] = STATE_CODES[value]

    @property
    def phys_dst(self) -> Optional[int]:
        return self.cols.phys_dst[self.uid]

    @phys_dst.setter
    def phys_dst(self, value: Optional[int]) -> None:
        self.cols.phys_dst[self.uid] = value

    @property
    def prev_map(self) -> Optional[int]:
        return self.cols.prev_map[self.uid]

    @prev_map.setter
    def prev_map(self, value: Optional[int]) -> None:
        self.cols.prev_map[self.uid] = value

    @property
    def phys_srcs(self) -> List[int]:
        return self.cols.srcs_of(self.uid)

    @phys_srcs.setter
    def phys_srcs(self, srcs) -> None:
        assert len(srcs) <= 3, f"more than 3 physical sources: {srcs!r}"
        cols = self.cols
        uid = self.uid
        n = len(srcs)
        cols.nsrcs[uid] = n
        cols.src0[uid] = srcs[0] if n > 0 else -1
        cols.src1[uid] = srcs[1] if n > 1 else -1
        cols.src2[uid] = srcs[2] if n > 2 else -1

    @property
    def wait_count(self) -> int:
        return self.cols.wait_count[self.uid]

    @wait_count.setter
    def wait_count(self, value: int) -> None:
        self.cols.wait_count[self.uid] = value

    @property
    def in_queue(self) -> bool:
        return self.cols.in_queue[self.uid]

    @in_queue.setter
    def in_queue(self, value: bool) -> None:
        self.cols.in_queue[self.uid] = value

    # ------------------------------------------------------------------
    @property
    def completed(self) -> bool:
        code = self.cols.state[self.uid]
        return code == ST_COMPLETED or code == ST_COMMITTED

    @property
    def squashed(self) -> bool:
        return self.cols.state[self.uid] == ST_SQUASHED

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
