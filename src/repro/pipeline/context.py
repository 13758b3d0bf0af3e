"""Hardware contexts and their lifecycle.

A TME/Recycle context is *idle* (empty, synchronised, ready to spawn),
*active* (running the primary or an alternate path), or *inactive*
(finished executing but retained — its active list and registers are
kept for recycling until the context is reclaimed).  Section 3.1.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from ..branch.predictor import Prediction
from .active_list import ActiveList
from .rename import RenameMap
from .uop import ST_COMMITTED, ST_COMPLETED, ST_SQUASHED, Uop


class CtxState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"
    INACTIVE = "inactive"


@dataclass(slots=True)
class FetchedInstr:
    """One instruction sitting in a context's fetch/decode buffer.

    Slotted: one is allocated per fetched instruction, on the fetch
    hot path.
    """

    next_pc: int  # predicted successor (the recorded path geometry)
    pred: Optional[Prediction]
    ready_cycle: int  # earliest cycle rename may consume it
    #: Predigested static record from the decoded-uop cache; rename
    #: reads it instead of re-classifying the instruction.
    dec: Optional[object] = None


@dataclass(slots=True)
class MergePoint:
    """A recyclable trace entry point: (pc to match, active-list position)."""

    pc: int
    pos: int


class HardwareContext:
    """All per-context state outside the shared structures."""

    def __init__(self, ctx_id: int, regfile, active_list_size: int):
        self.id = ctx_id
        self.map = RenameMap(regfile)
        self.active_list = ActiveList(active_list_size)
        self.state = CtxState.IDLE
        self.is_primary = False
        self.instance = None  # ProgramInstance
        # Fetch state -----------------------------------------------------
        self.pc: int = 0
        self.fetch_stall_until: int = 0
        self.fetch_stopped = False  # halted, off-text, or policy-stopped
        # Outstanding I-fetch fill: the block at ``fill_pc`` is delivered
        # to the fetch unit at ``fill_ready`` even if the line is evicted
        # meanwhile (prevents thrash livelock between contexts).
        self.fill_pc: int = -1
        self.fill_ready: int = 0
        self.decode_buffer: Deque[FetchedInstr] = deque()
        # Execution bookkeeping -------------------------------------------
        self.store_buffer: List[Uop] = []  # own in-flight stores
        self.inherited_stores: List[Uop] = []  # pre-fork stores of the parent
        self.n_queued = 0  # renamed-but-not-issued uops (ICOUNT)
        # Store-path indexes (all lazily pruned; see STORE-INDEX
        # invariants in docs/PERFORMANCE.md) --------------------------------
        #: Min-heaps of (seq, store) for not-yet-executed stores, split
        #: own/inherited.  ``older_store_pending`` peeks the oldest
        #: entry instead of scanning both buffers per load attempt.
        self._own_pending: List[Tuple[int, Uop]] = []
        self._inh_pending: List[Tuple[int, Uop]] = []
        #: Completed stores visible to this context, per effective
        #: address, each list seq-ascending — the forwarding index.
        self._fwd_index: Dict[int, List[Uop]] = {}
        #: Stack (seq-ascending) of every store visible to this context;
        #: lazily popped once committed/squashed.  Non-empty == at least
        #: one store is still architecturally in flight (reuse gate).
        self._live_stores: List[Uop] = []
        # Scheduler bookkeeping --------------------------------------------
        self.fetch_mark = -1  # cycle-stamped fetch-candidate marker
        # TME state --------------------------------------------------------
        self.fork_uop: Optional[Uop] = None  # branch this alternate covers
        self.parent_ctx: Optional[int] = None
        self.alt_fetched = 0  # instructions fetched along this alternate path
        self.path_start_pos = 0  # active-list position where this path began
        # Commit chain (architectural stream handover) ----------------------
        self.commit_limit_pos: Optional[int] = None
        self.commit_successor: Optional[int] = None
        # Recycling state ----------------------------------------------------
        self.first_merge: Optional[MergePoint] = None
        self.back_merge: Optional[MergePoint] = None
        self.inactive_since = -1
        #: Sequence numbers of in-flight primary-path uops that reuse
        #: this context's register mappings — the context is pinned
        #: (unreclaimable) until they retire or squash.  A set keyed by
        #: uop seq makes pin release idempotent across squash orderings.
        self.reuse_pins: set = set()
        self.was_used_tme = False
        self.was_recycled = False
        self.was_respawned = False
        self.merge_count = 0  # non-back merges served from this path
        #: Logical registers written since this context's path started —
        #: folded into the written-bit array at primaryship swaps.
        self.self_written: set = set()

    # ------------------------------------------------------------------
    @property
    def is_alternate(self) -> bool:
        return self.state is CtxState.ACTIVE and not self.is_primary

    @property
    def pending_reuse(self) -> int:
        """Outstanding reuses of this context's mappings by the primary."""
        return len(self.reuse_pins)

    @property
    def icount(self) -> int:
        """Pre-issue instruction count (ICOUNT fetch priority)."""
        return len(self.decode_buffer) + self.n_queued

    # ------------------------------------------------------------------
    def merge_point_valid(self, mp: Optional[MergePoint]) -> bool:
        if mp is None:
            return False
        uop = self.active_list.try_entry(mp.pos)
        return (
            uop is not None
            and uop.pc == mp.pc
            and uop.state_code != ST_SQUASHED
        )

    def set_back_merge(self, target_pc: int) -> None:
        """Record the target of the last backward branch (Section 3.2)."""
        pos = self.active_list.find_pc(target_pc)
        if pos is not None:
            self.back_merge = MergePoint(target_pc, pos)
        else:
            self.back_merge = None

    def note_first_entry(self, uop: Uop, pos: int) -> None:
        if self.first_merge is None:
            self.first_merge = MergePoint(uop.pc, pos)
            self.path_start_pos = pos

    # ------------------------------------------------------------------
    # Store-path indexes (memory ordering, forwarding, reuse gating)
    # ------------------------------------------------------------------
    def note_store_renamed(self, uop: Uop) -> None:
        """An own store entered the window: track it in every index."""
        self.store_buffer.append(uop)
        heappush(self._own_pending, (uop.seq, uop))
        self._live_stores.append(uop)

    def note_store_completed(self, uop: Uop) -> None:
        """An own store executed: it becomes forwardable at its address."""
        self._index_completed_store(uop)

    def adopt_inherited_stores(self, stores: List[Uop]) -> None:
        """Install the fork-time snapshot of the parent's visible stores.

        ``stores`` is seq-ascending (parent program order), so it is
        already a valid min-heap and a valid live-stores stack.
        """
        self.inherited_stores = stores
        self._inh_pending = [(s.seq, s) for s in stores]
        self._fwd_index = {}
        self._own_pending = []
        self._live_stores = list(stores)

    def older_store_pending(self, seq: int) -> Optional[Uop]:
        """A visible store older than ``seq`` that is still un-executed,
        or None when there is none.

        Equivalent to the old linear scan for a store with
        ``store.seq < seq and not squashed and not completed`` over
        ``store_buffer + inherited_stores``; here the pending heaps are
        pruned to their oldest still-pending entry and peeked.  The
        store returned is the one a blocked load waits on: the load can
        pass no earlier than that store executes or is squashed.
        """
        heap = self._own_pending
        while heap:
            top = heap[0]
            store = top[1]
            if store.state_code < ST_COMPLETED:  # renamed/issued
                if top[0] < seq:
                    return store
                break
            heappop(heap)  # completed/committed/squashed: done pending
        heap = self._inh_pending
        while heap:
            top = heap[0]
            store = top[1]
            code = store.state_code
            if code < ST_COMPLETED:  # renamed/issued
                if top[0] < seq:
                    return store
                break
            heappop(heap)
            if code == ST_COMPLETED:
                # Drained past an executed inherited store: it becomes
                # forwardable here (own stores arrive via the resolve
                # hook; inherited ones as the load window passes them).
                self._index_completed_store(store)
        return None

    def _index_completed_store(self, store: Uop) -> None:
        lst = self._fwd_index.get(store.eff_addr)
        if lst is None:
            self._fwd_index[store.eff_addr] = [store]
            return
        seq = store.seq
        lo, hi = 0, len(lst)
        while lo < hi:
            mid = (lo + hi) // 2
            if lst[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        lst.insert(lo, store)

    def forward_lookup(self, addr: int, seq: int) -> Optional[Uop]:
        """Youngest completed store to ``addr`` older than ``seq``.

        Stale index entries (committed or squashed since insertion) are
        skipped by state; they are garbage-collected at retire/squash.
        """
        lst = self._fwd_index.get(addr)
        if lst is None:
            return None
        lo, hi = 0, len(lst)
        while lo < hi:
            mid = (lo + hi) // 2
            if lst[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        for i in range(lo - 1, -1, -1):
            store = lst[i]
            if store.state_code == ST_COMPLETED:
                return store
        return None

    def fwd_index_discard(self, store: Uop) -> None:
        """Drop an own store's index entry (no-op if never indexed)."""
        lst = self._fwd_index.get(store.eff_addr)
        if lst is None:
            return
        seq = store.seq
        lo, hi = 0, len(lst)
        while lo < hi:
            mid = (lo + hi) // 2
            if lst[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(lst) and lst[lo] is store:
            del lst[lo]
            if not lst:
                del self._fwd_index[store.eff_addr]

    def has_live_stores(self) -> bool:
        """Any visible store not yet committed (and not squashed)?

        The stack is pruned from the youngest end: commit retires
        stores oldest-first, so a committed top implies everything
        below it is committed or squashed too.
        """
        stack = self._live_stores
        while stack:
            top = stack[-1]
            if top.state_code >= ST_COMMITTED:  # committed/squashed
                stack.pop()
            else:
                return True
        return False

    # ------------------------------------------------------------------
    def reset_for_reclaim(self) -> None:
        """Return to IDLE after the core has released all resources."""
        self.active_list.clear()
        self.state = CtxState.IDLE
        self.is_primary = False
        self.instance = None
        self.decode_buffer.clear()
        self.store_buffer.clear()
        self.inherited_stores.clear()
        self._own_pending.clear()
        self._inh_pending.clear()
        self._fwd_index.clear()
        self._live_stores.clear()
        self.n_queued = 0
        self.fork_uop = None
        self.parent_ctx = None
        self.alt_fetched = 0
        self.path_start_pos = 0
        self.commit_limit_pos = None
        self.commit_successor = None
        self.first_merge = None
        self.back_merge = None
        self.inactive_since = -1
        self.reuse_pins = set()
        self.was_used_tme = False
        self.was_recycled = False
        self.was_respawned = False
        self.merge_count = 0
        self.self_written = set()
        self.fetch_stopped = False
        self.fetch_stall_until = 0
        self.fill_pc = -1
        self.fill_ready = 0

    def __repr__(self) -> str:
        role = "P" if self.is_primary else ("A" if self.is_alternate else "-")
        return f"<ctx{self.id} {self.state.value}/{role} pc={self.pc:#x}>"


def _icount_key(ctx: HardwareContext):
    # The (icount, id) fetch/rename priority; ids break ties, so this
    # is a strict total order and the sorted list is unique.
    return (len(ctx.decode_buffer) + ctx.n_queued, ctx.id)


class IcountOrder:
    """Contexts kept sorted by ``(icount, id)``, resorted lazily.

    ICOUNT changes at a handful of well-known points (fetch delivers,
    rename consumes/queues, issue/squash dequeue); each such point
    calls :meth:`note`, which merely marks the order dirty.  The next
    :meth:`ordered` read sorts the (tiny) context list once.  The key
    is a strict total order (ids break ties), so the result equals
    what the old per-cycle stable sorts produced -- no matter how many
    mutations landed between reads.
    """

    __slots__ = ("_order", "_dirty")

    def __init__(self, contexts: List[HardwareContext]):
        self._order = list(contexts)  # all icounts 0 -> id order is sorted
        self._dirty = False

    def ordered(self) -> List[HardwareContext]:
        """The live, sorted list.  Callers must not mutate it, and must
        snapshot (e.g. filter into a new list) before fetching/renaming,
        since those actions re-enter :meth:`note`."""
        if self._dirty:
            self._order.sort(key=_icount_key)
            self._dirty = False
        return self._order

    def note(self, ctx: HardwareContext) -> None:
        """Mark the order stale after ``ctx``'s icount may have changed."""
        self._dirty = True
