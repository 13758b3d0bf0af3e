"""Context partitions for Threaded Multipath Execution.

The Mapping Synchronization Bus partitions the machine's hardware
contexts into groups, each with one primary thread and zero or more
spare contexts for alternate paths (Section 2).  A partition also owns
the written-bit array its reuse tests consult.
"""

from __future__ import annotations

from typing import List, Optional

from ..pipeline.context import CtxState, HardwareContext
from ..recycle.written_bits import WrittenBitArray


class Partition:
    def __init__(self, contexts: List[HardwareContext], primary: HardwareContext):
        if primary not in contexts:
            raise ValueError("primary must belong to the partition")
        self.contexts = contexts
        self.primary = primary
        self.written = WrittenBitArray(num_contexts=8)
        #: Bitmask and list of the non-primary contexts; membership is
        #: fixed, so these only change when primaryship moves
        #: (set_primary).  Callers treat ``spares()`` as read-only.
        self.spare_mask = 0
        self._spares: List[HardwareContext] = []
        self._recompute_spares()

    def _recompute_spares(self) -> None:
        mask = 0
        spares = []
        for ctx in self.contexts:
            if ctx is not self.primary:
                mask |= 1 << ctx.id
                spares.append(ctx)
        self.spare_mask = mask
        self._spares = spares

    def spares(self) -> List[HardwareContext]:
        return self._spares

    def idle_context(self) -> Optional[HardwareContext]:
        for ctx in self.spares():
            if ctx.state is CtxState.IDLE:
                return ctx
        return None

    def inactive_contexts(self) -> List[HardwareContext]:
        return [c for c in self.spares() if c.state is CtxState.INACTIVE]

    def lru_inactive(self, allow_pinned: bool = False) -> Optional[HardwareContext]:
        """Least-recently-deactivated context, skipping reuse-pinned ones."""
        candidates = [
            c
            for c in self.inactive_contexts()
            if allow_pinned or c.pending_reuse == 0
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.inactive_since)

    def find_path_with_start(self, pc: int) -> Optional[HardwareContext]:
        """An alternate/inactive context whose path starts at ``pc``.

        Used both for the no-duplicate-spawn rule and for re-spawning.
        """
        for ctx in self.spares():
            if ctx.state in (CtxState.ACTIVE, CtxState.INACTIVE) and not ctx.is_primary:
                if ctx.merge_point_valid(ctx.first_merge) and ctx.first_merge.pc == pc:
                    return ctx
        return None

    def set_primary(self, ctx: HardwareContext) -> None:
        if ctx not in self.contexts:
            raise ValueError("new primary must belong to the partition")
        self.primary = ctx
        self._recompute_spares()
