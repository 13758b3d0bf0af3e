"""Per-context active lists (reorder buffers) that double as trace storage.

The paper's central hardware observation: the active list already holds
decoded instructions of a predicted path, so keeping entries around
after they commit (or after their thread stops) turns it into a small
trace cache for free.  We model it as a ring of ``capacity`` entries
addressed by monotonically increasing *positions*:

* ``commit_pos .. tail_pos`` — uncommitted window.  Its size bounds how
  many instructions the context may have in flight (rename stalls when
  the window is full).
* ``start_pos .. tail_pos`` — retained window: committed/finished
  entries stay until the ring wraps over them.  Merge points and
  recycle streams reference positions; a position below ``start_pos``
  has been overwritten and is no longer recyclable (this is how "only
  loops smaller than the current active lists benefit from backward
  branch recycling" falls out).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .uop import Uop


class ActiveList:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._ring: List[Optional[Uop]] = [None] * capacity
        self.start_pos = 0
        self.commit_pos = 0
        self.tail_pos = 0

    # ------------------------------------------------------------------
    @property
    def uncommitted(self) -> int:
        return self.tail_pos - self.commit_pos

    @property
    def retained(self) -> int:
        return self.tail_pos - self.start_pos

    def has_room(self) -> bool:
        """May rename insert another entry?

        Requires both a free uncommitted slot and that the entry the
        ring would overwrite is not still awaiting commit.
        """
        return self.tail_pos - self.commit_pos < self.capacity

    def append(self, uop: Uop) -> int:
        """Insert at the tail; returns the entry's position.

        Overwrites the oldest retained entry when the ring is full —
        callers must treat previously returned positions ``<
        start_pos`` as gone.
        """
        pos = self.tail_pos
        capacity = self.capacity
        assert pos - self.commit_pos < capacity, "active list overflow"
        if pos - self.start_pos >= capacity:
            self.start_pos += 1
        self._ring[pos % capacity] = uop
        self.tail_pos = pos + 1
        return pos

    def entry(self, pos: int) -> Uop:
        assert self.start_pos <= pos < self.tail_pos, f"stale position {pos}"
        return self._ring[pos % self.capacity]

    def try_entry(self, pos: int) -> Optional[Uop]:
        if self.start_pos <= pos < self.tail_pos:
            return self._ring[pos % self.capacity]
        return None

    # ------------------------------------------------------------------
    def oldest_uncommitted(self) -> Optional[Uop]:
        if self.commit_pos >= self.tail_pos:
            return None
        return self._ring[self.commit_pos % self.capacity]

    def advance_commit(self) -> Uop:
        """Retire the oldest uncommitted entry (stays retained)."""
        uop = self.oldest_uncommitted()
        assert uop is not None, "commit from empty window"
        self.commit_pos += 1
        return uop

    def truncate(self, pos: int) -> List[Uop]:
        """Drop entries ``pos .. tail`` (a squash); returns them youngest first."""
        assert pos >= self.commit_pos, "cannot squash committed entries"
        dropped = []
        for p in range(self.tail_pos - 1, pos - 1, -1):
            if p >= self.start_pos:
                dropped.append(self._ring[p % self.capacity])
        self.tail_pos = pos
        if self.start_pos > self.tail_pos:
            self.start_pos = self.tail_pos
        if self.commit_pos > self.tail_pos:
            self.commit_pos = self.tail_pos
        return dropped

    def retained_positions(self) -> Iterator[int]:
        return iter(range(self.start_pos, self.tail_pos))

    def find_pc(self, pc: int) -> Optional[int]:
        """Position of the oldest retained entry at ``pc`` (merge-point setup)."""
        for pos in range(self.start_pos, self.tail_pos):
            if self._ring[pos % self.capacity].pc == pc:
                return pos
        return None

    def clear(self) -> None:
        """Reset to empty (context reclaim)."""
        self._ring = [None] * self.capacity
        self.start_pos = self.commit_pos = self.tail_pos = 0

    def __len__(self) -> int:
        return self.retained
