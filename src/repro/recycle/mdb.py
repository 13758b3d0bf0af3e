"""Memory Disambiguation Buffer (Section 3.5).

Tracks loads whose values are still valid for reuse: executing a load
records ``(load PC → effective address)``; executing a store to that
address removes the entry.  A recycled load may reuse its old value
only if its PC is still present *with the same address* (the
address-register-unchanged test is done separately via the written-bit
array).

Finite capacity with FIFO replacement models the hardware table.

:meth:`MemoryDisambiguationBuffer.probe` reports *why* a reuse check
failed — store conflict, capacity eviction, a stale re-execution, or
the load never being seen — so the cross-checker's R2 rule and the
miss-attribution counters can tell replacement pressure apart from
genuine memory dependences.  The reason tracking is pure bookkeeping
on the side: table contents, replacement order and the hit/miss
outcome are bit-identical to the plain boolean interface.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import Dict, Optional, Tuple


class MdbProbe(enum.Enum):
    """Outcome of one reuse check, with the miss attributed."""

    HIT = "hit"  # entry present, same address, same dynamic instance
    STORE_CONFLICT = "store-conflict"  # a store to the address killed it
    EVICTED = "evicted"  # lost to FIFO capacity replacement
    STALE = "stale"  # present, but a later execution re-recorded it
    ABSENT = "absent"  # the load was never recorded (or cleared)


class MemoryDisambiguationBuffer:
    """Entries are (load PC → (address, token)).

    The optional ``token`` (the executing uop's sequence number in the
    pipeline) ties an entry to one *dynamic* execution of the load:
    reuse validates the exact instance whose value would be reused, so
    a later re-execution of the same static load cannot re-validate a
    stale older trace.
    """

    def __init__(self, entries: int = 64):
        self.entries = entries
        self._table: "OrderedDict[int, Tuple[int, Optional[int]]]" = OrderedDict()
        #: why a PC is *not* in the table (last removal wins); bounded
        #: by the number of static load PCs ever recorded
        self._gone: Dict[int, MdbProbe] = {}
        self.inserts = 0
        self.store_invalidations = 0
        self.reuse_hits = 0
        self.reuse_misses = 0
        #: miss attribution, keyed by MdbProbe.value (stable order)
        self.miss_reasons: Dict[str, int] = {
            MdbProbe.STORE_CONFLICT.value: 0,
            MdbProbe.EVICTED.value: 0,
            MdbProbe.STALE.value: 0,
            MdbProbe.ABSENT.value: 0,
        }

    def record_load(self, load_pc: int, address: int, token: Optional[int] = None) -> None:
        """A load executed: (re)install its entry."""
        if load_pc in self._table:
            self._table.move_to_end(load_pc)
        elif len(self._table) >= self.entries:
            victim, _ = self._table.popitem(last=False)
            self._gone[victim] = MdbProbe.EVICTED
        self._table[load_pc] = (address, token)
        self._gone.pop(load_pc, None)
        self.inserts += 1

    def record_store(self, address: int) -> None:
        """A store executed/retired: kill load entries matching its address."""
        stale = [pc for pc, (addr, _) in self._table.items() if addr == address]  # det-ok: collects keys for deletion; order-independent
        for pc in stale:
            del self._table[pc]
            self._gone[pc] = MdbProbe.STORE_CONFLICT
            self.store_invalidations += 1

    def probe(self, load_pc: int, address: int, token: Optional[int] = None) -> MdbProbe:
        """Reuse check with the miss reason attributed.

        Exactly one counter pair moves per call (hit, or miss plus its
        reason), so callers may treat this as *the* check — the boolean
        :meth:`can_reuse` is a thin wrapper.
        """
        entry = self._table.get(load_pc)
        if entry is not None and entry == (address, token):
            self.reuse_hits += 1
            return MdbProbe.HIT
        self.reuse_misses += 1
        if entry is not None:
            reason = MdbProbe.STALE
        else:
            reason = self._gone.get(load_pc, MdbProbe.ABSENT)
        self.miss_reasons[reason.value] += 1
        return reason

    def can_reuse(self, load_pc: int, address: int, token: Optional[int] = None) -> bool:
        """Is the old value of this *instance* of the load still valid?"""
        return self.probe(load_pc, address, token) is MdbProbe.HIT

    def lookup(self, load_pc: int) -> Optional[int]:
        entry = self._table.get(load_pc)
        return entry[0] if entry is not None else None

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()
        self._gone.clear()
