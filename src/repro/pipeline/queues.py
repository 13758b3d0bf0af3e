"""Instruction queues and functional-unit accounting.

Two queues (integer and floating point, 21264-style, 64 entries each in
the big machine) hold renamed uops until their source physical
registers are ready.  Issue selects oldest-first across all contexts,
bounded by functional-unit availability: ``int_units`` integer units of
which ``ldst_ports`` may perform loads/stores, and ``fp_units`` FP
units, all fully pipelined (new op each cycle).

Readiness is tracked *event-driven* rather than by rescanning every
entry every cycle:

* At :meth:`InstructionQueue.insert`, sources whose producer has not
  issued yet (``ready_cycle == NEVER``) register the uop on the
  register file's per-register waiter list and are counted in
  ``uop.wait_count``.  Sources with a concrete ready cycle need no
  event — the uop goes straight onto the *due* heap keyed by the
  latest of those cycles.
* :meth:`PhysicalRegisterFile.write` (the single point where a
  register goes ready) drains the waiter list; a uop whose last
  pending source just got a ready cycle is re-keyed onto the due heap
  at ``max(ready_cycle[src] for src in srcs)``.
* :meth:`take_ready` moves due entries whose cycle has arrived into a
  seq-ordered ready heap and pops them oldest-first — exactly the old
  scan's ``ready_cycle[p] <= cycle`` condition, without the scan.

Removal is O(1): membership lives in an insertion-ordered dict and the
heaps drop stale entries lazily when popped.  A uop removed twice is a
scheduler bug, so :meth:`remove` asserts instead of swallowing it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List

from .regfile import PhysicalRegisterFile
from .uop import ST_RENAMED, Uop


class InstructionQueue:
    """One issue queue; selection is oldest-ready-first, event-driven."""

    def __init__(self, name: str, size: int, regfile: PhysicalRegisterFile):
        self.name = name
        self.size = size
        self.regfile = regfile
        #: Resident uops (insertion-ordered; the single source of truth
        #: for membership — heap entries are validated against it).
        self._members: Dict[Uop, None] = {}
        #: (ready_at, seq, uop) — register-complete uops waiting for
        #: their latest source's ready cycle to arrive.
        self._due: List = []
        #: (seq, uop) — uops whose sources are all ready now.
        self._ready: List = []

    # -- capacity ------------------------------------------------------
    def has_room(self) -> bool:
        return len(self._members) < self.size

    def __contains__(self, uop: Uop) -> bool:
        return uop in self._members

    # -- insert / remove -------------------------------------------------
    def insert(self, uop: Uop) -> None:
        assert len(self._members) < self.size, f"{self.name} queue overflow"
        self._members[uop] = None
        regfile = self.regfile
        ready_cycles = regfile.ready_cycle
        never = regfile.NEVER
        pending = 0
        latest = 0
        # Unrolled over the (at most two) source slots — the hot path
        # allocates no list.
        n = uop.nsrcs
        if n:
            src = uop.src0
            rc = ready_cycles[src]
            if rc == never:
                regfile.add_waiter(src, self, uop)
                pending = 1
            elif rc > latest:
                latest = rc
            if n > 1:
                src = uop.src1
                rc = ready_cycles[src]
                if rc == never:
                    regfile.add_waiter(src, self, uop)
                    pending += 1
                elif rc > latest:
                    latest = rc
        uop.wait_count = pending
        if not pending:
            heappush(self._due, (latest, uop.seq, uop))

    def remove(self, uop: Uop) -> None:
        """Drop ``uop`` from the queue.  Removing a uop that is not
        resident is a scheduler bug (double removal), not a no-op."""
        try:
            del self._members[uop]
        except KeyError:
            raise AssertionError(
                f"{self.name} queue: removing non-resident uop {uop!r}"
            ) from None

    def clear(self) -> None:
        self._members.clear()
        self._due.clear()
        self._ready.clear()

    # -- event-driven readiness ----------------------------------------
    def _wake(self, uop: Uop) -> None:
        """One pending source of ``uop`` got its ready cycle."""
        wc = uop.wait_count - 1
        uop.wait_count = wc
        if wc:
            return
        if uop not in self._members or uop.state_code != ST_RENAMED:
            return  # stale waiter: the uop issued or was squashed/dequeued
        ready_cycles = self.regfile.ready_cycle
        latest = 0
        n = uop.nsrcs
        rc = ready_cycles[uop.src0]
        if rc > latest:
            latest = rc
        if n > 1:
            rc = ready_cycles[uop.src1]
            if rc > latest:
                latest = rc
        heappush(self._due, (latest, uop.seq, uop))

    def take_ready(self, cycle: int) -> List[Uop]:
        """Uops whose sources are ready at ``cycle``, oldest first.

        Readiness uses per-register ready cycles, modelling the bypass
        network: a dependent may issue as soon as its producer's result
        is forwardable, not when it reaches the register file.  The
        caller owns the returned uops: it issues them (``remove``),
        gives back the ones that found no unit (``requeue``), or parks a
        load behind an older pending store on that store's ``waiters``
        list, and the store's release calls ``requeue``.  A parked load
        is therefore returned once per release, not once per stalled
        cycle.
        """
        due = self._due
        ready = self._ready
        while due and due[0][0] <= cycle:
            entry = heappop(due)
            heappush(ready, (entry[1], entry[2]))
        out = []
        members = self._members
        while ready:
            uop = heappop(ready)[1]
            if uop in members and uop.state_code == ST_RENAMED:
                out.append(uop)
        return out

    def requeue(self, uops: List[Uop]) -> None:
        """Put ready uops back in the pool for the next ``take_ready``:
        the ones that found no unit this cycle, and the loads a store
        releases when it executes or is squashed.  Entries that left the
        queue meanwhile are dropped when popped."""
        ready = self._ready
        for uop in uops:
            heappush(ready, (uop.seq, uop))


class FunctionalUnits:
    """Per-cycle issue-slot accounting for the three unit classes."""

    def __init__(self, int_units: int, fp_units: int, ldst_ports: int):
        self.int_units = int_units
        self.fp_units = fp_units
        self.ldst_ports = ldst_ports
        self._int_used = 0
        self._fp_used = 0
        self._ldst_used = 0

    def new_cycle(self) -> None:
        self._int_used = 0
        self._fp_used = 0
        self._ldst_used = 0

    def try_issue_code(self, code: int) -> bool:
        """Claim a unit for the decoded-uop ``fu_code`` (``FU_*`` in
        :mod:`repro.pipeline.uopcache`); False when none is left this
        cycle.  Checks are ordered by dynamic frequency."""
        if code == 0:  # FU_INT (and FU_NONE falls through to int below)
            if self._int_used < self.int_units:
                self._int_used += 1
                return True
            return False
        if code == 2:  # FU_LDST: an integer unit with a memory port
            if self._ldst_used < self.ldst_ports and self._int_used < self.int_units:
                self._ldst_used += 1
                self._int_used += 1
                return True
            return False
        if code == 1:  # FU_FP
            if self._fp_used < self.fp_units:
                self._fp_used += 1
                return True
            return False
        # FU_NONE (halt/nop shapes) claims an integer slot.
        if self._int_used < self.int_units:
            self._int_used += 1
            return True
        return False
