"""Issue stage: wake-up/select and execute-at-issue value computation.

Ready uops contend for functional units, primary-path work first ([18]'s
resource-priority recommendation: without it wrong-path work steals
functional units under multiprogramming); issuing computes the real
result on the shared physical register file and schedules completion
after the unit latency plus memory-hierarchy delays.

Selection is event-driven: :meth:`InstructionQueue.take_ready` pops the
incrementally maintained ready pool (oldest first) instead of scanning
the queue, and the memory-ordering check peeks the per-context
pending-store heaps instead of scanning the store buffers.  A ready uop
that finds no unit goes back to the pool for the next cycle.  A load
behind an older store that has not executed is parked on that store's
``waiters`` list; the store's completion or squash (``ResolveStage.run``,
``ResolveStage.squash_uop``) hands it back through
:meth:`InstructionQueue.requeue`.  The issue stream is the one a
per-cycle re-check gives, because the release lands at the first cycle
such a check could pass: completion runs before issue within a cycle,
so a load released there is checked again in that cycle's issue, and a
squash later in the cycle (rename, fetch) releases it for the next.
"""

from __future__ import annotations

from typing import Optional

from ...isa import semantics

_effective_address = semantics.effective_address
_load_value = semantics.load_value
_store_bits = semantics.store_bits
_branch_outcome = semantics.branch_outcome
_compute_value = semantics.compute_value
from ..context import HardwareContext
from ..events import Issued, StoreForwarded
from ..uop import ST_ISSUED, Uop
from ..uopcache import K_ALU, K_BRANCH, K_LOAD, K_STORE
from .state import Stage


class IssueStage(Stage):
    def run(self) -> None:
        state = self.state
        fus = state.fus
        fus.new_cycle()
        cycle = state.cycle
        contexts = self.contexts
        try_issue_code = fus.try_issue_code
        execute = self.execute
        # Contexts whose pre-issue count changed; re-slotted once at the
        # end — the maintained (icount, id) order is a strict total
        # order, so the final arrangement is independent of when each
        # note lands within the stage.
        touched = {}
        for queue in (self.int_queue, self.fp_queue):
            ready = queue.take_ready(cycle)
            if not ready:
                continue
            # Primary-path work first; alternates fill leftover units.
            # Stable split == the old (not primary, seq) sort.
            alts = None
            for u in ready:
                if not contexts[u.ctx].is_primary:
                    if alts is None:
                        alts = [u]
                    else:
                        alts.append(u)
            if alts is not None and len(alts) != len(ready):
                primaries = [u for u in ready if contexts[u.ctx].is_primary]
                primaries.extend(alts)
                ready = primaries
            blocked = None
            for uop in ready:
                # Conservative load ordering: a load waits until every
                # older store has executed.  The check must run *before*
                # try_issue_code so a blocked load never claims a unit slot;
                # it parks on the store that holds it back.
                dec = uop.dec
                if dec.kind == K_LOAD:
                    store = contexts[uop.ctx].older_store_pending(uop.seq)
                    if store is not None:
                        waiters = store.waiters
                        if waiters is None:
                            store.waiters = [uop]
                        else:
                            waiters.append(uop)
                        continue
                if not try_issue_code(dec.fu_code):
                    if blocked is None:
                        blocked = [uop]
                    else:
                        blocked.append(uop)
                    continue
                queue.remove(uop)
                cid = uop.ctx
                uop.in_queue = False
                ctx = contexts[cid]
                ctx.n_queued -= 1
                touched[cid] = ctx
                execute(uop)
            if blocked is not None:
                queue.requeue(blocked)
        if touched:
            note = state.icount_order.note
            # note() only marks the order dirty; the rebuild is a full
            # sort on a strict total order, so visit order here cannot
            # influence the resulting priority list.
            for ctx in touched.values():  # det-ok: order-independent dirty marks
                note(ctx)

    def execute(self, uop: Uop) -> None:
        """Begin execution: compute the result, schedule completion."""
        state = self.state
        uop.state_code = ST_ISSUED
        cycle = state.cycle
        uop.issue_cycle = cycle
        ctx = self.contexts[uop.ctx]
        instr = uop.instr
        dec = uop.dec
        values = self.regfile.values
        # The semantics helpers only index ``srcs``; build the operand
        # tuple straight from the source slots (no list, no
        # ``phys_srcs`` reconstruction).
        n = uop.nsrcs
        if n == 0:
            srcs = ()
        elif n == 1:
            srcs = (values[uop.src0],)
        else:
            srcs = (values[uop.src0], values[uop.src1])
        latency = dec.latency
        kind = dec.kind
        if kind == K_ALU:
            uop.value = _compute_value(instr, srcs, uop.pc)
        elif kind == K_LOAD:
            addr = _effective_address(instr, srcs[0])
            uop.eff_addr = addr
            instance = ctx.instance
            forwarded = self.forward_store(ctx, uop, addr)
            if forwarded is not None:
                uop.value = _load_value(forwarded, dec.dst_fp)
                latency = 1
            else:
                bits = instance.memory.read64(addr)
                uop.value = _load_value(bits, dec.dst_fp)
                latency = 1 + state.hierarchy.data_latency(addr, cycle, instance.id)
            instance.mdb.record_load(uop.pc, addr, token=uop.seq)
        elif kind == K_STORE:
            addr = _effective_address(instr, srcs[0])
            uop.eff_addr = addr
            uop.store_bits = _store_bits(srcs[1], dec.info.src_fp)
            instance = ctx.instance
            state.hierarchy.data_latency(addr, cycle, instance.id)
            instance.mdb.record_store(addr)
        elif kind == K_BRANCH:
            taken, target = _branch_outcome(instr, srcs, uop.pc)
            uop.taken = taken
            uop.target = target
            if dec.is_call:
                uop.value = _compute_value(instr, srcs, uop.pc)
        # K_NONE (halt / nop): nothing to compute.
        pd = uop.phys_dst
        if pd is not None:
            # Bypass network: the result is forwardable ``latency``
            # cycles after issue; dependents may issue then.
            self.regfile.write(pd, uop.value, ready_at=cycle + latency)
        done = cycle + self.config.regread_stages + latency
        completions = state.completions
        lst = completions.get(done)
        if lst is None:
            completions[done] = [uop]
        else:
            lst.append(uop)
        if Issued in self.bus_active:
            self.bus.publish(Issued(cycle, uop))

    def forward_store(self, ctx: HardwareContext, load: Uop, addr: int) -> Optional[int]:
        """Youngest older store to ``addr`` visible to this context."""
        # Re-peeking the pending heaps is O(1) here (the load-ordering
        # check in run() already drained them for this load) and keeps
        # the forwarding index complete even when execute() is driven
        # directly.
        ctx.older_store_pending(load.seq)
        best = ctx.forward_lookup(addr, load.seq)
        if best is None:
            self.state.store_fwd_misses += 1
            return None
        self.state.store_fwd_hits += 1
        if StoreForwarded in self.bus_active:
            self.bus.publish(
                StoreForwarded(self.state.cycle, load, best, addr, ctx)
            )
        return best.store_bits
