"""Completion stage: branch resolution, TME recovery, squash machinery.

Everything that happens when execution results come back lives here —
resolving branches against their predictions, deactivating or promoting
forked alternates (primaryship swaps thread the architectural commit
stream across contexts), squash-and-redirect recovery, and the
reclaim machinery that returns inactive traces to the idle pool.
"""

from __future__ import annotations

from typing import Optional

from ...isa.instruction import INSTRUCTION_BYTES
from ...isa.opcodes import FuClass
from ...tme.partition import Partition
from ..config import PolicyKind
from ..context import CtxState, HardwareContext, MergePoint
from ..events import BranchResolved, Completed, PrimarySwapped, Squashed, StreamEnded
from ..uop import ST_COMMITTED, ST_COMPLETED, ST_SQUASHED, Uop
from .state import Stage


class ResolveStage(Stage):
    def run(self) -> None:
        state = self.state
        due = state.completions.pop(state.cycle, None)
        if due is None:
            return
        cycle = state.cycle
        wants_completed = Completed in self.bus_active
        contexts = self.contexts
        for uop in due:
            if uop.state_code == ST_SQUASHED:
                continue
            uop.state_code = ST_COMPLETED
            uop.complete_cycle = cycle
            dec = uop.dec
            if dec.is_store:
                contexts[uop.ctx].note_store_completed(uop)
                if uop.waiters is not None:
                    self.release_waiters(uop)
            if wants_completed:
                self.bus.publish(Completed(cycle, uop))
            if dec.is_branch:
                self.resolve_branch(uop)

    def resolve_branch(self, uop: Uop) -> None:
        ctx = self.contexts[uop.ctx]
        actual_next = uop.target if uop.taken else uop.pc + INSTRUCTION_BYTES
        mispredicted = self.state.predictor.resolve(
            uop.pc, uop.instr, uop.pred, uop.taken, uop.target
        ) if uop.pred is not None else (actual_next != uop.next_pc)
        on_arch_path = self.on_architectural_path(ctx, uop)
        alt = self.covering_alternate(uop) if uop.forked_ctx is not None else None
        # Mispredict counters are maintained inline (branches resolve
        # thousands of times per run; a guarded publish for observers
        # stays below).
        stats = self.stats
        if on_arch_path and uop.instr.info.is_cond_branch:
            stats.cond_branches_resolved += 1
            if mispredicted:
                stats.mispredicts += 1
        if mispredicted and on_arch_path and alt is not None:
            stats.mispredicts_covered += 1
        if BranchResolved in self.bus_active:
            self.bus.publish(
                BranchResolved(
                    self.state.cycle,
                    uop,
                    ctx,
                    mispredicted,
                    on_arch_path,
                    uop.instr.is_cond_branch,
                    mispredicted and on_arch_path and alt is not None,
                )
            )
        if not mispredicted:
            uop.next_pc = actual_next
            if alt is not None:
                self.deactivate_alternate(alt)
            return
        # --- mispredicted ---------------------------------------------
        if not on_arch_path:
            # A branch inside a retained (inactive) trace or a doomed
            # path: record nothing further; the trace stays as recorded.
            if ctx.state is CtxState.ACTIVE:
                self.local_mispredict(ctx, uop, actual_next, alt)
            return
        if alt is not None:
            self.swap_primaryship(ctx, uop, alt)
        else:
            self.local_mispredict(ctx, uop, actual_next, None)

    def on_architectural_path(self, ctx: HardwareContext, uop: Uop) -> bool:
        """Is ``uop`` part of its program's believed-correct stream?"""
        if ctx.instance is None:
            return False
        if ctx.is_primary and ctx.state is CtxState.ACTIVE:
            return True
        # Prefix of a context in the commit chain.
        if ctx.commit_limit_pos is not None and uop.al_pos < ctx.commit_limit_pos:
            return True
        return False

    def commit_pinned(self, ctx: HardwareContext) -> bool:
        """Does ``ctx`` still hold (or forward) uncommitted architectural work?

        Such a context is part of its program's commit chain and must
        not be reclaimed, re-spawned, or squashed for reuse until the
        chain has moved past it.
        """
        inst = ctx.instance
        if inst is None:
            return False
        return inst.commit_ctx == ctx.id or ctx.commit_successor is not None

    def reclaimable(self, ctx: HardwareContext) -> bool:
        """May ``ctx`` be reclaimed (squashed back to IDLE) right now?"""
        if ctx.state is not CtxState.INACTIVE:
            return False
        if ctx.pending_reuse > 0 or self.commit_pinned(ctx):
            return False
        if ctx.id in self.streams:
            return False
        return all(s.src_ctx != ctx.id for s in self.streams.values())  # det-ok: order-independent predicate

    def covering_alternate(self, uop: Uop) -> Optional[HardwareContext]:
        forked = uop.forked_ctx
        if forked is None:
            return None
        alt = self.contexts[forked]
        if alt.fork_uop is uop:
            return alt
        return None

    def local_mispredict(
        self,
        ctx: HardwareContext,
        uop: Uop,
        actual_next: int,
        alt: Optional[HardwareContext],
    ) -> None:
        """Squash-and-redirect recovery within one context.

        Used for unforked mispredicts on the primary, for alternates'
        own internal mispredicts, and (with chain dismantling) for
        architectural mispredicts whose covering alternate is gone.
        """
        if self.on_architectural_path(ctx, uop):
            self.dismantle_chain_after(ctx)
        if alt is not None:
            # The alternate covered the branch but we are not swapping
            # (non-architectural fork): discard it.
            self.squash_context(alt)
        uop.next_pc = actual_next
        self.squash_suffix(ctx, uop.al_pos)
        if uop.pred is not None:
            self.state.predictor.recover(ctx.id, uop.pred, uop.instr, uop.taken, uop.pc)
        if ctx.state is CtxState.INACTIVE:
            # The context was in the commit chain; it resumes as primary.
            self.reactivate_as_primary(ctx)
        ctx.pc = actual_next
        ctx.fetch_stopped = False
        ctx.fetch_stall_until = max(ctx.fetch_stall_until, self.state.cycle + 1)
        ctx.commit_limit_pos = None
        ctx.commit_successor = None

    def reactivate_as_primary(self, ctx: HardwareContext) -> None:
        instance = ctx.instance
        partition = instance.partition
        old_primary = self.contexts[instance.primary_ctx]
        if old_primary is not ctx and old_primary.state is CtxState.ACTIVE:
            # Should have been dismantled already; be safe.
            self.squash_context(old_primary)
        ctx.state = CtxState.ACTIVE
        ctx.is_primary = True
        ctx.inactive_since = -1
        partition.set_primary(ctx)
        instance.primary_ctx = ctx.id
        for logical in ctx.self_written:
            partition.written.primary_defined(logical, partition.spare_mask)

    def dismantle_chain_after(self, ctx: HardwareContext) -> None:
        """Squash every context downstream of ``ctx`` in the commit chain."""
        nxt = ctx.commit_successor
        ctx.commit_successor = None
        ctx.commit_limit_pos = None
        while nxt is not None:
            c = self.contexts[nxt]
            nxt = c.commit_successor
            self.squash_context(c)

    # ------------------------------------------------------------------
    # TME resolution outcomes
    # ------------------------------------------------------------------
    def deactivate_alternate(self, alt: HardwareContext) -> None:
        """Fork branch was predicted correctly: the alternate path stops.

        Plain TME squashes it; with recycling it becomes an *inactive*
        context retained for merging (Section 3.1).
        """
        if not self.config.features.recycle:
            self.squash_context(alt)
            return
        alt.state = CtxState.INACTIVE
        alt.inactive_since = self.state.cycle
        policy = self.config.policy
        self.core.rename.kill_stream(alt)  # e.g. a re-spawn stream still feeding it
        if policy.kind is PolicyKind.STOP:
            alt.fetch_stopped = True
            alt.decode_buffer.clear()
        if policy.kind is not PolicyKind.NOSTOP:
            # STOP and FETCH both cease execution at resolution.
            self.dequeue_unissued(alt)
        # FETCH: keeps fetching (rename marks new uops no-execute).
        # NOSTOP: keeps fetching and executing until the limit.

    def dequeue_unissued(self, ctx: HardwareContext) -> None:
        """Pull a deactivated context's unissued uops out of the queues.

        The entries stay in the active list (still recyclable — "that
        may even be true for instructions that have not been ... executed
        yet"), they just never execute.
        """
        for pos in ctx.active_list.retained_positions():
            uop = ctx.active_list.try_entry(pos)
            if uop is not None and uop.in_queue:
                (self.fp_queue if uop.instr.info.fu is FuClass.FP else self.int_queue).remove(uop)
                uop.in_queue = False
                uop.no_execute = True
                ctx.n_queued -= 1
        self.state.icount_order.note(ctx)

    def swap_primaryship(
        self, old: HardwareContext, branch: Uop, alt: HardwareContext
    ) -> None:
        """Fork branch mispredicted: the alternate becomes the primary."""
        instance = old.instance
        partition = instance.partition
        self.dismantle_chain_after(old)
        # Squash forks hanging off the (wrong-path) suffix, then either
        # retain the suffix as an inactive trace (REC) or squash it (TME).
        suffix_start = branch.al_pos + 1
        if self.config.features.recycle:
            self.detach_suffix_children(old, suffix_start)
            self.dequeue_suffix(old, suffix_start)
            old.first_merge = self.suffix_merge_point(old, suffix_start)
            old.path_start_pos = suffix_start
            old.back_merge = None
            old.state = CtxState.INACTIVE
            old.inactive_since = self.state.cycle
            old.self_written = set()
            partition.written.start_path(old.id)
            old.alt_fetched = max(0, old.active_list.tail_pos - suffix_start)
            if self.config.policy.kind is PolicyKind.STOP:
                old.fetch_stopped = True
                old.decode_buffer.clear()
            else:
                old.fetch_stopped = old.alt_fetched >= self.config.policy.limit
                if old.fetch_stopped:
                    old.decode_buffer.clear()
        else:
            self.squash_suffix(old, branch.al_pos)
            old.state = CtxState.INACTIVE  # reclaimed once its prefix commits
            old.inactive_since = self.state.cycle
            old.fetch_stopped = True
            old.decode_buffer.clear()
        self.state.icount_order.note(old)
        old.is_primary = False
        old.commit_limit_pos = branch.al_pos + 1
        old.commit_successor = alt.id
        self.core.rename.kill_stream(old)
        # Promote the alternate.
        alt.is_primary = True
        alt.fork_uop = None
        alt.parent_ctx = None
        alt.alt_fetched = 0
        alt.fetch_stopped = False
        alt.fetch_stall_until = max(alt.fetch_stall_until, self.state.cycle + 1)
        partition.set_primary(alt)
        instance.primary_ctx = alt.id
        # Written-bit accounting: the new primary's own post-fork writes
        # must be visible as "changed" to every other retained path.
        for logical in alt.self_written:
            partition.written.primary_defined(logical, partition.spare_mask)
        branch.next_pc = branch.target if branch.taken else branch.pc + INSTRUCTION_BYTES
        old.was_used_tme = True
        self.stats.forks_used_tme += 1
        if self.bus.wants(PrimarySwapped):
            self.bus.publish(PrimarySwapped(self.state.cycle, old, alt, branch))

    def detach_suffix_children(self, ctx: HardwareContext, from_pos: int) -> None:
        for pos in range(from_pos, ctx.active_list.tail_pos):
            uop = ctx.active_list.try_entry(pos)
            if uop is None or uop.forked_ctx is None:
                continue
            child = self.covering_alternate(uop)
            if child is not None:
                self.squash_context(child)
                uop.forked_ctx = None

    def dequeue_suffix(self, ctx: HardwareContext, from_pos: int) -> None:
        if self.config.policy.kind is PolicyKind.NOSTOP:
            return
        for pos in range(from_pos, ctx.active_list.tail_pos):
            uop = ctx.active_list.try_entry(pos)
            if uop is not None and uop.in_queue:
                (self.fp_queue if uop.instr.info.fu is FuClass.FP else self.int_queue).remove(uop)
                uop.in_queue = False
                uop.no_execute = True
                ctx.n_queued -= 1
        self.state.icount_order.note(ctx)

    def suffix_merge_point(self, ctx: HardwareContext, pos: int) -> Optional[MergePoint]:
        uop = ctx.active_list.try_entry(pos)
        if uop is None:
            return None
        return MergePoint(uop.pc, pos)

    # ------------------------------------------------------------------
    # Squash machinery
    # ------------------------------------------------------------------
    def squash_uop(self, uop: Uop) -> None:
        ctx = self.contexts[uop.ctx]
        dec = uop.dec
        if uop.in_queue:
            (self.fp_queue if dec.fu_fp else self.int_queue).remove(uop)
            uop.in_queue = False
            ctx.n_queued -= 1
            self.state.icount_order.note(ctx)
        if uop.phys_dst is not None:
            ctx.map.restore(dec.dst, uop.prev_map)
        if uop.reused and uop.reuse_src_ctx is not None:
            self.contexts[uop.reuse_src_ctx].reuse_pins.discard(uop.seq)
        if dec.is_store:
            try:
                ctx.store_buffer.remove(uop)
            except ValueError:
                pass
            ctx.fwd_index_discard(uop)
            if uop.waiters is not None:
                self.release_waiters(uop)
        if uop.forked_ctx is not None:
            child = self.covering_alternate(uop)
            if child is not None:
                self.squash_context(child)
        uop.state_code = ST_SQUASHED
        self.stats.squashed += 1  # inline: squashes are a hot path under TME
        if Squashed in self.bus_active:
            self.bus.publish(Squashed(self.state.cycle, uop))

    def release_waiters(self, store: Uop) -> None:
        """``store`` executed or was squashed: hand the loads parked on
        it back to the int queue (loads use the LDST units), which
        re-checks their memory order at its next ``take_ready``."""
        self.int_queue.requeue(store.waiters)
        store.waiters = None

    def squash_suffix(self, ctx: HardwareContext, branch_pos: int) -> int:
        """Squash everything in ``ctx`` younger than position ``branch_pos``.

        Returns the number of squashed uops; with a nonzero
        ``squash_penalty_per_uop`` the context's fetch is additionally
        stalled to model walk-back map recovery.
        """
        dropped = ctx.active_list.truncate(branch_pos + 1)
        count = 0
        squash = self.squash_uop
        for uop in dropped:  # youngest first
            if uop.state_code != ST_SQUASHED:
                squash(uop)
                count += 1
        ctx.decode_buffer.clear()
        self.state.icount_order.note(ctx)
        self.core.rename.kill_stream(ctx)  # callers redirect the PC afterwards
        penalty = self.config.squash_penalty_per_uop
        if penalty and count:
            ctx.fetch_stall_until = max(
                ctx.fetch_stall_until, self.state.cycle + 1 + int(count * penalty)
            )
        # Merge points referencing squashed positions die via validity checks.
        return count

    def squash_context(self, ctx: HardwareContext) -> None:
        """Fully discard a context's path and return it to IDLE."""
        if ctx.state is CtxState.IDLE:
            return
        if ctx.fork_uop is not None:
            self.account_deleted_path(ctx)
        stream = self.streams.pop(ctx.id, None)
        if stream is not None:
            stream.stop("squashed")
            # Historically uncounted in streams_ended_squashed; the bus
            # still reports it so subscribers see every stream's end.
            if self.bus.wants(StreamEnded):
                self.bus.publish(
                    StreamEnded(
                        self.state.cycle, ctx, stream, "squashed", stream.index
                    )
                )
        ring = ctx.active_list
        squash = self.squash_uop
        for pos in range(ring.tail_pos - 1, ring.commit_pos - 1, -1):
            uop = ring.try_entry(pos)
            if uop is not None:
                code = uop.state_code
                if code != ST_SQUASHED and code != ST_COMMITTED:
                    squash(uop)
        if ctx.map.valid:
            ctx.map.discard()
        ctx.reset_for_reclaim()
        self.state.icount_order.note(ctx)

    def reclaim_context(self, ctx: HardwareContext) -> None:
        """Reclaim an inactive context: squash its trace, free its registers."""
        assert ctx.state is CtxState.INACTIVE, f"reclaim of {ctx}"
        assert ctx.pending_reuse == 0, "reclaiming a reuse-pinned context"
        assert not self.commit_pinned(ctx), "reclaiming a commit-chain context"
        self.squash_context(ctx)

    def lru_reclaimable(self, partition: Partition) -> Optional[HardwareContext]:
        candidates = [c for c in partition.inactive_contexts() if self.reclaimable(c)]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.inactive_since)

    def reclaim_for_pressure(self, requesting: HardwareContext) -> None:
        """Free registers by reclaiming an LRU inactive context."""
        if not self.config.features.recycle:
            return
        partitions = [requesting.instance.partition] + [
            p for p in self.state.partitions if p is not requesting.instance.partition
        ]
        for partition in partitions:
            victim = self.lru_reclaimable(partition)
            if victim is not None and victim is not requesting:
                self.stats.reclaim_for_pressure += 1
                self.reclaim_context(victim)
                return

    def account_deleted_path(self, ctx: HardwareContext) -> None:
        self.stats.alt_paths_deleted += 1
        if ctx.was_recycled:
            self.stats.alt_paths_recycled += 1
            self.stats.alt_path_merge_total += ctx.merge_count
        if ctx.was_respawned:
            self.stats.alt_paths_respawned += 1
