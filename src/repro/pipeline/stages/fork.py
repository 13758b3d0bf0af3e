"""TME forking and trace re-spawning (Sections 2 and 3.1).

The fork decision fires from rename (where the map is current): a
low-confidence primary conditional branch forks its not-predicted path
onto a spare context with a duplicated map.  With recycling + RS, a
matching *inactive* trace is re-activated through the recycle datapath
instead of being re-fetched.
"""

from __future__ import annotations

from ...isa.instruction import INSTRUCTION_BYTES
from ...recycle.stream import RecycleStream, StreamKind
from ..context import CtxState, HardwareContext
from ..events import Forked, Respawned
from ..uop import ST_COMMITTED, Uop
from .state import Stage


class ForkUnit(Stage):
    def consider_fork(self, ctx: HardwareContext, branch: Uop) -> None:
        partition = ctx.instance.partition
        pred = branch.pred
        alt_pc = (
            branch.pc + INSTRUCTION_BYTES if pred.taken else branch.instr.target
        )
        if alt_pc is None:
            return
        if self.config.features.recycle:
            existing = partition.find_path_with_start(alt_pc)
            if existing is not None:
                if self.config.features.respawn:
                    # RS: re-activate a matching inactive trace through
                    # the recycle datapath; if that trace is pinned (or
                    # the match is a still-active alternate covering an
                    # older dynamic instance), fork normally so this
                    # instance stays covered — the paper's Table 1 keeps
                    # ~70% miss coverage *with* recycling.
                    if existing.state is CtxState.INACTIVE and self.core.resolve.reclaimable(
                        existing
                    ):
                        self.respawn(ctx, branch, existing, alt_pc)
                        return
                else:
                    # Plain REC keeps the strict no-duplicate-start rule,
                    # whose cost the paper calls out explicitly.
                    self.stats.fork_suppressed_duplicate += 1
                    return
        spare = partition.idle_context()
        if spare is None and self.config.features.recycle:
            victim = self.core.resolve.lru_reclaimable(partition)
            if victim is not None:
                self.stats.reclaim_for_spawn += 1
                self.core.resolve.reclaim_context(victim)
                spare = victim
        if spare is None:
            return
        self.spawn(ctx, branch, spare, alt_pc)

    def spawn(
        self,
        parent: HardwareContext,
        branch: Uop,
        spare: HardwareContext,
        alt_pc: int,
    ) -> None:
        """Fork the not-predicted path of ``branch`` onto ``spare``."""
        partition = parent.instance.partition
        spare.state = CtxState.ACTIVE
        spare.is_primary = False
        spare.instance = parent.instance
        spare.map.fork_from(parent.map)
        spare.pc = alt_pc
        spare.fetch_stopped = False
        spare.fetch_stall_until = self.state.cycle + self.config.spawn_latency
        spare.fork_uop = branch
        spare.parent_ctx = parent.id
        spare.alt_fetched = 0
        spare.path_start_pos = spare.active_list.tail_pos
        spare.first_merge = None
        spare.back_merge = None
        spare.self_written = set()
        # Seq-ascending by construction: every inherited store predates
        # the parent's own (adoption happened before the parent renamed
        # any store), which keeps the pending heap valid as built.
        #
        # Only in-flight stores are visible to the child: a committed
        # store's value is already in instance memory (retire writes
        # memory before marking the uop committed), a squashed one never
        # happened, and neither is ever returned by forward_lookup or
        # counted by older_store_pending/has_live_stores.  The parent's
        # own list is pruned in place with the same test, so a
        # long-lived context's inheritance stays window-bounded instead
        # of accreting the whole run's store history across fork
        # generations.
        parent.inherited_stores = inh = [
            s for s in parent.inherited_stores if s.state_code < ST_COMMITTED
        ]
        stores = inh + [
            s for s in parent.store_buffer if s.state_code < ST_COMMITTED
        ]
        spare.adopt_inherited_stores(stores)
        self.state.predictor.fork_context(
            parent.id, spare.id, cond_branch=True, alt_taken=not branch.pred.taken
        )
        partition.written.start_path(spare.id)
        branch.forked_ctx = spare.id
        self.stats.forks += 1
        if self.bus.wants(Forked):
            self.bus.publish(Forked(self.state.cycle, parent, spare, branch, alt_pc))

    def respawn(
        self,
        parent: HardwareContext,
        branch: Uop,
        existing: HardwareContext,
        alt_pc: int,
    ) -> None:
        """Re-activate an inactive trace through the recycle path (RS)."""
        uops, next_pcs = self.core.fetch.snapshot_trace(existing, existing.path_start_pos)
        if not uops or uops[0].pc != alt_pc:
            self.stats.fork_suppressed_duplicate += 1
            return
        existing.was_respawned = True
        self.core.resolve.reclaim_context(existing)
        self.spawn(parent, branch, existing, alt_pc)
        # The reclaim squashed the trace in its ring, so the stream is
        # detached: it replays the snapshot taken before.
        stream = RecycleStream(
            kind=StreamKind.RESPAWN,
            dst_ctx=existing.id,
            src_ctx=None,
            uops=uops,
            next_pcs=next_pcs,
            reuse_allowed=False,
        )
        self.streams[existing.id] = stream
        existing.pc = next_pcs[-1]
        # Counted and published on success only — an aborted re-spawn
        # (stale trace) forks nothing and leaves no stream.
        self.stats.respawns += 1
        self.stats.respawn_streams += 1
        if self.bus.wants(Respawned):
            self.bus.publish(
                Respawned(self.state.cycle, parent, existing, branch, alt_pc)
            )
