"""Rename stage: fetched paths first, recycle streams fill in.

Carries the recycle datapath (Section 3.3-3.4) and instruction reuse
(Section 3.5): streams drain into rename behind each thread's fetched
instructions, conditional branches inside a stream are re-checked
against the predictor, and — when the written-bit array allows it — a
recycled instruction's old physical mapping is re-installed instead of
re-executing.
"""

from __future__ import annotations

from typing import Optional

from ...isa.instruction import Instruction
from ...recycle.stream import RecycleStream, StreamKind, TraceEntry
from ..config import PolicyKind
from ..context import CtxState, HardwareContext, MergePoint
from ..events import Renamed, Reused, StreamEnded
from ..uop import ST_COMMITTED, ST_COMPLETED, ST_SQUASHED, Uop, UopState
from ..uopcache import DecodedUop
from .state import Stage


class RenameStage(Stage):
    def __init__(self, core):
        super().__init__(core)
        # Per-run constants, bound once for the rename hot loop.
        self._policy_fetch = self.config.policy.kind is PolicyKind.FETCH
        self._tme = self.config.features.tme
        pressure = self.config.alt_queue_pressure
        self._int_alt_cap = int(self.int_queue.size * pressure)
        self._fp_alt_cap = int(self.fp_queue.size * pressure)

    def run(self) -> None:
        budget = self.config.rename_width
        state = self.state
        cycle = state.cycle
        resources_ok = self.resources_ok
        rename_one = self.rename_one
        # Fetched instructions, lowest-ICOUNT thread first.  The
        # maintained (icount, id) order replaces the per-cycle sort;
        # snapshot it, since renaming re-slots contexts as it goes.
        ctxs = [c for c in state.icount_order.ordered() if c.decode_buffer]
        for ctx in ctxs:
            if budget <= 0:
                break
            # Program order: a thread with an open stream renames its
            # pre-merge fetched instructions first; the stream follows.
            buf = ctx.decode_buffer
            while budget > 0 and buf:
                fi = buf[0]
                if fi.ready_cycle > cycle or not resources_ok(ctx, fi.dec):
                    break
                buf.popleft()
                rename_one(ctx, fi.dec, fi.next_pc, fi.pred)
                budget -= 1
        # Recycle streams, prioritised by the separate (pre-issue)
        # counter.  Ties must keep stream-creation (dict insertion)
        # order — a stable insertion sort over the tiny snapshot
        # preserves that without a per-cycle sorted() call.
        streams_map = self.streams
        if streams_map:
            streams = list(streams_map.values())
            if len(streams) > 1:
                contexts = self.contexts
                for i in range(1, len(streams)):
                    stream = streams[i]
                    key = contexts[stream.dst_ctx].icount
                    j = i - 1
                    while j >= 0 and contexts[streams[j].dst_ctx].icount > key:
                        streams[j + 1] = streams[j]
                        j -= 1
                    streams[j + 1] = stream
            for stream in streams:
                if budget <= 0:
                    break
                budget = self.drain_stream(stream, budget)
            ended = [cid for cid, s in streams_map.items() if s.ended]  # det-ok: gathers keys to delete; survivors keep their insertion order
            for cid in ended:
                del streams_map[cid]

    def resources_ok(self, ctx: HardwareContext, dec: DecodedUop) -> bool:
        """Room to rename ``dec`` into ``ctx``: an active-list slot, a
        free register for its destination and an issue-queue slot."""
        al = ctx.active_list
        if al.tail_pos - al.commit_pos >= al.capacity:
            return False
        if dec.dst is not None:
            regfile = self.regfile
            pool = regfile._free_fp if dec.dst_fp else regfile._free_int
            if not pool:
                self.core.resolve.reclaim_for_pressure(ctx)
                if not pool:
                    return False
        if dec.fu_fp:
            queue, alt_cap = self.fp_queue, self._fp_alt_cap
        else:
            queue, alt_cap = self.int_queue, self._int_alt_cap
        occ = len(queue._members)
        if occ >= queue.size:
            return False
        # Alternate/inactive paths yield queue space to primaries.
        return occ < alt_cap or ctx.is_primary

    def rename_one(
        self,
        ctx: HardwareContext,
        dec: DecodedUop,
        next_pc: int,
        pred,
        recycled: bool = False,
        back_merge: bool = False,
    ) -> Uop:
        """Rename one fetched or recycled instruction into ``ctx``;
        :meth:`resources_ok` has already reserved its resources."""
        state = self.state
        cycle = state.cycle
        pc = dec.pc
        uop = Uop(dec.instr, pc, ctx.id, ctx.instance, dec)
        uop.next_pc = next_pc
        uop.pred = pred
        uop.rename_cycle = cycle
        if recycled:
            uop.recycled = True
            uop.back_merge = back_merge
        # RenameMap.define / note_register_write, inlined (hot path);
        # physical sources go straight into the source slots.
        table = ctx.map.table
        n = dec.nsrcs
        if n:
            uop.nsrcs = n
            uop.src0 = table[dec.src0]
            if n > 1:
                uop.src1 = table[dec.src1]
        dst = dec.dst
        if dst is not None:
            # Inline of ``regfile.alloc``: resources_ok already made
            # sure the pool is not empty.
            regfile = self.regfile
            fp = dec.dst_fp
            pool = regfile._free_fp if fp else regfile._free_int
            new_reg = pool.pop()
            assert regfile.refcount[new_reg] == 0, f"allocating live register p{new_reg}"
            regfile.refcount[new_reg] = 1
            regfile.ready_cycle[new_reg] = regfile.NEVER
            regfile.values[new_reg] = 0.0 if fp else 0
            regfile.allocations += 1
            uop.phys_dst = new_reg
            uop.prev_map = table[dst]
            table[dst] = new_reg
            ctx.self_written.add(dst)
            if ctx.is_primary:
                partition = ctx.instance.partition
                # written.primary_defined, inlined (one masked |=).
                partition.written._rows[dst] |= partition.spare_mask
        if ctx.state is CtxState.INACTIVE and self._policy_fetch:
            # FETCH-policy contexts keep fetching but stop executing.
            uop.no_execute = True
        else:
            (self.fp_queue if dec.fu_fp else self.int_queue).insert(uop)
            uop.in_queue = True
            ctx.n_queued += 1
        pos = ctx.active_list.append(uop)
        uop.al_pos = pos
        if ctx.first_merge is None:  # inline ctx.note_first_entry
            ctx.first_merge = MergePoint(pc, pos)
            ctx.path_start_pos = pos
        # One re-slot covers both the caller's decode-buffer pop and
        # the queue insert above.
        state.icount_order.note(ctx)
        if dec.is_store:
            ctx.note_store_renamed(uop)
        if dec.is_branch and next_pc is not None:
            if dec.backward and next_pc != dec.seq_next:
                ctx.set_back_merge(dec.target)
        stats = self.stats
        stats.renamed += 1
        if recycled:
            stats.renamed_recycled += 1
        # TME fork decision happens at rename, where the map is current.
        if (
            self._tme
            and pred is not None
            and dec.is_cond_branch
            and pred.low_confidence
            and ctx.is_primary
        ):
            self.core.forker.consider_fork(ctx, uop)
        if Renamed in self.bus_active:
            self.bus.publish(Renamed(cycle, uop))
        return uop

    def note_register_write(self, ctx: HardwareContext, logical: int) -> None:
        ctx.self_written.add(logical)
        partition = ctx.instance.partition
        if ctx.is_primary:
            partition.written.primary_defined(logical, partition.spare_mask)

    # ------------------------------------------------------------------
    # Recycle stream draining (Section 3.4) and reuse (Section 3.5)
    # ------------------------------------------------------------------
    def drain_stream(self, stream: RecycleStream, budget: int) -> int:
        dst = self.contexts[stream.dst_ctx]
        if dst.decode_buffer:
            return budget  # older fetched instructions must clear rename first
        src = self.contexts[stream.src_ctx] if stream.src_ctx is not None else None
        alt_fetch_allowed = self.core.fetch.alt_fetch_allowed
        predictor = self.state.predictor
        repredict = self.config.recycle_repredict
        # The alternate-length cap only ever limits TME alternates;
        # primaries take the no-op fast path without the fetch call.
        check_limit = not dst.is_primary and self._tme
        while budget > 0 and not stream.ended:
            if stream.exhausted():
                self.end_stream(stream, dst, "exhausted")
                break
            entry = stream.peek()
            # Guard against the source trace having been overwritten.
            if src is not None and entry.src_pos is not None:
                live = src.active_list.try_entry(entry.src_pos)
                if live is None or live.pc != entry.pc:
                    self.end_stream(stream, dst, "squashed")
                    break
            instr = entry.instr
            dec = entry.dec
            pred = None
            next_pc = entry.next_pc
            mismatch_target = None
            if dec.is_cond_branch and not repredict:
                # "Former method": keep the trace's recorded direction as
                # the prediction and update the history with it.
                recorded_taken = entry.next_pc != dec.seq_next
                pred = predictor.record_direction(
                    dst.id, entry.pc, recorded_taken,
                    entry.next_pc if recorded_taken else instr.target,
                )
            elif dec.is_branch:
                pred = predictor.predict(dst.id, entry.pc, instr)
                pred_next = (
                    (pred.target if pred.target is not None else entry.next_pc)
                    if pred.taken
                    else dec.seq_next
                )
                if pred_next != entry.next_pc:
                    # The prediction changed since the trace was built:
                    # recycle the branch itself, then stop and fetch the
                    # newly predicted path (the paper's chosen method).
                    next_pc = pred_next
                    mismatch_target = pred_next
            if not self.resources_ok(dst, dec):
                break
            stream.advance()
            # Alternate-path length cap applies to recycled paths too.
            limit_hit = check_limit and not alt_fetch_allowed(dst)
            uop = self.recycle_rename(dst, src, entry, instr, next_pc, pred, stream)
            budget -= 1
            if mismatch_target is not None:
                # The renamed branch follows its *new* prediction, so the
                # stream must stop and fetch continue on that path — even
                # if the length cap was reached on the same entry.
                stream.stop("branch_mismatch")
                self.stats.streams_ended_branch_mismatch += 1
                dst.pc = mismatch_target
                dst.fetch_stall_until = max(
                    dst.fetch_stall_until, self.state.cycle + 1
                )
                if self.bus.wants(StreamEnded):
                    self.bus.publish(
                        StreamEnded(
                            self.state.cycle, dst, stream,
                            "branch_mismatch", stream.index,
                        )
                    )
            elif limit_hit or dec.is_halt:
                self.end_stream(stream, dst, "exhausted")
            if limit_hit or dec.is_halt:
                dst.fetch_stopped = True
        return budget

    def kill_stream(self, ctx: HardwareContext) -> None:
        """Abort ``ctx``'s incoming stream, rewinding its fetch PC.

        The PC was parked at the end of the trace when the stream
        opened; if the stream dies early the not-yet-injected tail must
        be fetched the normal way, so fetch resumes at the successor of
        the last instruction the stream actually delivered.  (Callers
        that redirect the PC themselves simply override this.)
        """
        stream = self.streams.pop(ctx.id, None)
        if stream is not None and not stream.ended:
            stream.stop("squashed")
            self.stats.streams_ended_squashed += 1
            ctx.pc = stream.resume_pc()
            if self.bus.wants(StreamEnded):
                self.bus.publish(
                    StreamEnded(self.state.cycle, ctx, stream, "squashed", stream.index)
                )

    def end_stream(
        self, stream: RecycleStream, dst: HardwareContext, reason: str
    ) -> None:
        stream.stop(reason)
        if reason == "exhausted":
            self.stats.streams_ended_exhausted += 1
            dst.pc = stream.resume_pc()
        else:
            self.stats.streams_ended_squashed += 1
            dst.pc = stream.resume_pc()
        if self.bus.wants(StreamEnded):
            self.bus.publish(
                StreamEnded(self.state.cycle, dst, stream, reason, stream.index)
            )

    def recycle_rename(
        self,
        dst: HardwareContext,
        src: Optional[HardwareContext],
        entry: TraceEntry,
        instr: Instruction,
        next_pc: int,
        pred,
        stream: RecycleStream,
    ) -> Uop:
        # Attempt reuse before the normal rename allocates a register.
        if stream.reuse_allowed and src is not None:
            reuse_uop = self.reuse_candidate(dst, src, entry, stream)
            if reuse_uop is not None:
                return self.rename_reused(dst, src, reuse_uop, entry, stream)
        uop = self.rename_one(
            dst,
            entry.dec,
            next_pc,
            pred,
            recycled=True,
            back_merge=stream.kind is StreamKind.BACK,
        )
        # Track stream-local value consistency: a re-executed entry whose
        # sources all matched the trace produces the trace's value again.
        if instr.dst is not None:
            consistent_writes = stream.consistent_writes
            consistent = src is not None
            if consistent:
                written = dst.instance.partition.written
                src_id = src.id
                for s in instr.srcs:
                    if s not in consistent_writes and not written.unchanged_for(
                        s, src_id
                    ):
                        consistent = False
                        break
            if consistent and not instr.info.is_load:
                consistent_writes.add(instr.dst)
            else:
                consistent_writes.discard(instr.dst)
        return uop

    def reuse_candidate(
        self,
        dst: HardwareContext,
        src: HardwareContext,
        entry: TraceEntry,
        stream: RecycleStream,
    ) -> Optional[Uop]:
        """The live source uop, if its old result may be reused."""
        if entry.src_pos is None:
            return None
        if src.state is not CtxState.INACTIVE:
            # Reuse applies to finished (inactive) threads only (Section 3.5).
            return None
        uop = src.active_list.try_entry(entry.src_pos)
        if uop is None or uop.pc != entry.pc:
            return None
        code = uop.state_code
        if code == ST_SQUASHED:
            return None
        instr = uop.instr
        oi = instr.info
        if instr.dst is None or oi.is_store or oi.is_branch:
            return None
        # Inline of uop.executed_on_path.
        if (
            (code != ST_COMPLETED and code != ST_COMMITTED)
            or uop.no_execute
            or uop.phys_dst is None
        ):
            return None
        consistent_writes = stream.consistent_writes
        written = dst.instance.partition.written
        src_id = src.id
        for s in instr.srcs:
            if s not in consistent_writes and not written.unchanged_for(s, src_id):
                return None
        if oi.is_load:
            if uop.eff_addr is None:
                return None
            if not dst.instance.mdb.can_reuse(uop.pc, uop.eff_addr, token=uop.seq):
                return None
            # The MDB orders loads and stores by *wall-clock* execution,
            # but reuse validity is a *program-order* question: a store
            # architecturally older than this reuse point may have
            # executed before the original load ever ran (so it never
            # invalidated the entry), or may not have an address yet.
            # Sound rule: only reuse a load when every store visible to
            # the destination context has fully committed (its MDB
            # invalidation, done again at retirement, has then landed).
            if dst.has_live_stores():
                return None
        return uop

    def rename_reused(
        self,
        dst: HardwareContext,
        src: HardwareContext,
        src_uop: Uop,
        entry: TraceEntry,
        stream: RecycleStream,
    ) -> Uop:
        """Reuse: install the old mapping; skip queue and execution."""
        bus = self.bus
        # Snapshot the consistency set *before* this reuse mutates it —
        # subscribers judge the reuse against the pre-install set.
        consistent = (
            frozenset(stream.consistent_writes) if bus.wants(Reused) else None
        )
        instr = src_uop.instr
        uop = Uop(instr, entry.pc, dst.id, dst.instance, entry.dec)
        uop.next_pc = entry.next_pc
        uop.recycled = True
        uop.reused = True
        uop.reuse_src_ctx = src.id
        uop.rename_cycle = self.state.cycle
        uop.phys_srcs = [dst.map.lookup(s) for s in instr.srcs]
        uop.phys_dst = src_uop.phys_dst
        uop.prev_map = dst.map.install(instr.dst, src_uop.phys_dst)
        uop.value = src_uop.value
        uop.eff_addr = src_uop.eff_addr
        uop.state = UopState.COMPLETED
        uop.complete_cycle = self.state.cycle
        pos = dst.active_list.append(uop)
        uop.al_pos = pos
        dst.note_first_entry(uop, pos)
        src.reuse_pins.add(uop.seq)
        # The mapping is old, but the *value* of the destination logical
        # register did change relative to every other retained path's
        # fork point — mark the written bits like any primary write.
        # The stream-local consistency set keeps this trace's own
        # dependent reuses alive.
        self.note_register_write(dst, instr.dst)
        stream.consistent_writes.add(instr.dst)
        stats = self.stats
        stats.renamed += 1
        stats.renamed_recycled += 1
        stats.renamed_reused += 1
        if instr.info.is_load:
            stats.renamed_reused_loads += 1
        # Decanting breakdown (Coppieters et al.): reuse hits by
        # instruction class and loop membership.
        key = uop.dec.decant_key
        rbc = stats.reused_by_class
        rbc[key] = rbc.get(key, 0) + 1
        if bus.wants(Renamed):
            bus.publish(Renamed(self.state.cycle, uop))
        if consistent is not None:
            bus.publish(
                Reused(
                    self.state.cycle, uop, dst, src, entry.pc,
                    tuple(instr.srcs), consistent, stream,
                )
            )
        return uop
