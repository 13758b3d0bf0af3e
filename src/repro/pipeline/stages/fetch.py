"""Fetch stage, including merge-point detection (Sections 3.2-3.3).

Fetches sequential blocks per context in ICOUNT order, and — with
recycling enabled — checks every fetch PC against the merge-point tables
(first PCs of spare traces, own backward-branch targets) to open recycle
streams instead of re-fetching.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...recycle.stream import RecycleStream, StreamKind
from ..context import CtxState, FetchedInstr, HardwareContext, MergePoint
from ..events import FetchBlock, StreamOpened
from ..uop import ST_SQUASHED, Uop
from .state import Stage


class FetchStage(Stage):
    # ==================================================================
    # Fetch (with merge detection)
    # ==================================================================
    def run(self) -> None:
        cfg = self.config
        state = self.state
        cycle = state.cycle
        # The eligibility pass (including merge detection, which opens
        # streams) runs in context-id order — stream creation order is
        # observable through rename's tie-breaking — and marks the
        # survivors with the cycle number.
        streams = self.streams
        recycle = cfg.features.recycle
        decode_cap = cfg.decode_buffer_size
        n_candidates = 0
        for ctx in self.contexts:
            # Fetch eligibility.  INACTIVE contexts may keep fetching
            # under the FETCH/NOSTOP policies (Section 5.2);
            # ``fetch_stopped`` gates them.  The side-effectful
            # ``try_merge`` stays last so streams only open for contexts
            # that could actually fetch.
            cstate = ctx.state
            if (
                (cstate is CtxState.ACTIVE or cstate is CtxState.INACTIVE)
                and not ctx.fetch_stopped
                and cycle >= ctx.fetch_stall_until
                and len(ctx.decode_buffer) < decode_cap
                and ctx.id not in streams
                and not (ctx.instance and ctx.instance.halted)
                and not (recycle and self.try_merge(ctx))
            ):
                ctx.fetch_mark = cycle
                n_candidates += 1
        if not n_candidates:
            return
        # ICOUNT (Tullsen et al. [14]) with [18]'s TME modification:
        # primaries outrank alternates; among peers, fewest pre-issue
        # instructions win.  The maintained (icount, id) order supplies
        # the within-group order; a two-pass split puts primaries first.
        order = [c for c in state.icount_order.ordered() if c.fetch_mark == cycle]
        candidates = [c for c in order if c.is_primary]
        if len(candidates) != len(order):
            candidates.extend(c for c in order if not c.is_primary)
        total_budget = cfg.fetch_total
        threads = 0
        for ctx in candidates:
            if threads >= cfg.fetch_threads or total_budget <= 0:
                break
            threads += 1
            fetched = self.fetch_block(ctx, min(cfg.fetch_block, total_budget))
            total_budget -= fetched

    def fetch_block(self, ctx: HardwareContext, budget: int) -> int:
        """Fetch up to ``budget`` sequential instructions for ``ctx``."""
        cfg = self.config
        state = self.state
        program = ctx.instance.program
        space = ctx.instance.id
        pc = ctx.pc
        if ctx.fill_pc == pc and state.cycle >= ctx.fill_ready:
            # The outstanding fill delivers this block directly to the
            # fetch unit — no re-access (avoids thrash livelock).
            ctx.fill_pc = -1
        else:
            latency = state.hierarchy.fetch_latency(pc, state.cycle, space)
            if latency > 0:
                ctx.fetch_stall_until = state.cycle + latency
                ctx.fill_pc = pc
                ctx.fill_ready = state.cycle + latency
                return 0
            ctx.fill_pc = -1
        line_end = (pc | (cfg.hierarchy.icache.line_size - 1)) + 1
        count = 0
        ready = state.cycle + 1 + cfg.decode_latency
        recycle = cfg.features.recycle
        # Alternate-length accounting only applies to TME alternates;
        # primaryship cannot change mid-block.
        check_limit = not ctx.is_primary and cfg.features.tme
        ucache = state.uop_cache
        view_get = ucache.program_view(program).get
        hits_by_class = ucache.hits_by_class
        append = ctx.decode_buffer.append
        predict = state.predictor.predict
        ctx_id = ctx.id
        while count < budget and pc < line_end and not ctx.fetch_stopped:
            if count > 0 and recycle and self.check_merge_at(ctx, pc):
                return self._published(ctx, count)  # mid-block merge
            dec = view_get(pc)
            if dec is not None:
                ucache.hits += 1
                key = dec.decant_key
                hits_by_class[key] = hits_by_class.get(key, 0) + 1
            else:
                dec = ucache.decode(program, pc)
                if not dec:
                    ctx.fetch_stopped = True  # ran off the text (wrong path)
                    break
            count += 1
            if check_limit and not self.alt_fetch_allowed(ctx):
                ctx.fetch_stopped = True
            if dec.is_branch:
                pred = predict(ctx_id, pc, dec.instr)
                if pred.taken and pred.target is None:
                    # Unresolvable indirect: stall fetch until resolution.
                    append(FetchedInstr(dec.seq_next, pred, ready, dec))
                    ctx.fetch_stopped = True
                    break
                next_pc = pred.target if pred.taken else dec.seq_next
                append(FetchedInstr(next_pc, pred, ready, dec))
                pc = next_pc
                ctx.pc = pc
                if pred.taken:
                    if pred.needs_decode_redirect:
                        ctx.fetch_stall_until = (
                            state.cycle + cfg.btb_miss_redirect_penalty
                        )
                    break  # fetch blocks end at a predicted-taken branch
            elif dec.is_halt:
                append(FetchedInstr(pc, None, ready, dec))
                ctx.fetch_stopped = True
                break
            else:
                append(FetchedInstr(dec.seq_next, None, ready, dec))
                pc = dec.seq_next
                ctx.pc = pc
        return self._published(ctx, count)

    def _published(self, ctx: HardwareContext, count: int) -> int:
        if count:
            self.stats.fetched += count
            self.state.icount_order.note(ctx)
            if FetchBlock in self.bus_active:
                self.bus.publish(FetchBlock(self.state.cycle, ctx, count, ctx.pc))
        return count

    def alt_fetch_allowed(self, ctx: HardwareContext) -> bool:
        """Apply the Figure-5 alternate-path instruction limit."""
        if ctx.is_primary:
            return True
        if not self.config.features.tme:
            return True
        ctx.alt_fetched += 1
        return ctx.alt_fetched < self.config.policy.limit

    # ------------------------------------------------------------------
    # Merge detection (Section 3.2)
    # ------------------------------------------------------------------
    def try_merge(self, ctx: HardwareContext) -> bool:
        """Open a recycle stream if ``ctx``'s fetch PC hits a merge point."""
        return self.check_merge_at(ctx, ctx.pc)

    def check_merge_at(self, ctx: HardwareContext, pc: int) -> bool:
        """Open a recycle stream into ``ctx`` if ``pc`` matches a merge
        point: a spare's first PC (primaries only), the context's own
        first PC (primaries only), or its last backward-branch target.

        The PC comparison runs before the validity walk — both are pure
        predicates — so the common no-match case costs one attribute
        load per candidate.
        """
        if ctx.id in self.streams:
            return False
        open_stream = self.open_stream
        if ctx.is_primary:
            partition = ctx.instance.partition
            for src in partition.spares():
                if src.state not in (CtxState.ACTIVE, CtxState.INACTIVE):
                    continue
                if src.is_primary:
                    continue
                mp = src.first_merge
                if mp is not None and mp.pc == pc and src.merge_point_valid(mp):
                    if open_stream(ctx, src, mp, StreamKind.ALTERNATE) is not None:
                        return True
            mp = ctx.first_merge
            if mp is not None and mp.pc == pc and ctx.merge_point_valid(mp):
                if open_stream(ctx, ctx, mp, StreamKind.SELF_FIRST) is not None:
                    return True
        mp = ctx.back_merge
        if mp is not None and mp.pc == pc and ctx.merge_point_valid(mp):
            if open_stream(ctx, ctx, mp, StreamKind.BACK) is not None:
                return True
        return False

    def open_stream(
        self,
        dst: HardwareContext,
        src: HardwareContext,
        mp: MergePoint,
        kind: StreamKind,
    ) -> Optional[RecycleStream]:
        uops, next_pcs = self.snapshot_trace(src, mp.pos)
        if not uops:
            return None
        reuse_ok = (
            self.config.features.reuse
            and kind is StreamKind.ALTERNATE
            and dst.is_primary
        )
        stream = RecycleStream(
            kind=kind,
            dst_ctx=dst.id,
            src_ctx=src.id,
            uops=uops,
            next_pcs=next_pcs,
            first_pos=mp.pos,
            reuse_allowed=reuse_ok,
        )
        self.streams[dst.id] = stream
        src.was_recycled = True
        if kind is StreamKind.BACK:
            self.stats.back_merges += 1
        else:
            self.stats.merges += 1
            if src is not dst:
                src.merge_count += 1
        # "Fetching immediately continues from where recycling will
        # complete" — but we conservatively do not fetch for this thread
        # while its stream drains; the PC is parked at the resume point.
        dst.pc = next_pcs[-1]
        if self.bus.wants(StreamOpened):
            self.bus.publish(
                StreamOpened(
                    self.state.cycle, dst, src, stream, kind, mp.pc, len(uops)
                )
            )
        return stream

    def snapshot_trace(
        self, src: HardwareContext, from_pos: int
    ) -> Tuple[List[Uop], List[int]]:
        """The recyclable trace starting at ``from_pos``: its uops, by
        reference, and a copy of their recorded successors.

        A trace is only meaningful while each entry's recorded
        successor is the next entry's PC — rings can contain stale path
        boundaries (e.g. a swapped-out fork branch whose ``next_pc``
        was corrected while its wrong-path suffix stayed adjacent), and
        the snapshot must stop there.
        """
        uops: List[Uop] = []
        next_pcs: List[int] = []
        ring = src.active_list
        cells = ring._ring  # inline try_entry: from_pos..tail_pos is in range
        capacity = ring.capacity
        start = ring.start_pos
        for pos in range(from_pos, ring.tail_pos):
            uop = cells[pos % capacity] if pos >= start else None
            if uop is None or uop.state_code == ST_SQUASHED:
                break
            if next_pcs and uop.pc != next_pcs[-1]:
                break
            uops.append(uop)
            next_pcs.append(uop.next_pc)
        return uops, next_pcs
