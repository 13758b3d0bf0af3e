"""Commit stage, with golden-model co-simulation.

Commits rotate across program instances each cycle; within an
instance, retirement follows the commit chain across contexts (the
threaded architectural stream left behind by primaryship swaps).
Every architectural commit is cross-checked against the golden
functional emulator.
"""

from __future__ import annotations

from ...emulator.emulator import EmulationError
from ...isa.registers import NUM_LOGICAL_REGS
from ..context import CtxState, HardwareContext
from ..events import Retired
from ..instance import ProgramInstance
from ..uop import ST_COMMITTED, ST_COMPLETED, Uop
from .state import Stage, SimulationError


def _values_equal(a, b) -> bool:
    """Architectural value equality; NaN compares equal to NaN."""
    if a == b:
        return True
    return (
        isinstance(a, float)
        and isinstance(b, float)
        and a != a
        and b != b
    )


class CommitStage(Stage):
    def run(self) -> None:
        state = self.state
        budget = self.config.commit_width
        instances = state.instances
        n = len(instances)
        if n == 1:
            self.commit_instance(instances[0], budget)
            return
        if not n:
            return
        rotate = state.cycle % n
        for i in range(n):
            if budget <= 0:
                break
            budget = self.commit_instance(instances[(rotate + i) % n], budget)

    def commit_instance(self, instance: ProgramInstance, budget: int) -> int:
        while budget > 0 and not instance.halted:
            ctx = self.contexts[instance.commit_ctx]
            if (
                ctx.commit_limit_pos is not None
                and ctx.active_list.commit_pos >= ctx.commit_limit_pos
            ):
                succ = ctx.commit_successor
                if succ is None:
                    break
                instance.commit_ctx = succ
                ctx.commit_successor = None  # chain moved past: unpin
                if not self.config.features.recycle:
                    # Plain TME: the handed-over context is dead weight.
                    self.core.resolve.squash_context(ctx)
                continue
            # Inline active_list.oldest_uncommitted.  The oldest
            # uncommitted entry is never COMMITTED, so "completed and
            # not squashed" is exactly state COMPLETED.
            al = ctx.active_list
            pos = al.commit_pos
            if pos >= al.tail_pos:
                break
            uop = al._ring[pos % al.capacity]
            if uop is None or uop.state_code != ST_COMPLETED:
                break
            self.retire(instance, ctx, uop)
            budget -= 1
            if instance.reached_target() and instance.id not in self.stats.per_instance_cycles:
                self.stats.per_instance_cycles[instance.id] = self.state.cycle + 1
        return budget

    def retire(self, instance: ProgramInstance, ctx: HardwareContext, uop: Uop) -> None:
        state = self.state
        self.golden_check(instance, uop)
        ctx.active_list.advance_commit()
        dec = uop.dec
        if dec.is_store:
            instance.memory.write64(uop.eff_addr, uop.store_bits)
            # Re-invalidate at retirement: MDB entries must not survive a
            # store that is architecturally older than any later reuse.
            instance.mdb.record_store(uop.eff_addr)
            try:
                ctx.store_buffer.remove(uop)
            except ValueError:
                pass
            ctx.fwd_index_discard(uop)
        prev = uop.prev_map
        if prev is not None and uop.phys_dst is not None:
            self.regfile.decref(prev)
            uop.prev_map = None
        if uop.reused and uop.reuse_src_ctx is not None:
            self.contexts[uop.reuse_src_ctx].reuse_pins.discard(uop.seq)
        uop.state_code = ST_COMMITTED
        instance.committed += 1
        self.stats.committed += 1
        state.last_commit_cycle = state.cycle
        if Retired in self.bus_active:
            self.bus.publish(Retired(state.cycle, uop, instance))
        if dec.is_halt:
            self.halt_instance(instance, ctx)

    def halt_instance(
        self, instance: ProgramInstance, halting_ctx: HardwareContext
    ) -> None:
        """HALT committed: stop and clean up every context of the program.

        Squashing the in-flight remainder releases physical registers
        and drains reuse pins, leaving the machine quiescent.
        """
        instance.halted = True
        if instance.memory != instance.golden.state.memory:
            raise SimulationError(
                f"[{instance.name}] final memory image differs from the golden model"
            )
        for ctx in instance.partition.contexts:
            if ctx.state is CtxState.IDLE:
                continue
            if ctx is halting_ctx:
                self.core.resolve.squash_suffix(ctx, ctx.active_list.commit_pos - 1)
                ctx.fetch_stopped = True
            else:
                self.core.resolve.squash_context(ctx)
        self.check_final_registers(instance, halting_ctx)

    def check_final_registers(
        self, instance: ProgramInstance, ctx: HardwareContext
    ) -> None:
        """After HALT cleanup the primary's map must hold exactly the
        architectural register state the golden model computed."""
        golden_regs = instance.golden.state.regs
        for logical in range(NUM_LOGICAL_REGS):
            phys = ctx.map.lookup(logical)
            value = self.regfile.values[phys]
            if not _values_equal(value, golden_regs[logical]):
                raise SimulationError(
                    f"[{instance.name}] final register r/f{logical} = {value!r} "
                    f"!= golden {golden_regs[logical]!r}"
                )

    def golden_check(self, instance: ProgramInstance, uop: Uop) -> None:
        try:
            rec = instance.golden.step()
        except EmulationError as exc:
            raise SimulationError(f"golden model diverged: {exc}") from exc
        if rec.pc != uop.pc:
            raise SimulationError(
                f"[{instance.name}] commit PC {uop.pc:#x} != golden {rec.pc:#x} "
                f"(uop {uop!r})"
            )
        if uop.instr.is_store:
            if rec.eff_addr != uop.eff_addr or rec.store_bits != uop.store_bits:
                raise SimulationError(
                    f"[{instance.name}] store mismatch at {uop.pc:#x}: "
                    f"core ({uop.eff_addr:#x}, {uop.store_bits}) != "
                    f"golden ({rec.eff_addr:#x}, {rec.store_bits})"
                )
        elif uop.dst is not None:
            if not _values_equal(rec.value, uop.value):
                raise SimulationError(
                    f"[{instance.name}] value mismatch at {uop.pc:#x} ({uop.instr}): "
                    f"core {uop.value!r} != golden {rec.value!r}"
                    f"{' [reused]' if uop.reused else ''}"
                )

    def finalize_stats(self) -> None:
        state = self.state
        for ctx in self.contexts:
            if ctx.state is CtxState.INACTIVE and ctx.fork_uop is not None:
                self.core.resolve.account_deleted_path(ctx)
        for inst in state.instances:
            self.stats.per_instance_committed[inst.id] = inst.committed
            self.stats.per_instance_cycles.setdefault(inst.id, state.cycle)
        # Decoded-uop cache counters (frontend recycling; the cache is
        # simulator-level, so the copy happens once at finalisation).
        ucache = state.uop_cache
        stats = self.stats
        stats.uop_cache_hits = ucache.hits
        stats.uop_cache_misses = ucache.misses
        stats.decode_counts = dict(sorted(ucache.decode_counts.items()))
        stats.uop_cache_hits_by_class = dict(sorted(ucache.hits_by_class.items()))
