"""Behavioural tests of TME forking, recycling, reuse and re-spawning.

All runs are golden-checked at commit inside the core, so these tests
assert both that the mechanisms *fire* (stats) and that they never
corrupt architectural state (the run finishing is the proof).
"""

from repro.isa import Assembler, assemble
from repro.pipeline import Core, Features, MachineConfig
from repro.pipeline.config import PolicyKind, RecyclePolicy

# Hard-to-predict data-dependent branches (xorshift PRNG).
RNG_KERNEL = """
main:  movi r1, 12345
       movi r2, 250
       movi r5, 0
loop:  slli r3, r1, 13
       xor  r1, r1, r3
       srli r3, r1, 7
       xor  r1, r1, r3
       slli r3, r1, 17
       xor  r1, r1, r3
       andi r4, r1, 1
       beq  r4, odd
       addi r5, r5, 3
       br   join
odd:   addi r5, r5, 7
join:  subi r2, r2, 1
       bgt  r2, loop
       halt
"""

# Register-disjoint diamond: each arm defines registers from the zero
# register only, so the other arm's results stay reusable.
DIAMOND_KERNEL = """
main:  movi r1, 98765
       movi r2, 250
loop:  slli r3, r1, 13
       xor  r1, r1, r3
       srli r3, r1, 7
       xor  r1, r1, r3
       andi r4, r1, 3
       beq  r4, odd
       addi r6, r31, 3
       addi r8, r31, 11
       br   join
odd:   addi r7, r31, 7
       addi r9, r31, 13
join:  add  r5, r5, r6
       add  r5, r5, r7
       subi r2, r2, 1
       bgt  r2, loop
       halt
"""


def run(src, features, name="kern", config_kwargs=None, max_cycles=400_000):
    cfg = MachineConfig(features=features, **(config_kwargs or {}))
    core = Core(cfg)
    core.load([assemble(src, name=name)])
    stats = core.run(max_cycles=max_cycles)
    assert core.instances[0].halted
    return core, stats


class TestTme:
    def test_forks_happen_on_low_confidence(self):
        _, stats = run(RNG_KERNEL, Features.tme_only())
        assert stats.forks > 0

    def test_branch_miss_coverage(self):
        _, stats = run(RNG_KERNEL, Features.tme_only())
        assert stats.branch_miss_coverage > 30.0

    def test_tme_beats_smt_on_unpredictable_code(self):
        _, smt = run(RNG_KERNEL, Features.smt())
        _, tme = run(RNG_KERNEL, Features.tme_only())
        assert tme.ipc > smt.ipc

    def test_tme_does_not_hurt_predictable_code(self):
        src = """
        main: movi r2, 300
        loop: addi r1, r1, 1
              subi r2, r2, 1
              bgt  r2, loop
              halt
        """
        _, smt = run(src, Features.smt())
        _, tme = run(src, Features.tme_only())
        assert tme.ipc >= smt.ipc * 0.95

    def test_forks_used_counted(self):
        _, stats = run(RNG_KERNEL, Features.tme_only())
        assert stats.forks_used_tme > 0
        assert stats.pct_forks_used_tme <= 100.0

    def test_no_forks_without_spare_contexts(self):
        """Eight programs leave no spare contexts: TME can never fork."""
        progs = []
        for i in range(8):
            asm = Assembler(text_base=0x1000 + i * 0x21040, data_base=0x9000 + i * 0x21040)
            progs.append(asm.assemble(RNG_KERNEL, name=f"p{i}"))
        core = Core(MachineConfig(features=Features.tme_only()))
        core.load(progs, commit_target=800)
        stats = core.run(max_cycles=400_000)
        assert stats.forks == 0

    def test_contexts_return_to_idle_eventually(self):
        core, _ = run(RNG_KERNEL, Features.tme_only())
        # After halt everything but bookkeeping should be quiescent; no
        # context may still think it is an active alternate.
        assert all(not c.is_alternate for c in core.contexts)


class TestRecycling:
    def test_merges_happen(self):
        _, stats = run(RNG_KERNEL, Features.rec())
        assert stats.merges + stats.back_merges > 0
        assert stats.renamed_recycled > 0

    def test_recycled_fraction_substantial(self):
        _, stats = run(RNG_KERNEL, Features.rec())
        assert stats.pct_recycled > 10.0

    def test_duplicate_forks_suppressed(self):
        _, stats = run(RNG_KERNEL, Features.rec())
        assert stats.fork_suppressed_duplicate > 0

    def test_back_merges_on_tight_fp_loop(self):
        """A predictable loop recycles through its own backward branch."""
        src = """
        main: movi r2, 300
        loop: fadd f1, f1, f2
              fmul f3, f1, f2
              addi r1, r1, 3
              subi r2, r2, 1
              bgt  r2, loop
              halt
        """
        _, stats = run(src, Features.rec())
        assert stats.back_merges > 0

    def test_inactive_paths_accounted(self):
        core, stats = run(RNG_KERNEL, Features.rec())
        # Fork paths were deactivated, retained, and eventually deleted.
        assert stats.alt_paths_deleted > 0
        # After HALT cleanup, nothing is left mid-flight.
        assert all(not c.is_alternate for c in core.contexts)

    def test_golden_clean_under_all_policies(self):
        for kind in PolicyKind:
            for limit in (8, 16, 32):
                cfg = {"policy": RecyclePolicy(kind, limit)}
                _, stats = run(RNG_KERNEL, Features.rec_rs_ru(), config_kwargs=cfg)
                assert stats.committed > 0, f"{kind}-{limit}"

    def test_stream_end_reasons_accounted(self):
        _, stats = run(RNG_KERNEL, Features.rec())
        total_streams = stats.merges + stats.back_merges
        ended = (
            stats.streams_ended_branch_mismatch
            + stats.streams_ended_exhausted
            + stats.streams_ended_squashed
        )
        # Every stream ends exactly once (those alive at halt excepted).
        assert ended <= total_streams
        assert ended >= total_streams - 8


class TestReuse:
    def test_reuse_fires_on_disjoint_diamond(self):
        _, stats = run(DIAMOND_KERNEL, Features.rec_ru())
        assert stats.renamed_reused > 0

    def test_reuse_never_fires_when_disabled(self):
        _, stats = run(DIAMOND_KERNEL, Features.rec())
        assert stats.renamed_reused == 0

    def test_reuse_subset_of_recycled(self):
        _, stats = run(DIAMOND_KERNEL, Features.rec_ru())
        assert stats.renamed_reused <= stats.renamed_recycled

    def test_reuse_blocked_when_registers_overwritten(self):
        """Both arms write the same accumulator: nothing is reusable."""
        src = """
        main:  movi r1, 5555
               movi r2, 250
        loop:  slli r3, r1, 13
               xor  r1, r1, r3
               srli r3, r1, 7
               xor  r1, r1, r3
               andi r4, r1, 1
               beq  r4, odd
               addi r5, r5, 3
               br   join
        odd:   addi r5, r5, 7
        join:  subi r2, r2, 1
               bgt  r2, loop
               halt
        """
        _, stats = run(src, Features.rec_ru())
        # r5/r2 are redefined by the primary every iteration; the only
        # reusable results would read unchanged registers.  Expect a
        # dramatically lower reuse rate than the disjoint diamond.
        _, diamond = run(DIAMOND_KERNEL, Features.rec_ru())
        assert stats.pct_reused <= diamond.pct_reused

    def test_pending_reuse_drains(self):
        core, _ = run(DIAMOND_KERNEL, Features.rec_ru())
        assert all(c.pending_reuse == 0 for c in core.contexts)


class TestRespawn:
    def test_respawns_fire(self):
        _, stats = run(RNG_KERNEL, Features.rec_rs())
        assert stats.respawns > 0

    def test_respawn_reduces_suppression(self):
        _, rec = run(RNG_KERNEL, Features.rec())
        _, rs = run(RNG_KERNEL, Features.rec_rs())
        assert rs.fork_suppressed_duplicate < rec.fork_suppressed_duplicate

    def test_respawn_improves_coverage_over_rec(self):
        _, rec = run(RNG_KERNEL, Features.rec())
        _, rs = run(RNG_KERNEL, Features.rec_rs())
        assert rs.branch_miss_coverage > rec.branch_miss_coverage


class TestTable1Shape:
    def test_counters_present_and_bounded(self):
        _, stats = run(RNG_KERNEL, Features.rec_rs_ru())
        row = stats.table1_row()
        for key, value in row.items():
            assert value >= 0, key
        assert row["pct_recycled"] <= 100
        assert row["pct_reused"] <= row["pct_recycled"]
        assert row["pct_back_merges"] <= 100

    def test_multiprogram_recycling_golden_clean(self):
        progs = []
        for i in range(4):
            asm = Assembler(text_base=0x1000 + i * 0x21040, data_base=0x9000 + i * 0x21040)
            progs.append(asm.assemble(RNG_KERNEL, name=f"p{i}"))
        core = Core(MachineConfig(features=Features.rec_rs_ru()))
        core.load(progs, commit_target=1200)
        stats = core.run(max_cycles=400_000)
        assert stats.committed >= 4 * 1200
        assert stats.pct_recycled > 0
