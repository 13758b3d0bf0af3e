"""Behavioural tests of TME forking, recycling, reuse and re-spawning.

All runs are golden-checked at commit inside the core, so these tests
assert both that the mechanisms *fire* (stats) and that they never
corrupt architectural state (the run finishing is the proof).
"""

from collections import Counter

import pytest

from repro.isa import Assembler, assemble
from repro.pipeline import Core, Features, MachineConfig
from repro.pipeline.config import PolicyKind, RecyclePolicy
from repro.pipeline.events import Renamed, StreamOpened
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite

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

    def test_stream_replays_successor_recorded_at_open(self):
        """A stream holds its source uops by reference, but resolution
        may still rewrite a source branch's ``next_pc``: the stream must
        replay the successor recorded when it opened.  With the former
        (recorded-direction) method a conditional branch never re-predicts,
        so each replayed copy carries exactly that successor."""
        core = Core(MachineConfig(features=Features.rec(), recycle_repredict=False))
        core.load([assemble(RNG_KERNEL, name="kern")])
        watched, renamed = [], []

        def rewrite_branches(event):
            stream = event.stream
            if watched or not any(uop.dec.is_cond_branch for uop in stream.uops):
                return
            watched.append((stream, list(stream.next_pcs), event.dst.id))
            for uop in stream.uops:
                if uop.dec.is_cond_branch:
                    uop.next_pc = 0xBAD0

        core.bus.subscribe(StreamOpened, rewrite_branches)
        core.bus.subscribe(Renamed, lambda event: watched and renamed.append(event.uop))
        for _ in range(20_000):
            if watched and watched[0][0].ended:
                break
            core.step()
        assert watched, "no stream over a conditional branch opened"
        stream, recorded, dst = watched[0]
        assert stream.ended and stream.index > 0
        replayed = [uop for uop in renamed if uop.ctx == dst and uop.recycled]
        replayed = replayed[: stream.index]
        assert [uop.pc for uop in replayed] == [uop.pc for uop in stream.uops[: stream.index]]
        assert any(uop.dec.is_cond_branch for uop in replayed)
        assert [uop.next_pc for uop in replayed] == recorded[: stream.index]

    @pytest.mark.xfail(
        strict=True,
        reason="RenameStage.drain_stream predicts a stream's head entry before "
        "checking resources, so a head that stalls is predicted again every cycle",
    )
    def test_no_stream_entry_is_predicted_twice(self):
        spec = RunSpec(("compress",), machine="big.2.16", features="REC/RS/RU",
                       commit_target=800)
        core = Core(spec.build_config())
        core.load(WorkloadSuite().mix(spec.workload), commit_target=spec.commit_target)
        predictor, rename = core.state.predictor, core.rename
        draining, streams, predicted = [], [], Counter()
        drain_stream = rename.drain_stream

        def drain(stream, budget):
            draining.append(stream)
            streams.append(stream)  # keeps id(stream) unique for the run
            try:
                return drain_stream(stream, budget)
            finally:
                draining.pop()

        def counted(method):
            def wrapper(*args, **kwargs):
                if draining:
                    predicted[id(draining[-1]), draining[-1].index] += 1
                return method(*args, **kwargs)
            return wrapper

        rename.drain_stream = drain
        predictor.predict = counted(predictor.predict)
        predictor.record_direction = counted(predictor.record_direction)
        core.run(max_cycles=spec.max_cycles)
        assert predicted, "no stream entry was predicted"
        assert [key for key, count in predicted.items() if count > 1] == []


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
