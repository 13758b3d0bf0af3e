"""Decoded-uop cache: capacity, invalidation, and counter semantics."""

import pytest

from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Op
from repro.isa.program import TEXT_BASE, Program
from repro.pipeline.uopcache import DecodedUop, DecodedUopCache, loop_pcs_of


def make_program(name="p", n_body=6):
    """A tiny loop kernel: ``n_body`` ALU ops, a backward branch over
    the last four of them, then a halt."""
    instrs = [Instruction(Op.ADDI, rd=1, ra=1, imm=1) for _ in range(n_body)]
    # Backward branch to the third body instruction.
    instrs.append(
        Instruction(Op.BNE, ra=1, rb=2, target=TEXT_BASE + 2 * INSTRUCTION_BYTES)
    )
    instrs.append(Instruction(Op.HALT))
    program = Program(name=name, instructions=instrs)
    branch_pc = program.text_base + n_body * INSTRUCTION_BYTES
    return program, branch_pc


class TestDecodedUop:
    def test_standalone_decode_precomputes_static_facts(self):
        program, branch_pc = make_program()
        dec = DecodedUop(program.instr_at(branch_pc), branch_pc)
        assert dec.is_branch and dec.is_cond_branch
        assert dec.backward  # target <= pc
        assert dec.seq_next == branch_pc + INSTRUCTION_BYTES
        assert dec.decant_key.startswith(dec.fu.value)

    def test_loop_pcs_cover_backward_branch_body(self):
        program, branch_pc = make_program()
        member = loop_pcs_of(program)
        body_start = program.text_base + 2 * INSTRUCTION_BYTES
        assert body_start in member
        assert branch_pc in member
        assert program.text_base not in member  # before the loop

    def test_loop_member_decant_key(self):
        program, branch_pc = make_program()
        cache = DecodedUopCache()
        dec = cache.lookup(program, branch_pc)
        assert dec.loop_member
        assert dec.decant_key.endswith(".loop")


class TestCacheCounters:
    def test_miss_then_hit(self):
        program, branch_pc = make_program()
        cache = DecodedUopCache(capacity=16)
        first = cache.lookup(program, branch_pc)
        again = cache.lookup(program, branch_pc)
        assert again is first  # memoised record, not a re-decode
        assert cache.misses == 1 and cache.hits == 1
        assert cache.decode_counts == {"p": 1}
        assert cache.hits_by_class == {first.decant_key: 1}

    def test_off_text_lookup_is_a_miss_with_no_entry(self):
        program, _ = make_program()
        cache = DecodedUopCache(capacity=16)
        assert cache.lookup(program, program.text_base - INSTRUCTION_BYTES) is None
        assert cache.misses == 1 and len(cache) == 0

    def test_snapshot_shape(self):
        program, branch_pc = make_program()
        cache = DecodedUopCache(capacity=16)
        cache.lookup(program, branch_pc)
        cache.lookup(program, branch_pc)
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert snap["entries"] == 1 and snap["capacity"] == 16
        assert snap["decode_counts"] == {"p": 1}


class TestCapacity:
    def test_fifo_eviction_at_capacity(self):
        program, _ = make_program(n_body=6)
        cache = DecodedUopCache(capacity=2)
        base = program.text_base
        pcs = [base + i * INSTRUCTION_BYTES for i in range(3)]
        for pc in pcs:
            cache.lookup(program, pc)
        assert len(cache) == 2
        assert cache.evictions == 1
        view = cache.program_view(program)
        assert pcs[0] not in view  # FIFO-oldest evicted
        assert pcs[1] in view and pcs[2] in view

    def test_zero_capacity_disables_caching(self):
        program, branch_pc = make_program()
        cache = DecodedUopCache(capacity=0)
        a = cache.lookup(program, branch_pc)
        b = cache.lookup(program, branch_pc)
        assert isinstance(a, DecodedUop) and isinstance(b, DecodedUop)
        assert a is not b  # every lookup decodes
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 0 and cache.evictions == 0


class TestInvalidation:
    def test_invalidate_single_pc(self):
        program, branch_pc = make_program()
        cache = DecodedUopCache(capacity=16)
        cache.lookup(program, branch_pc)
        assert cache.invalidate(program, branch_pc)
        assert len(cache) == 0
        # Next lookup re-decodes (a fresh miss, not a stale hit).
        cache.lookup(program, branch_pc)
        assert cache.misses == 2 and cache.hits == 0

    def test_invalidate_empty_slot_is_false(self):
        program, branch_pc = make_program()
        cache = DecodedUopCache(capacity=16)
        assert not cache.invalidate(program, branch_pc)
        other, _ = make_program(name="q")
        assert not cache.invalidate(other, other.text_base)

    def test_invalidate_program_drops_all_entries(self):
        program, _ = make_program()
        other, _ = make_program(name="q")
        cache = DecodedUopCache(capacity=16)
        base = program.text_base
        for i in range(3):
            cache.lookup(program, base + i * INSTRUCTION_BYTES)
        cache.lookup(other, other.text_base)
        dropped = cache.invalidate_program(program)
        assert dropped == 3
        assert len(cache) == 1  # the other program's entry survives
        assert cache.lookup(other, other.text_base) is not None
        assert cache.hits == 1

    def test_invalidated_view_stays_coherent_for_hot_loop_holders(self):
        # The fetch hot loop caches ``program_view`` across cycles; an
        # invalidation must make that held dict miss, not serve stale
        # records.
        program, branch_pc = make_program()
        cache = DecodedUopCache(capacity=16)
        view = cache.program_view(program)
        cache.lookup(program, branch_pc)
        assert branch_pc in view
        cache.invalidate_program(program)
        assert branch_pc not in view

    def test_stale_fifo_entries_skipped_at_eviction(self):
        program, _ = make_program(n_body=6)
        cache = DecodedUopCache(capacity=2)
        base = program.text_base
        cache.lookup(program, base)
        cache.invalidate(program, base)  # FIFO still holds (view, base)
        cache.lookup(program, base + INSTRUCTION_BYTES)
        cache.lookup(program, base + 2 * INSTRUCTION_BYTES)
        cache.lookup(program, base + 3 * INSTRUCTION_BYTES)  # forces evict
        assert len(cache) == 2
        cache2 = cache  # the stale (already-invalidated) entry must not
        assert cache2.evictions == 1  # have been double-counted

    def test_clear_resets_structure_but_keeps_counters(self):
        program, branch_pc = make_program()
        cache = DecodedUopCache(capacity=16)
        cache.lookup(program, branch_pc)
        cache.lookup(program, branch_pc)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1 and cache.misses == 1  # history preserved


class TestCoreIntegration:
    def test_run_populates_uop_cache_stats(self):
        from repro.sim.runner import RunSpec, run_spec

        spec = RunSpec(workload=["compress"], commit_target=300)
        stats = run_spec(spec).stats
        assert stats.uop_cache_hits > 0
        assert stats.uop_cache_misses > 0
        assert 0.0 < stats.uop_cache_hit_rate < 1.0 or stats.uop_cache_hit_rate > 0
        assert stats.decode_counts.get("compress", 0) > 0
        assert stats.uop_cache_hits_by_class
        # Decanting keys are "<fuclass>[.loop]" strings.
        for key in stats.uop_cache_hits_by_class:
            assert key.split(".")[0] in {"int", "fp", "ldst", "none"}


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
