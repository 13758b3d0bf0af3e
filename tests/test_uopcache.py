"""Decoded-uop cache: the per-core memo and its counter semantics."""

import pytest

from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import Op
from repro.isa.program import TEXT_BASE, Program
from repro.pipeline import Core, Features, MachineConfig
from repro.pipeline.uopcache import DecodedUop, DecodedUopCache, loop_pcs_of
from repro.workloads.suite import WorkloadSuite


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
        cache = DecodedUopCache()
        first = cache.lookup(program, branch_pc)
        again = cache.lookup(program, branch_pc)
        assert again is first  # memoised record, not a re-decode
        assert cache.misses == 1 and cache.hits == 1
        assert cache.decode_counts == {"p": 1}
        assert cache.hits_by_class == {first.decant_key: 1}

    def test_off_text_lookup_is_a_miss_with_no_entry(self):
        program, _ = make_program()
        cache = DecodedUopCache()
        assert cache.lookup(program, program.text_base - INSTRUCTION_BYTES) is None
        assert cache.misses == 1 and cache.decode_counts == {}


class TestMemo:
    @pytest.mark.parametrize("name", WorkloadSuite().names)
    def test_a_run_decodes_no_pc_twice(self, name):
        """The memo has no bound and nothing invalidates it, so one run
        decodes each static instruction at most once, and every decoded
        PC is a hit from then on."""
        suite = WorkloadSuite()
        program = suite.program(name)
        core = Core(MachineConfig(features=Features.rec_rs_ru()))
        core.load([program], commit_target=300)
        stats = core.run(max_cycles=200_000)
        assert 0 < stats.decode_counts[name] <= len(program.instructions)
        cache = core.state.uop_cache
        decoded = sorted(cache.program_view(program))
        assert len(decoded) == stats.decode_counts[name]
        hits, misses = cache.hits, cache.misses
        for pc in decoded:
            assert cache.lookup(program, pc) is not None
        assert cache.hits == hits + len(decoded)
        assert cache.misses == misses


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
