"""Timing-property tests: latencies and pipeline order observable per-uop.

Uses the tracer's committed-uop timeline to verify the machine honours
the paper's latency assumptions (Section 4) rather than just "runs".
"""

from repro.debug import CoreTracer
from repro.isa import assemble
from repro.isa.opcodes import Op
from repro.pipeline import Core, Features, MachineConfig


def committed_uops(src, features=Features.smt(), **config_kwargs):
    core = Core(MachineConfig(features=features, **config_kwargs))
    core.load([assemble(src, name="timing")])
    tracer = CoreTracer(core)
    core.run(max_cycles=300_000)
    assert core.instances[0].halted
    return core, tracer.committed_uops


def latency_of(uops, op):
    """Observed issue→complete latencies for one opcode, regread excluded."""
    out = []
    for u in uops:
        if u.instr.op is op and u.issue_cycle >= 0 and u.complete_cycle >= 0:
            out.append(u.complete_cycle - u.issue_cycle - 2)  # minus regread
    return out


WARM_LOOP = """
main: movi r2, 60
      movi r9, 0x5000
loop: add  r1, r1, r2
      mul  r3, r1, r2
      fadd f1, f1, f2
      fdiv f3, f1, f2
      ld   r4, 0(r9)
      st   r4, 8(r9)
      subi r2, r2, 1
      bgt  r2, loop
      halt
"""


class TestLatencies:
    def test_alu_single_cycle(self):
        _, uops = committed_uops(WARM_LOOP)
        lats = latency_of(uops, Op.ADD)
        assert lats and min(lats) == 1

    def test_multiply_seven_cycles(self):
        _, uops = committed_uops(WARM_LOOP)
        lats = latency_of(uops, Op.MUL)
        assert lats and min(lats) == 7

    def test_fadd_four_cycles(self):
        _, uops = committed_uops(WARM_LOOP)
        lats = latency_of(uops, Op.FADD)
        assert lats and min(lats) == 4

    def test_fdiv_twelve_cycles(self):
        _, uops = committed_uops(WARM_LOOP)
        lats = latency_of(uops, Op.FDIV)
        assert lats and min(lats) == 12

    def test_load_hit_latency(self):
        """Warm loads: 1 (agen) + 2 (L1D hit) = 3 cycles past regread."""
        _, uops = committed_uops(WARM_LOOP)
        lats = latency_of(uops, Op.LD)
        assert lats and min(lats) == 3

    def test_forwarded_load_is_faster(self):
        src = """
        main: movi r9, 0x5000
              movi r2, 40
        loop: st   r1, 0(r9)
              ld   r3, 0(r9)
              addi r1, r1, 1
              subi r2, r2, 1
              bgt  r2, loop
              halt
        """
        _, uops = committed_uops(src)
        lats = latency_of(uops, Op.LD)
        # Store-to-load forwarding completes in 1 cycle past regread.
        assert lats and min(lats) == 1


class TestPipelineDepth:
    def test_rename_to_issue_at_least_one_cycle(self):
        _, uops = committed_uops(WARM_LOOP)
        for u in uops:
            if u.issue_cycle >= 0:
                assert u.issue_cycle >= u.rename_cycle + 1

    def test_commit_in_order_per_context(self):
        core, uops = committed_uops(WARM_LOOP)
        per_ctx = {}
        for u in uops:
            per_ctx.setdefault(u.ctx, []).append(u.seq)
        # Commit order within one program follows the golden stream
        # (already enforced); seqs within one context rise except across
        # recycling (none here: SMT).
        for seqs in per_ctx.values():
            assert seqs == sorted(seqs)

    def test_reused_uops_never_issue(self):
        src = """
        main:  movi r1, 98765
               movi r2, 200
        loop:  slli r3, r1, 13
               xor  r1, r1, r3
               srli r3, r1, 7
               xor  r1, r1, r3
               andi r4, r1, 3
               beq  r4, odd
               addi r6, r31, 3
               br   join
        odd:   addi r7, r31, 7
        join:  subi r2, r2, 1
               bgt  r2, loop
               halt
        """
        _, uops = committed_uops(src, features=Features.rec_ru())
        reused = [u for u in uops if u.reused]
        assert reused, "expected reuse on the disjoint diamond"
        assert all(u.issue_cycle == -1 for u in reused)
