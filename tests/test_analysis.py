"""Tests for the static-analysis subsystem and the cross-checker.

Covers: CFG construction, dominators/post-dominators on hand-built
programs, natural loops, the shared branch taxonomy, kill sets and
must-define dataflow, static-vs-dynamic merge agreement on every
workload kernel, and — via event injection — proof that the checker's
invariant rules actually fire on corrupted merges/reuses.
"""

import pytest

from repro.analysis import (
    EXIT_BLOCK,
    BranchClass,
    EdgeKind,
    ProgramAnalysis,
    classify_static,
    dominates,
)
from repro.analysis.checker import (
    CrossChecker,
    MergeEvent,
    ReuseEvent,
    check_spec,
)
from repro.isa.assembler import assemble
from repro.pipeline.core import Core
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite

DIAMOND = """
main:   movi r1, 5
        movi r2, 0
        beq r1, else
        addi r2, r2, 1
        br join
else:   addi r2, r2, 2
join:   addi r4, r5, 1
        addi r3, r2, 0
        halt
"""

LOOP = """
main:   movi r1, 3
loop:   subi r1, r1, 1
        bgt r1, loop
        halt
"""

CALL = """
main:   movi r1, 1
        jsr ra, helper
        halt
helper: addi r1, r1, 1
        ret (ra)
"""


@pytest.fixture(scope="module")
def diamond():
    return ProgramAnalysis(assemble(DIAMOND, name="diamond"), name="diamond")


@pytest.fixture(scope="module")
def loop():
    return ProgramAnalysis(assemble(LOOP, name="loop"), name="loop")


class TestCFG:
    def test_diamond_block_structure(self, diamond):
        cfg = diamond.cfg
        # entry(3) / then(2) / else(1) / join+halt(3)
        assert [len(b) for b in cfg.blocks] == [3, 2, 1, 3]
        kinds = {
            (b.id, s): k for b in cfg.blocks for s, k in b.succs
        }
        assert kinds[(0, 1)] is EdgeKind.FALL
        assert kinds[(0, 2)] is EdgeKind.TAKEN
        assert kinds[(1, 3)] is EdgeKind.JUMP
        assert kinds[(2, 3)] is EdgeKind.FALL
        assert kinds[(3, EXIT_BLOCK)] is EdgeKind.HALT

    def test_leaders_and_pc_mapping(self, diamond):
        cfg = diamond.cfg
        program = diamond.program
        for label in ("main", "else", "join"):
            assert cfg.is_leader(program.labels[label])
        # mid-block pc is not a leader (second instruction of entry)
        assert not cfg.is_leader(program.labels["main"] + 4)

    def test_call_and_return_edges(self):
        pa = ProgramAnalysis(assemble(CALL, name="call"), name="call")
        cfg = pa.cfg
        # jsr falls through to its return site intraprocedurally ...
        jsr_block = cfg.block_at_pc(pa.program.labels["main"] + 4)
        assert any(k is EdgeKind.CALL for _, k in jsr_block.succs)
        # ... and ret goes to EXIT
        ret_block = cfg.blocks[-1]
        assert ret_block.succs == [(EXIT_BLOCK, EdgeKind.RET)]
        # flow relation adds jsr -> callee entry and ret -> return sites
        flow = cfg.flow_successors()
        jsr_idx = cfg.index_of(pa.program.labels["main"] + 4)
        helper_idx = cfg.index_of(pa.program.labels["helper"])
        assert helper_idx in flow[jsr_idx]
        ret_idx = len(pa.program.instructions) - 1
        assert (jsr_idx + 1) in flow[ret_idx]


class TestDominance:
    def test_diamond_dominators(self, diamond):
        idom = diamond.idom
        # entry dominates everything; neither arm dominates the join
        assert all(dominates(idom, 0, b) for b in idom)
        assert idom[3] == 0

    def test_diamond_postdominators(self, diamond):
        ipostdom = diamond.ipostdom
        # the join block (3) post-dominates both arms and the entry
        assert ipostdom[1] == 3 and ipostdom[2] == 3 and ipostdom[0] == 3
        assert ipostdom[3] == EXIT_BLOCK

    def test_reconvergence_is_join(self, diamond):
        program = diamond.program
        branch_pc = program.labels["main"] + 8  # the beq
        assert diamond.reconvergence_pc(branch_pc) == program.labels["join"]

    def test_natural_loop(self, loop):
        loops = loop.loops
        assert len(loops) == 1
        header, body = next(iter(loops.items()))
        latch_block = loop.cfg.block_at_pc(loop.program.labels["loop"])
        assert header == latch_block.id and header in body


class TestTaxonomy:
    def test_diamond_is_forward(self, diamond):
        branch_pc = diamond.program.labels["main"] + 8
        assert diamond.site(branch_pc).branch_class is BranchClass.FORWARD

    def test_loop_back_is_loop_back(self, loop):
        (site,) = [s for s in loop.sites.values() if s.is_conditional]
        assert site.branch_class is BranchClass.LOOP_BACK

    def test_classify_static_counts(self):
        counts = classify_static(assemble(CALL, name="call"))
        assert counts[BranchClass.FORWARD] == 1  # the jsr
        assert counts[BranchClass.INDIRECT] == 1  # the ret

    def test_backward_branch_targets(self, loop):
        assert loop.backward_branch_targets == frozenset(
            {loop.program.labels["loop"]}
        )


class TestKillSets:
    def test_diamond_kill_sets(self, diamond):
        (bound,) = diamond.reuse_bounds(window=4)
        assert bound.fall_kills == frozenset({2})
        assert bound.taken_kills == frozenset({2})
        # `addi r4, r5, 1` at the join survives either arm;
        # `addi r3, r2, 0` reads the killed r2 and does not.
        assert bound.reusable_after_taken == 1
        assert bound.reusable_after_fall == 1

    def test_must_defs_at_join(self, diamond):
        program = diamond.program
        branch_pc = program.labels["main"] + 8
        masks = diamond.must_defs_from(branch_pc)
        join_mask = masks[program.labels["join"]]
        assert (join_mask >> 2) & 1  # both arms write r2
        assert not (join_mask >> 4) & 1  # nobody writes r4 before join

    def test_summary_counts(self, diamond):
        summary = diamond.summary(window=4)
        assert summary.cond_sites == 1
        assert summary.merge_coverage_pct == 100.0
        assert summary.avg_kill_set_size == 1.0


class TestStaticVsDynamic:
    """Static-vs-dynamic merge agreement on every workload kernel."""

    @pytest.mark.parametrize("kernel", WorkloadSuite().names)
    def test_cross_check_clean(self, kernel):
        spec = RunSpec((kernel,), features="REC/RS/RU", commit_target=500)
        result, report = check_spec(spec)
        assert report.ok, [str(v) for v in report.violations]
        assert report.merges_checked > 0
        assert result.stats.committed >= 500

    def test_multiprogram_cross_check_clean(self):
        spec = RunSpec(
            ("compress", "li"), features="REC/RS/RU", commit_target=400
        )
        _, report = check_spec(spec)
        assert report.ok, [str(v) for v in report.violations]
        assert report.merges_checked > 0


class TestCheckerCatchesCorruption:
    """Inject corrupted events: the invariant rules must fire."""

    @pytest.fixture()
    def checker(self):
        suite = WorkloadSuite()
        spec = RunSpec(("compress",), features="REC/RS/RU", commit_target=200)
        core = Core(spec.build_config())
        checker = CrossChecker(core)
        core.load(suite.mix(spec.workload), commit_target=spec.commit_target)
        return checker

    def _template(self, checker):
        instance = checker.core.instances[0]
        return instance, ProgramAnalysis(instance.program, name=instance.name)

    def test_corrupted_back_merge_is_caught(self, checker):
        instance, pa = self._template(checker)
        # a mid-block pc that is provably not a backward-branch target
        bogus = next(
            pa.cfg.pc_of(i)
            for i in range(len(instance.program.instructions))
            if pa.cfg.pc_of(i) not in pa.backward_branch_targets
        )
        checker.merge_events.append(MergeEvent(
            cycle=0, instance_id=instance.id, instance_name=instance.name,
            kind="back", merge_pc=bogus, fork_pc=None, dst_ctx=0, src_ctx=0,
        ))
        report = checker.verify()
        assert any(v.rule == "M3" for v in report.violations)

    def test_off_text_merge_is_caught(self, checker):
        instance, _ = self._template(checker)
        checker.merge_events.append(MergeEvent(
            cycle=0, instance_id=instance.id, instance_name=instance.name,
            kind="alternate", merge_pc=0xDEAD0, fork_pc=None,
            dst_ctx=0, src_ctx=0,
        ))
        report = checker.verify()
        assert any(v.rule == "M1" for v in report.violations)

    def test_corrupted_alternate_merge_is_caught(self, checker):
        instance, pa = self._template(checker)
        fork_pc = min(
            pc for pc, s in pa.sites.items() if s.is_conditional
        )
        succs = pa.static_successor_pcs(fork_pc)
        bogus = next(
            pa.cfg.pc_of(i)
            for i in range(len(instance.program.instructions))
            if pa.cfg.pc_of(i) not in succs
        )
        checker.merge_events.append(MergeEvent(
            cycle=0, instance_id=instance.id, instance_name=instance.name,
            kind="alternate", merge_pc=bogus, fork_pc=fork_pc,
            dst_ctx=0, src_ctx=0,
        ))
        report = checker.verify()
        assert any(v.rule == "M2" for v in report.violations)

    def test_corrupted_reuse_is_caught(self, checker):
        instance, pa = self._template(checker)
        # Find a (fork, pc, reg) where reg is must-defined from the fork:
        # claiming it was reused untouched must violate R1.
        for fork_pc, site in sorted(pa.sites.items()):
            if not site.is_conditional:
                continue
            for pc, mask in sorted(pa.must_defs_from(fork_pc).items()):
                regs = [r for r in range(31) if (mask >> r) & 1]
                if regs:
                    checker.reuse_events.append(ReuseEvent(
                        cycle=0, instance_id=instance.id,
                        instance_name=instance.name, reuse_pc=pc,
                        srcs=(regs[0],), consistent=frozenset(),
                        fork_pc=fork_pc, dst_ctx=0, src_ctx=0,
                    ))
                    report = checker.verify()
                    assert any(v.rule == "R1" for v in report.violations)
                    return
        pytest.skip("no must-defined register found in this kernel")

    def test_consistent_write_exempts_reuse(self, checker):
        instance, pa = self._template(checker)
        for fork_pc, site in sorted(pa.sites.items()):
            if not site.is_conditional:
                continue
            for pc, mask in sorted(pa.must_defs_from(fork_pc).items()):
                regs = [r for r in range(31) if (mask >> r) & 1]
                if regs:
                    checker.reuse_events.append(ReuseEvent(
                        cycle=0, instance_id=instance.id,
                        instance_name=instance.name, reuse_pc=pc,
                        srcs=(regs[0],), consistent=frozenset({regs[0]}),
                        fork_pc=fork_pc, dst_ctx=0, src_ctx=0,
                    ))
                    report = checker.verify()
                    assert not any(v.rule == "R1" for v in report.violations)
                    return
        pytest.skip("no must-defined register found in this kernel")
