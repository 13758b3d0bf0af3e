"""Tests for the SPEC95-analog kernel suite."""

import pytest

from repro.emulator import Emulator, branch_trace
from repro.workloads import (
    FP_KERNELS,
    INTEGER_KERNELS,
    KERNELS,
    RELOCATION_STRIDE,
    WorkloadSuite,
)

SHORT = WorkloadSuite(iters=40)


class TestKernelValidity:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_assembles_and_halts(self, name):
        program = SHORT.program(name)
        emu = Emulator(program)
        executed = emu.run_to_halt(limit=1_000_000)
        assert executed > 40  # at least one instruction per iteration

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_deterministic(self, name):
        a = Emulator(SHORT.program(name))
        b = Emulator(SHORT.program(name))
        a.run_to_halt(limit=1_000_000)
        b.run_to_halt(limit=1_000_000)
        assert a.state.regs == b.state.regs
        assert a.state.memory == b.state.memory

    def test_integer_fp_split_matches_paper(self):
        assert set(INTEGER_KERNELS) == {"compress", "gcc", "go", "li", "perl", "vortex"}
        assert set(FP_KERNELS) == {"su2cor", "tomcatv"}
        assert set(INTEGER_KERNELS) | set(FP_KERNELS) == set(KERNELS)

    def test_eight_kernels(self):
        assert len(KERNELS) == 8


class TestBehaviouralProfiles:
    """The suite must reproduce the *relative* branch behaviour the
    paper's benchmarks exhibit (tomcatv/vortex predictable, go hard)."""

    @staticmethod
    def gshare_accuracy(name, window=8000):
        """Offline gshare accuracy proxy over a branch trace."""
        trace = branch_trace(WorkloadSuite(iters=4000).program(name), window)
        table = {}
        history = 0
        correct = 0
        for pc, taken in trace:
            idx = (pc >> 2 ^ history) & 2047
            counter = table.get(idx, 2)
            correct += (counter >= 2) == taken
            table[idx] = min(3, counter + 1) if taken else max(0, counter - 1)
            history = ((history << 1) | taken) & 2047
        return correct / max(1, len(trace))

    def test_go_is_hardest(self):
        accs = {n: self.gshare_accuracy(n) for n in ("go", "tomcatv", "vortex")}
        assert accs["go"] < accs["tomcatv"]
        assert accs["go"] < accs["vortex"]

    def test_vortex_highly_predictable(self):
        assert self.gshare_accuracy("vortex") > 0.95

    def test_compress_has_data_dependent_branches(self):
        assert self.gshare_accuracy("compress") < 0.93


class TestSuite:
    def test_program_caching(self):
        suite = WorkloadSuite(iters=10)
        assert suite.program("gcc") is suite.program("gcc")

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            WorkloadSuite().program("spice")

    def test_relocation_slots_distinct(self):
        suite = WorkloadSuite(iters=10)
        p0 = suite.program("gcc", 0)
        p1 = suite.program("gcc", 1)
        assert p1.text_base - p0.text_base == RELOCATION_STRIDE
        assert p1.data_base - p0.data_base == RELOCATION_STRIDE

    def test_relocated_kernel_still_runs(self):
        program = SHORT.program("li", slot=3)
        Emulator(program).run_to_halt(limit=1_000_000)

    def test_mix_assigns_slots(self):
        suite = WorkloadSuite(iters=10)
        mix = suite.mix(["gcc", "go", "gcc"])
        bases = [p.text_base for p in mix]
        assert len(set(bases)) == 3
        assert mix[0].name == "gcc" and mix[2].name == "gcc.2"

    def test_mixes_weight_benchmarks_evenly(self):
        suite = WorkloadSuite()
        mixes = suite.mixes(4, count=8)
        assert len(mixes) == 8
        assert all(len(m) == 4 for m in mixes)
        from collections import Counter
        counts = Counter(name for mix in mixes for name in mix)
        assert len(counts) == 8  # every benchmark appears
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_mixes_width_one(self):
        mixes = WorkloadSuite().mixes(1, count=8)
        assert sorted(m[0] for m in mixes) == sorted(WorkloadSuite().names)
