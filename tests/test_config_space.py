"""Configuration-space robustness: random machine shapes stay golden-clean.

Recycling interacts with every width and size in the machine; these
tests drive a fixed hard-branch kernel through randomly drawn machine
configurations (and the full machine × variant matrix) to guarantee no
configuration corner breaks the architectural contract.  On the random
machines a profiler also checks, every cycle, that fetch, rename and
commit stay within their widths.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.pipeline import Core, Features, MachineConfig
from repro.sim import MACHINES, VARIANTS
from repro.workloads import WorkloadSuite
from tests.test_stats_utilization import WidthBounds

KERNEL = """
main:  movi r1, 777
       movi r2, 150
loop:  slli r3, r1, 13
       xor  r1, r1, r3
       srli r3, r1, 7
       xor  r1, r1, r3
       andi r4, r1, 1
       beq  r4, skip
       addi r5, r5, 1
skip:  st   r5, 0(r6)
       ld   r7, 0(r6)
       subi r2, r2, 1
       bgt  r2, loop
       halt
"""

machine_configs = st.builds(
    dict,
    fetch_threads=st.integers(1, 3),
    fetch_block=st.sampled_from([4, 8]),
    fetch_total=st.sampled_from([4, 8, 16]),
    rename_width=st.sampled_from([4, 8, 16]),
    commit_width=st.sampled_from([4, 8, 16]),
    int_queue_size=st.sampled_from([8, 16, 64]),
    int_units=st.integers(2, 12),
    fp_units=st.integers(1, 6),
    ldst_ports=st.integers(1, 8),
    active_list_size=st.sampled_from([16, 32, 64]),
    extra_phys_regs=st.sampled_from([16, 50, 100]),
    num_contexts=st.sampled_from([2, 4, 8]),
    confidence_threshold=st.integers(1, 15),
)


class TestRandomConfigurations:
    @given(overrides=machine_configs)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rec_rs_ru_golden_clean_on_random_machines(self, overrides):
        cfg = MachineConfig(features=Features.rec_rs_ru(), **overrides)
        core = Core(cfg)
        core.load([assemble(KERNEL, name="k")])
        bounds = WidthBounds(core)
        stats = core.run(max_cycles=500_000)
        assert core.instances[0].halted
        assert bounds.cycles == stats.cycles
        core.regfile.check_consistency()

    @given(overrides=machine_configs)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tme_golden_clean_on_random_machines(self, overrides):
        cfg = MachineConfig(features=Features.tme_only(), **overrides)
        core = Core(cfg)
        core.load([assemble(KERNEL, name="k")])
        bounds = WidthBounds(core)
        stats = core.run(max_cycles=500_000)
        assert core.instances[0].halted
        assert bounds.cycles == stats.cycles


class TestFullMatrix:
    @pytest.mark.parametrize("machine", MACHINES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_machine_variant_pair(self, machine, variant):
        suite = WorkloadSuite()
        features = Features.all_variants()[variant]
        cfg = MachineConfig.by_name(machine, features=features)
        core = Core(cfg)
        core.load(suite.single("compress"), commit_target=400)
        stats = core.run(max_cycles=500_000)
        assert stats.committed >= 400
        core.regfile.check_consistency()
