"""Store-to-load forwarding: the hit path works, and compress's zero.

A store-forwarding hit rate of 0.0 on a 100,000-commit compress run
prompted an investigation (is the forwarding index losing hits?).  Finding: the mechanism is sound — a completed-but-not-
yet-retired older store to the same address *does* forward, exploiting
the commit → complete → issue stage order (a store completing in cycle
``c`` cannot retire before cycle ``c+1``, while a load blocked on it
un-blocks and issues in cycle ``c``).  Compress specifically never
forwards because its memory traffic is structurally disjoint: every
load reads the ``input`` stream and every store writes the ``htab``
hash table, so no load address is ever covered by an in-flight store.
These tests pin both facts.
"""

import pytest

from repro.isa import assemble
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import Core
from repro.pipeline.events import Issued
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite

#: Every iteration stores to ``buf[0]`` and immediately loads it back:
#: the load is blocked while the store is pending, un-blocks the cycle
#: the store completes, and must forward (the store cannot have retired
#: yet — commit for that cycle already ran).
FORWARDING_LOOP = """
        .data
buf:    .space 64
        .text
main:   movi r1, buf
        movi r2, 20
loop:   ld   r4, 0(r1)
        addi r4, r4, 1
        st   r4, 0(r1)
        ld   r5, 0(r1)
        add  r6, r6, r5
        subi r2, r2, 1
        bgt  r2, loop
        halt
"""


class TestForwardingHitPath:
    def test_known_forwardable_pair_hits(self):
        core = Core(MachineConfig())
        core.load([assemble(FORWARDING_LOOP, name="fwd")])
        core.run(max_cycles=100_000)
        state = core.state
        assert state.store_fwd_hits > 0, (
            "a store -> same-address load pair in flight must forward; "
            f"got {state.store_fwd_hits} hits / {state.store_fwd_misses} misses"
        )
        # The reloaded value must be the stored one: r6 accumulates the
        # forwarded loads, so a wrong-value forward would change commits.
        assert state.store_fwd_misses <= 1  # only the cold first load misses

    def test_forwarded_value_is_correct(self):
        """End state proves values: 20 increments of buf[0] forwarded
        back out means the accumulator saw 1+2+...+20."""
        core = Core(MachineConfig())
        program = assemble(FORWARDING_LOOP, name="fwd")
        core.load([program])
        core.run(max_cycles=100_000)
        instance = core.instances[0]
        # buf[0] ends at 20 (memory state after all stores retired).
        base = program.data_base
        assert instance.memory.read64(base) == 20


class TestCompressNeverForwards:
    @pytest.fixture(scope="class")
    def traced_run(self):
        spec = RunSpec(workload=("compress",))
        core = Core(spec.build_config())
        core.load(
            WorkloadSuite().mix(spec.workload),
            commit_target=spec.commit_target,
        )
        load_addrs, store_addrs = set(), set()

        def on_issue(event):
            info = event.uop.instr.info
            if info.is_load:
                load_addrs.add(event.uop.eff_addr)
            elif info.is_store:
                store_addrs.add(event.uop.eff_addr)

        core.state.bus.subscribe(Issued, on_issue)
        core.run(max_cycles=spec.max_cycles)
        return core.state, load_addrs, store_addrs

    def test_zero_hits_is_legitimate_address_disjointness(self, traced_run):
        """Compress loads only the input stream and stores only the hash
        table — the address sets never intersect, so zero forwarding
        hits is correct behaviour, not a lost-hit bug."""
        state, load_addrs, store_addrs = traced_run
        assert state.store_fwd_hits == 0
        assert state.store_fwd_misses > 0  # loads did probe the index
        assert load_addrs and store_addrs
        assert not (load_addrs & store_addrs)
