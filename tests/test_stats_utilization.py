"""Slot usage: per-cycle width bounds and the recycle share of rename.

The paper's central argument is a bandwidth argument: recycling
"increases the raw bandwidth into the processor by merging recycled
instructions with fetched instructions".  ``SimStats`` counts those
slots (``fetched``, ``renamed``, ``renamed_recycled``, ``committed``);
these tests read the claim off the counters, and check through the
``Core.set_profiler`` hook that no stage uses more slots in a cycle than
its width.
"""

from repro.isa import assemble
from repro.pipeline import Core, Features, MachineConfig

SRC = """
main:  movi r1, 777
       movi r2, 150
loop:  slli r3, r1, 13
       xor  r1, r1, r3
       srli r3, r1, 7
       xor  r1, r1, r3
       andi r4, r1, 1
       beq  r4, skip
       addi r5, r5, 1
skip:  subi r2, r2, 1
       bgt  r2, loop
       halt
"""


class WidthBounds:
    """A profiler for ``Core.set_profiler`` that asserts, each cycle, that
    ``stats.fetched``, ``stats.renamed`` and ``stats.committed`` rose by at
    most ``fetch_total``, ``rename_width`` and ``commit_width``.
    ``cycles`` counts the cycles checked."""

    def __init__(self, core):
        config = core.state.config
        self.stats = core.stats
        self.widths = (config.fetch_total, config.rename_width, config.commit_width)
        self.cycles = 0
        self._start = None
        core.set_profiler(self)

    def _slots(self):
        stats = self.stats
        return (stats.fetched, stats.renamed, stats.committed)

    def timed(self, name, fn):
        if name == "commit":  # a cycle's first stage
            self._start = self._slots()
        fn()
        if name == "fetch":  # and its last
            used = tuple(now - then for now, then in zip(self._slots(), self._start))
            assert all(u <= w for u, w in zip(used, self.widths)), (
                f"cycle {self.cycles}: (fetched, renamed, committed) = {used} "
                f"beyond widths {self.widths}"
            )
            self.cycles += 1


def run(features):
    core = Core(MachineConfig(features=features))
    core.load([assemble(SRC, name="u")])
    return core.run(max_cycles=300_000)


class TestCoreIntegration:
    def test_recycling_supplies_rename_slots(self):
        smt = run(Features.smt())
        rec = run(Features.rec_rs_ru())
        assert smt.renamed_recycled == 0
        assert rec.renamed_recycled / rec.renamed > 0.1
        # The paper's bandwidth claim: rename throughput rises.
        assert rec.renamed / rec.cycles > smt.renamed / smt.cycles

    def test_widths_respected(self):
        core = Core(MachineConfig(features=Features.rec_rs_ru()))
        core.load([assemble(SRC, name="u")])
        bounds = WidthBounds(core)
        stats = core.run(max_cycles=300_000)
        assert bounds.cycles == stats.cycles > 0
