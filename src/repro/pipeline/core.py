"""The SMT/TME/Recycle processor core — facade over the stage modules.

A cycle-stepped, execution-driven model of the paper's machine: each
cycle runs commit → completion → issue → rename → fetch (reverse stage
order so a cycle's results propagate next cycle).  Values are computed
for real on the shared physical register file — wrong paths execute,
stores drain at commit, and every architectural commit is cross-checked
against a golden functional emulator.

The stage logic lives in :mod:`repro.pipeline.stages` (one module per
stage, sharing an explicit :class:`~repro.pipeline.stages.CoreState`),
and observers subscribe to the typed event bus in
:mod:`repro.pipeline.events` instead of monkey-patching methods.
:class:`Core` remains the public API: it owns the state and the six
stage objects (``fetch``, ``rename``, ``forker``, ``issue``,
``resolve``, ``commit``) and steps them.  Stages call each other
directly through the core (``self.core.resolve.squash_suffix(...)``),
so a test replaces one behaviour by assigning the stage attribute
(``core.issue.execute = fake``) before the run starts.

The TME and recycling behaviour (Sections 2-3):

* confidence-gated forking of primary-thread branches into spare
  contexts, with map duplication and path-history forking
  (:mod:`~repro.pipeline.stages.fork`);
* resolution: correctly-predicted forks deactivate their alternate into
  a recyclable *inactive* context; mispredicted forks swap primaryship
  and thread the architectural commit stream across contexts
  (:mod:`~repro.pipeline.stages.resolve`);
* merge-point detection at fetch (first-PC of spare traces, own
  backward-branch targets) opening recycle streams into rename
  (:mod:`~repro.pipeline.stages.fetch`);
* instruction reuse via the written-bit array + MDB, implemented as
  re-installing the old physical mapping, and re-spawning of inactive
  traces through the recycle datapath
  (:mod:`~repro.pipeline.stages.rename`).
"""

from __future__ import annotations

import contextlib
import gc
import threading
from typing import Iterator, List, Optional

from ..emulator.state import initial_reg_value
from ..isa.program import Program
from ..stats.counters import SimStats
from ..tme.partition import Partition
from .config import MachineConfig
from .context import CtxState
from .instance import ProgramInstance
from .stages import (
    CommitStage,
    CoreState,
    FetchStage,
    ForkUnit,
    IssueStage,
    RenameStage,
    ResolveStage,
    SimulationError,
)

__all__ = ["Core", "SimulationError", "gc_epoch"]


#: Epochs open in this process, and the lock that orders their entry
#: and exit across threads.
_epoch_lock = threading.Lock()
_open_epochs = 0


@contextlib.contextmanager
def gc_epoch() -> Iterator[None]:
    """Hold the cyclic garbage collector off for the block, then collect
    the young generation once.

    A simulation allocates heavily (uops, fetch records, heap entries)
    but creates no garbage *cycles* worth collecting mid-run, and keeping
    the generational collector from scanning the live window is a
    measurable win.  One rule: the last open epoch collects.  The first
    epoch to open while the collector is enabled disables it; nested
    epochs, and epochs on other threads, join the count; the last one to
    close re-enables the collector and collects.  So the consecutive
    points one pool worker serves, or the tasks of one remote lease, pay
    one collection, not one per run, and two simulations on two threads
    are both collected when the later one ends.  An epoch entered while
    someone else disabled the collector (a pool worker, for good) leaves
    it alone, and collection to whoever disabled it.

    With the collector off, nothing allocated in the block is promoted
    out of generation 0, so ``gc.collect(0)`` reaches every cycle the
    block made and none of the process's older objects.  That frees a
    core only if nothing outside it still references it at the exit: a
    caller that wants the core gone with its epoch builds, runs and
    drops it inside the block (as :func:`repro.sim.runner.run_spec`
    does) and keeps no local bound to it past the block.
    """
    global _open_epochs
    with _epoch_lock:
        counted = _open_epochs > 0 or gc.isenabled()
        if counted:
            if _open_epochs == 0:
                gc.disable()
            _open_epochs += 1
    if not counted:
        yield
        return
    try:
        yield
    finally:
        with _epoch_lock:
            _open_epochs -= 1
            if _open_epochs == 0:
                gc.enable()
                gc.collect(0)


class Core:
    def __init__(self, config: Optional[MachineConfig] = None):
        self.state = CoreState(config)
        self.fetch = FetchStage(self)
        self.rename = RenameStage(self)
        self.forker = ForkUnit(self)
        self.issue = IssueStage(self)
        self.resolve = ResolveStage(self)
        self.commit = CommitStage(self)
        self._profiler = None

    # ------------------------------------------------------------------
    # Shared state that callers read (tests, runner, tracer, checker)
    # ------------------------------------------------------------------
    @property
    def regfile(self):
        return self.state.regfile

    @property
    def contexts(self):
        return self.state.contexts

    @property
    def int_queue(self):
        return self.state.int_queue

    @property
    def instances(self):
        return self.state.instances

    @property
    def stats(self):
        return self.state.stats

    @property
    def bus(self):
        return self.state.bus

    # ==================================================================
    # Workload loading
    # ==================================================================
    def load(self, programs: List[Program], commit_target: Optional[int] = None) -> None:
        """Start ``programs`` on evenly partitioned hardware contexts."""
        if not programs:
            raise ValueError("need at least one program")
        num_contexts = self.state.config.num_contexts
        if len(programs) > num_contexts:
            raise ValueError("more programs than hardware contexts")
        per = num_contexts // len(programs)
        for i, program in enumerate(programs):
            instance = ProgramInstance(i, program)
            instance.commit_target = commit_target
            ctxs = self.contexts[i * per : (i + 1) * per]
            partition = Partition(ctxs, ctxs[0])
            instance.partition = partition
            for ctx in ctxs:
                ctx.instance = instance
            primary = ctxs[0]
            primary.state = CtxState.ACTIVE
            primary.is_primary = True
            primary.pc = program.entry
            primary.map.init_fresh(initial_reg_value)
            instance.primary_ctx = primary.id
            instance.commit_ctx = primary.id
            self.instances.append(instance)
            self.state.partitions.append(partition)

    # ==================================================================
    # Main loop
    # ==================================================================
    def run(self, max_cycles: int = 1_000_000, deadlock_limit: int = 20_000) -> SimStats:
        """Simulate until every instance reaches its commit target/halts."""
        state = self.state
        instances = self.instances
        step = self.step
        with gc_epoch():
            while state.cycle < max_cycles:
                for inst in instances:
                    if not (inst.halted or inst.reached_target()):
                        break
                else:  # every instance done
                    break
                step()
                if state.cycle - state.last_commit_cycle > deadlock_limit:
                    raise SimulationError(
                        f"no commits for {deadlock_limit} cycles at cycle "
                        f"{state.cycle}; contexts: {self.contexts}"
                    )
        self.commit.finalize_stats()
        return self.stats

    def step(self) -> None:
        """Advance one cycle (reverse stage order)."""
        state = self.state
        profiler = self._profiler
        if profiler is None:
            self.commit.run()
            self.resolve.run()
            self.issue.run()
            self.rename.run()
            self.fetch.run()
        else:
            profiler.timed("commit", self.commit.run)
            profiler.timed("complete", self.resolve.run)
            profiler.timed("issue", self.issue.run)
            profiler.timed("rename", self.rename.run)
            profiler.timed("fetch", self.fetch.run)
        state.cycle += 1
        state.stats.cycles = state.cycle

    def set_profiler(self, profiler) -> None:
        """Attach (or clear) a per-stage profiler with a ``timed(name, fn)``
        method; ``None`` restores the unprofiled fast path."""
        self._profiler = profiler
