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
:class:`Core` remains the public API: it owns the state, steps the
stages, and keeps the historical ``_method`` names as thin delegators.
Those delegators are deliberate — they are the single
patch/observation point for tests (fault injection replaces
``core._execute`` et al.), and routing every cross-stage call through
them keeps instance-level patching effective after the split.

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
from typing import Iterator, List, Optional

from ..isa.program import Program, STACK_TOP
from ..isa.registers import FP_BASE, STACK_POINTER_REG
from ..stats.counters import SimStats
from ..tme.partition import Partition
from .config import MachineConfig
from .context import CtxState, HardwareContext
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
from .stages.commit import _values_equal  # noqa: F401  (re-export for tests)

__all__ = ["Core", "SimulationError", "gc_epoch"]


@contextlib.contextmanager
def gc_epoch() -> Iterator[None]:
    """Hold the cyclic garbage collector off for the block.

    A simulation allocates heavily (uops, fetch records, heap entries)
    but creates no garbage *cycles* worth collecting mid-run, and keeping
    the generational collector from scanning the growing columns is a
    measurable win.  One rule: whoever disables the collector collects.
    Entered with the collector enabled, the block disables it, then
    re-enables it and collects once on exit.  Entered with it already
    disabled, the block leaves it alone, and the caller that disabled it
    collects — so a batch slice pays one collection, not one per run.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


class Core:
    def __init__(self, config: Optional[MachineConfig] = None):
        self.state = CoreState(config)
        self.fetch = FetchStage(self)
        self.rename = RenameStage(self)
        self.forker = ForkUnit(self)
        self.issue = IssueStage(self)
        self.resolve = ResolveStage(self)
        self.commit = CommitStage(self)
        self._bind_delegators()
        self._profiler = None
        # Imported lazily: stats.recorder subscribes to pipeline.events,
        # and importing it at module scope would cycle back into here.
        from ..stats.recorder import StatsRecorder

        self.stats_recorder = StatsRecorder(self.state.stats, self.state.bus)

    # ------------------------------------------------------------------
    # Shared state, exposed under the historical attribute names
    # ------------------------------------------------------------------
    @property
    def config(self):
        return self.state.config

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
    def fp_queue(self):
        return self.state.fp_queue

    @property
    def fus(self):
        return self.state.fus

    @property
    def hierarchy(self):
        return self.state.hierarchy

    @property
    def predictor(self):
        return self.state.predictor

    @property
    def instances(self):
        return self.state.instances

    @property
    def partitions(self):
        return self.state.partitions

    @property
    def stats(self):
        return self.state.stats

    @property
    def util(self):
        return self.state.util

    @property
    def streams(self):
        return self.state.streams

    @property
    def bus(self):
        return self.state.bus

    @property
    def cycle(self):
        return self.state.cycle

    # ==================================================================
    # Workload loading
    # ==================================================================
    def load(self, programs: List[Program], commit_target: Optional[int] = None) -> None:
        """Start ``programs`` on evenly partitioned hardware contexts."""
        if not programs:
            raise ValueError("need at least one program")
        if len(programs) > self.config.num_contexts:
            raise ValueError("more programs than hardware contexts")
        per = self.config.num_contexts // len(programs)
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
            primary.map.init_fresh(self._initial_reg_value)
            instance.primary_ctx = primary.id
            instance.commit_ctx = primary.id
            self.instances.append(instance)
            self.partitions.append(partition)

    @staticmethod
    def _initial_reg_value(logical: int):
        if logical == STACK_POINTER_REG:
            return STACK_TOP
        return 0.0 if logical >= FP_BASE else 0

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
        self._finalize_stats()
        return self.stats

    def step(self) -> None:
        """Advance one cycle (reverse stage order)."""
        state = self.state
        stats = state.stats
        fetched0 = stats.fetched
        renamed0 = stats.renamed
        recycled0 = stats.renamed_recycled
        committed0 = stats.committed
        state.issued_this_cycle = 0
        profiler = self._profiler
        if profiler is None:
            self._commit_stage()
            self._complete_stage()
            self._issue_stage()
            self._rename_stage()
            self._fetch_stage()
        else:
            profiler.timed("commit", self._commit_stage)
            profiler.timed("complete", self._complete_stage)
            profiler.timed("issue", self._issue_stage)
            profiler.timed("rename", self._rename_stage)
            profiler.timed("fetch", self._fetch_stage)
        state.util.record_cycle(
            stats.fetched - fetched0,
            stats.renamed - renamed0,
            stats.renamed_recycled - recycled0,
            state.issued_this_cycle,
            stats.committed - committed0,
        )
        state.cycle += 1
        stats.cycles = state.cycle

    def set_profiler(self, profiler) -> None:
        """Attach (or clear) a per-stage profiler with a ``timed(name, fn)``
        method; ``None`` restores the unprofiled fast path."""
        self._profiler = profiler

    def _finalize_stats(self) -> None:
        self.commit.finalize_stats()

    # ==================================================================
    # Stage delegators (the historical private API)
    # ==================================================================
    def _bind_delegators(self) -> None:
        """Bind the stage entry points under the historical ``_method`` names.

        Stages route cross-stage and observable calls through these so
        that instance-attribute patching (tests, fault injection) still
        intercepts exactly one well-known name per behaviour.  They are
        instance attributes rather than ``def`` wrappers: several run
        tens of thousands of times per simulated run, and the extra
        delegator frame was measurable in the hot loop.  Patching
        semantics are unchanged — ``core._execute = fake`` replaces the
        attribute, and restoring the saved original rebinds the stage
        method.
        """
        # -- fetch -----------------------------------------------------
        self._fetch_stage = self.fetch.run
        self._fetch_block = self.fetch.fetch_block
        self._alt_fetch_allowed = self.fetch.alt_fetch_allowed
        self._open_stream = self.fetch.open_stream
        self._snapshot_trace = self.fetch.snapshot_trace
        # -- rename / recycle -----------------------------------------
        self._rename_stage = self.rename.run
        self._rename_one = self.rename.rename_one
        self._rename_reused = self.rename.rename_reused
        self._reuse_candidate = self.rename.reuse_candidate
        self._end_stream = self.rename.end_stream
        self._kill_stream = self.rename.kill_stream
        # -- TME fork / re-spawn --------------------------------------
        self._consider_fork = self.forker.consider_fork
        self._spawn = self.forker.spawn
        self._respawn = self.forker.respawn
        # -- issue / execute ------------------------------------------
        self._issue_stage = self.issue.run
        self._execute = self.issue.execute
        # -- completion / recovery / squash ---------------------------
        self._complete_stage = self.resolve.run
        self._swap_primaryship = self.resolve.swap_primaryship
        self._squash_uop = self.resolve.squash_uop
        self._squash_suffix = self.resolve.squash_suffix
        self._squash_context = self.resolve.squash_context
        self._reclaimable = self.resolve.reclaimable
        self._lru_reclaimable = self.resolve.lru_reclaimable
        self._reclaim_context = self.resolve.reclaim_context
        self._reclaim_for_pressure = self.resolve.reclaim_for_pressure
        self._account_deleted_path = self.resolve.account_deleted_path
        # -- commit ----------------------------------------------------
        self._commit_stage = self.commit.run
        self._retire = self.commit.retire

    # ==================================================================
    # Introspection helpers (tests, debugging)
    # ==================================================================
    def context(self, ctx_id: int) -> HardwareContext:
        return self.contexts[ctx_id]

    def instance_of(self, name: str) -> ProgramInstance:
        for inst in self.instances:
            if inst.name == name:
                return inst
        raise KeyError(name)
