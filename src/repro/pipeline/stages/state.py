"""Shared machine state for the pipeline stages.

:class:`CoreState` owns every piece of mutable simulator state — the
register file, hardware contexts, queues, predictor, statistics, the
open recycle streams and the cycle counter — and the stage objects all
operate on the *same* ``CoreState`` instance.  The split keeps each
stage module about one stage's logic while making the sharing explicit
instead of implicit in a monolithic class.

:class:`Stage` is the tiny common base: it binds the stable state
references once at construction so stage hot loops don't re-resolve
them, and keeps a back-reference to the owning
:class:`~repro.pipeline.core.Core` facade.  A stage calls its own
methods as ``self.x(...)`` and another stage's through the core
(``self.core.resolve.squash_suffix(...)``), so replacing a stage's
attribute (``core.resolve.squash_uop = f``) takes effect for every
caller.  Hot loops bind their callee when their ``run`` starts, so a
replacement must be in place before the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ...branch.predictor import BranchPredictor
from ...memory.hierarchy import MemoryHierarchy
from ...recycle.stream import RecycleStream
from ...stats.counters import SimStats
from ...stats.utilization import UtilizationStats
from ...tme.partition import Partition
from ..config import MachineConfig
from ..context import HardwareContext, IcountOrder
from ..events import EventBus
from ..instance import ProgramInstance
from ..queues import FunctionalUnits, InstructionQueue
from ..regfile import PhysicalRegisterFile
from ..uop import Uop
from ..uopcache import DecodedUopCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import Core


class SimulationError(RuntimeError):
    """An internal inconsistency (golden-model mismatch, deadlock, ...)."""


class CoreState:
    """All mutable machine state, shared by every pipeline stage."""

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        cfg = self.config
        nregs = cfg.phys_regs_per_file()
        self.regfile = PhysicalRegisterFile(nregs, nregs)
        self.contexts = [
            HardwareContext(i, self.regfile, cfg.active_list_size)
            for i in range(cfg.num_contexts)
        ]
        self.int_queue = InstructionQueue("int", cfg.int_queue_size, self.regfile)
        self.fp_queue = InstructionQueue("fp", cfg.fp_queue_size, self.regfile)
        self.icount_order = IcountOrder(self.contexts)
        self.fus = FunctionalUnits(cfg.int_units, cfg.fp_units, cfg.ldst_ports)
        self.hierarchy = MemoryHierarchy(cfg.hierarchy)
        self.predictor = BranchPredictor(
            num_contexts=cfg.num_contexts,
            pht_entries=cfg.pht_entries,
            btb_entries=cfg.btb_entries,
            btb_assoc=cfg.btb_assoc,
            ras_entries=cfg.ras_entries,
            confidence_entries=cfg.confidence_entries,
            confidence_threshold=cfg.confidence_threshold,
            confidence_kind=cfg.confidence_kind,
        )
        self.instances: List[ProgramInstance] = []
        self.partitions: List[Partition] = []
        self.stats = SimStats()
        self.util = UtilizationStats.for_machine(
            cfg.fetch_total, cfg.rename_width, cfg.int_units + cfg.fp_units,
            cfg.commit_width,
        )
        #: Decoded-uop memo: (program, pc) -> predigested static record.
        self.uop_cache = DecodedUopCache()
        self.bus = EventBus()
        self.cycle = 0
        self.issued_this_cycle = 0
        self.completions: Dict[int, List[Uop]] = {}
        #: One active recycle stream per destination context.
        self.streams: Dict[int, RecycleStream] = {}
        self.last_commit_cycle = 0
        # forward_store lookups that found / missed an older store.
        self.store_fwd_hits = 0
        self.store_fwd_misses = 0


class Stage:
    """Base class: binds the shared state and the owning core facade."""

    def __init__(self, core: "Core"):
        self.core = core
        state = core.state
        self.state = state
        # Stable references, bound once (the objects are mutated in
        # place; they are never replaced over a core's lifetime).
        self.config = state.config
        self.bus = state.bus
        #: Hot-path alias: ``EventType in self.bus_active`` == bus.wants.
        self.bus_active = state.bus.active
        self.stats = state.stats
        self.contexts = state.contexts
        self.regfile = state.regfile
        self.int_queue = state.int_queue
        self.fp_queue = state.fp_queue
        self.streams = state.streams
