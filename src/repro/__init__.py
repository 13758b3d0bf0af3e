"""repro — instruction recycling on a multiple-path processor.

A from-scratch Python reproduction of Wallace, Tullsen & Calder,
"Instruction Recycling on a Multiple-Path Processor" (HPCA-5, 1999):
an execution-driven, cycle-stepped simulator of a simultaneous
multithreading (SMT) processor with Threaded Multipath Execution (TME)
and the paper's instruction recycling / reuse / re-spawning mechanisms,
plus the synthetic workload suite and the experiment harness that
regenerates the paper's figures and table.

Quick start::

    from repro import Core, MachineConfig, Features, WorkloadSuite

    suite = WorkloadSuite()
    core = Core(MachineConfig(features=Features.rec_rs_ru()))
    core.load(suite.single("compress"), commit_target=3000)
    stats = core.run()
    print(stats.ipc, stats.pct_recycled)

or declaratively::

    from repro import RunSpec, run_spec
    print(run_spec(RunSpec(("gcc", "go"), features="REC/RS/RU")).summary_line())
"""

from .emulator import Emulator, SparseMemory
from .exec import Chaos, ExecutionError, Executor, Job, JobOutcome, ResultCache
from .isa import Instruction, Op, Program, assemble
from .memory import MemoryHierarchy
from .pipeline import Core, Features, MachineConfig, RecyclePolicy, SimulationError
from .sim import RunResult, RunSpec, run_spec
from .stats import SimStats
from .workloads import GeneratorConfig, WorkloadSuite, generate_program

#: Release label only (``/healthz``, the HTTP ``Server`` header); cache
#: keys name the simulator by :func:`repro.exec.cache.sim_fingerprint`.
__version__ = "1.0.0"

__all__ = [
    "Chaos",
    "ExecutionError",
    "Executor",
    "Job",
    "JobOutcome",
    "ResultCache",
    "Emulator",
    "SparseMemory",
    "Instruction",
    "Op",
    "Program",
    "assemble",
    "MemoryHierarchy",
    "Core",
    "Features",
    "MachineConfig",
    "RecyclePolicy",
    "SimulationError",
    "RunResult",
    "RunSpec",
    "run_spec",
    "SimStats",
    "GeneratorConfig",
    "WorkloadSuite",
    "generate_program",
    "__version__",
]
