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

from importlib import import_module
from typing import Any, List

#: Release label only (``/healthz``, the HTTP ``Server`` header); cache
#: keys name the simulator by :func:`repro.exec.cache.sim_fingerprint`.
__version__ = "1.0.0"

#: Each re-exported name -> the subpackage that provides it.  Importing
#: ``repro`` loads none of them: :func:`__getattr__` imports one on first
#: use, so a process that simulates loads only the simulator.
_EXPORTS = {
    **dict.fromkeys(
        ("Chaos", "ExecutionError", "Executor", "Job", "JobOutcome", "ResultCache"), ".exec"
    ),
    **dict.fromkeys(("Emulator", "SparseMemory"), ".emulator"),
    **dict.fromkeys(("Instruction", "Op", "Program", "assemble"), ".isa"),
    "MemoryHierarchy": ".memory",
    **dict.fromkeys(
        ("Core", "Features", "MachineConfig", "RecyclePolicy", "SimulationError"), ".pipeline"
    ),
    **dict.fromkeys(("RunResult", "RunSpec", "run_spec"), ".sim"),
    "SimStats": ".stats",
    **dict.fromkeys(("GeneratorConfig", "WorkloadSuite", "generate_program"), ".workloads"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


def __dir__() -> List[str]:
    return sorted({*globals(), *_EXPORTS})
