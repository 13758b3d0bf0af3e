"""What a process that simulates imports.

Every CLI run, pool worker, service worker and benchmark process pays
for the modules it imports before its first cycle, so the package
``__init__``s re-export their names lazily (PEP 562 ``__getattr__``) and
never import a sibling subsystem eagerly.  These tests pin both halves:
a fresh interpreter that imports the simulator loads none of the tools
around it, and every name a package lists in ``__all__`` still resolves.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: What a simulation imports: the package, one run, the suite, one job.
SIMULATION_IMPORTS = ("repro", "repro.sim.runner", "repro.workloads.suite", "repro.exec.jobs")

#: Packages whose ``__init__`` resolves its re-exported names on first use.
LAZY_PACKAGES = ("repro", "repro.exec", "repro.sim", "repro.workloads")

#: Modules (each with its submodules) that no simulation calls.
NOT_SIMULATOR = (
    "repro.analysis",
    "repro.branch.analysis",
    "repro.exec.pool",
    "repro.exec.cache",
    "repro.exec.progress",
    "repro.sim.experiments",
    "repro.sim.sweep",
    "repro.workloads.generator",
    "repro.service",
    "repro.cli",
    "multiprocessing",
)


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def test_a_simulation_imports_only_the_simulator():
    code = (
        "import json, sys\n"
        f"import {', '.join(SIMULATION_IMPORTS)}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    loaded = json.loads(done.stdout)
    assert "repro.pipeline.core" in loaded
    unwanted = [name for name in loaded
                if any(name == prefix or name.startswith(prefix + ".")
                       for prefix in NOT_SIMULATOR)]
    assert unwanted == []


@pytest.mark.parametrize("package", _packages())
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_stay_listed_by_dir(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
