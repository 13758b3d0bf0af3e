"""What a process that simulates imports.

Every CLI run, pool worker, service worker and benchmark process pays
for the modules it imports before its first cycle, so the package
``__init__``s re-export their names lazily (PEP 562 ``__getattr__``) and
never import a sibling subsystem eagerly.  These tests pin both halves:
a fresh interpreter that imports the simulator, a remote service worker
or the CLI loads none of the tools around it that it does not call, and
every name a package or module lists in ``__all__`` still resolves.
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
LAZY_PACKAGES = ("repro", "repro.exec", "repro.service", "repro.sim", "repro.workloads")

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


def _exporters():
    """Every package under ``repro``, and every plain module that lists ``__all__``."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg or hasattr(importlib.import_module(info.name), "__all__"):
            names.append(info.name)
    return names


#: Modules (each with its submodules) that a remote worker, which leases
#: tasks over HTTP and runs them, never calls.
NOT_REMOTE_WORKER = (
    "http.server",
    "repro.service.server",
    "repro.service.scheduler",
    "repro.service.spec",
    "repro.service.store",
    "repro.sim.sweep",
)

#: Modules (each with its submodules) that ``repro-sim run`` without
#: ``--cache-dir`` or ``--json`` never calls: the process pool and the
#: figure drivers load inside the subcommands that use them.
NOT_CLI_RUN = ("multiprocessing", "repro.exec", "repro.sim.experiments")


def _loaded_by(*modules):
    """``sys.modules`` of a fresh interpreter after importing ``modules``."""
    code = (
        "import json, sys\n"
        f"import {', '.join(modules)}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(done.stdout)


def _under(loaded, prefixes):
    return [name for name in loaded
            if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)]


def test_a_simulation_imports_only_the_simulator():
    loaded = _loaded_by(*SIMULATION_IMPORTS)
    assert "repro.pipeline.core" in loaded
    assert _under(loaded, NOT_SIMULATOR) == []


def test_a_remote_worker_imports_no_server():
    loaded = _loaded_by("repro.service.worker")
    assert "repro.service.client" in loaded and "repro.pipeline.core" in loaded
    assert _under(loaded, NOT_REMOTE_WORKER) == []


def test_the_cli_imports_no_pool_and_no_figure_driver():
    loaded = _loaded_by("repro.cli")
    assert "repro.sim.runner" in loaded
    assert _under(loaded, NOT_CLI_RUN) == []


@pytest.mark.parametrize("module", _exporters())
def test_every_exported_name_resolves(module):
    module = importlib.import_module(module)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_stay_listed_by_dir(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
