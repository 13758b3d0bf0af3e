"""Tests for the determinism lint (tools/lint_determinism.py).

The lint is CI-enforced; these tests pin down its rules so a refactor
of the tool can't silently stop catching what it is there to catch —
and prove the shipped simulator core currently lints clean.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "lint_determinism.py"


def run_lint(*paths):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, paths)],
        capture_output=True, text=True, cwd=REPO,
    )


def test_default_targets_are_clean():
    proc = run_lint()
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_wall_clock_flagged(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstart = time.time()\n")
    proc = run_lint(bad)
    assert proc.returncode == 1
    assert "DET001" in proc.stdout and "time.time" in proc.stdout


def test_module_global_random_flagged(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import random\n"
        "x = random.random()\n"
        "rng = random.Random()\n"
        "ok = random.Random(42)\n"
    )
    proc = run_lint(bad)
    assert proc.returncode == 1
    flagged = [line for line in proc.stdout.splitlines() if "DET002" in line]
    assert len(flagged) == 2  # the seeded Random(42) is fine


def test_dict_view_iteration_flagged(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "d = {1: 2}\n"
        "for k in d.keys():\n"
        "    pass\n"
        "xs = [v for v in d.values()]\n"
        "ys = list({1, 2, 3})\n"
        "for y in ys:\n"  # iterating a materialized list variable is fine
        "    pass\n"
        "for k in sorted(d.keys()):\n"  # sorted() launders the order
        "    pass\n"
    )
    proc = run_lint(bad)
    assert proc.returncode == 1
    flagged = [line for line in proc.stdout.splitlines() if "DET003" in line]
    assert len(flagged) == 2


def test_list_wrapper_does_not_launder(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("d = {}\nfor k in list(d.keys()):\n    pass\n")
    proc = run_lint(bad)
    assert proc.returncode == 1 and "DET003" in proc.stdout


def test_det_ok_suppression_requires_reason(tmp_path):
    src = tmp_path / "mixed.py"
    src.write_text(
        "import time\n"
        "a = time.time()  # det-ok: informational only\n"
        "b = time.time()  # det-ok:\n"
    )
    proc = run_lint(src)
    # the justified line is exempt, the empty-reason one is not
    assert proc.returncode == 1
    assert proc.stdout.count("DET001") == 1
    assert ":3:" in proc.stdout


def test_setattr_on_core_flagged(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def instrument(core, fn):\n"
        "    setattr(core, '_execute', fn)\n"
        "    setattr(core.rename, '_rename_one', fn)\n"
        "    setattr(self.core, '_retire', fn)\n"
        "    setattr(other, '_execute', fn)\n"  # not a core reference
    )
    proc = run_lint(bad)
    assert proc.returncode == 1
    flagged = [line for line in proc.stdout.splitlines() if "DET004" in line]
    assert len(flagged) == 3
    assert "event bus" in proc.stdout


def test_private_core_assignment_flagged(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "core._execute = fn\n"
        "self.core.resolve._squash_uop = fn\n"
        "core.tracer = t\n"  # public attribute: allowed
        "self._handler = fn\n"  # private on self: allowed
        "object.__setattr__(uop, 'pc', 4)\n"  # dotted call, not bare setattr
    )
    proc = run_lint(bad)
    assert proc.returncode == 1
    flagged = [line for line in proc.stdout.splitlines() if "DET004" in line]
    assert len(flagged) == 2


def test_src_tree_clean_under_det004():
    # The default run sweeps all of src/repro with DET004 — the shipped
    # package must contain no core monkey-patching.
    proc = run_lint()
    assert proc.returncode == 0
    assert "DET004" not in proc.stdout


def test_missing_path_is_an_error(tmp_path):
    proc = run_lint(tmp_path / "no_such_dir")
    assert proc.returncode == 2


@pytest.mark.parametrize("target", ["src/repro/pipeline", "src/repro/recycle"])
def test_individual_targets_clean(target):
    proc = run_lint(REPO / target)
    assert proc.returncode == 0, proc.stdout


def test_parallel_lint_matches_serial(tmp_path):
    """``jobs=2`` lints the files on a process pool; the findings are
    exactly the in-process ones, in the same order."""
    from repro.analysis.lint.engine import lint_files

    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstart = time.time()\nfor k in {1: 2}.keys():\n    pass\n")
    files = [bad, *sorted((REPO / "src" / "repro" / "exec").glob("*.py"))]
    serial = lint_files(files, jobs=1)
    assert {f.code for f in serial if f.path == str(bad)} == {"DET001", "DET003"}
    assert any(f.path != str(bad) for f in serial)
    assert lint_files(files, jobs=2) == serial
