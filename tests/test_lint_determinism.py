"""Tests for the determinism lint (``repro-sim lint``).

The lint is CI-enforced; these tests pin down its rules so a refactor
of the engine can't silently stop catching what it is there to catch —
and prove the shipped simulator core currently lints clean.  Each case
runs the real front end in-process: ``repro.cli.main(["lint", ...])``.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    """The default profile names repo-relative paths."""
    monkeypatch.chdir(REPO)


@pytest.fixture
def run_lint(capsys):
    """``repro-sim lint PATH...`` -> (returncode, stdout, stderr)."""

    def run(*argv):
        returncode = main(["lint", *map(str, argv)])
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=returncode, stdout=out, stderr=err)

    return run


def test_default_targets_are_clean(run_lint):
    proc = run_lint()
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_wall_clock_flagged(run_lint, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstart = time.time()\n")
    proc = run_lint(bad)
    assert proc.returncode == 1
    assert "DET001" in proc.stdout and "time.time" in proc.stdout


def test_module_global_random_flagged(run_lint, tmp_path):
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


def test_dict_view_iteration_flagged(run_lint, tmp_path):
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


def test_list_wrapper_does_not_launder(run_lint, tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("d = {}\nfor k in list(d.keys()):\n    pass\n")
    proc = run_lint(bad)
    assert proc.returncode == 1 and "DET003" in proc.stdout


def test_det_ok_suppression_requires_reason(run_lint, tmp_path):
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


def test_setattr_on_core_flagged(run_lint, tmp_path):
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


def test_private_core_assignment_flagged(run_lint, tmp_path):
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


def test_filesystem_order_iteration_fails_the_run(run_lint, tmp_path):
    """DET005 blocks like every other rule: a loop over an unsorted
    directory listing exits 1 and is a SARIF error; the sorted loop, or
    a justified ``# det-ok``, exits 0."""
    unsorted = (
        "import os\n"
        "def names(root):\n"
        "    return [name for name in os.listdir(root)]\n"
    )
    src = tmp_path / "listing.py"
    src.write_text(unsorted)
    sarif = tmp_path / "lint.sarif"
    proc = run_lint(src, "--sarif", sarif)
    assert proc.returncode == 1
    assert proc.stdout.count("DET005") == 1 and ":3:" in proc.stdout
    results = json.loads(sarif.read_text())["runs"][0]["results"]
    assert [(r["ruleId"], r["level"]) for r in results] == [("DET005", "error")]
    for fixed in (
        unsorted.replace("in os.listdir(root)", "in sorted(os.listdir(root))"),
        unsorted.replace("(root)]", "(root)]  # det-ok: callers sort"),
    ):
        src.write_text(fixed)
        proc = run_lint(src)
        assert proc.returncode == 0, proc.stdout


def test_src_tree_clean_under_det004(run_lint):
    # The default run sweeps all of src/repro with DET004 — the shipped
    # package must contain no core monkey-patching.
    proc = run_lint()
    assert proc.returncode == 0
    assert "DET004" not in proc.stdout


def test_missing_path_is_an_error(run_lint, tmp_path):
    proc = run_lint(tmp_path / "no_such_dir")
    assert proc.returncode == 2


@pytest.mark.parametrize("target", ["src/repro/pipeline", "src/repro/recycle"])
def test_individual_targets_clean(run_lint, target):
    proc = run_lint(REPO / target)
    assert proc.returncode == 0, proc.stdout

