"""Baseline hygiene: stale-entry detection, pruning, and the CLI flags
that enforce it (``--prune-baseline``, ``--fail-stale``).

A baseline entry goes *stale* when the run re-checked it — its rule ran
and its file was linted — yet the finding no longer fires.  Stale
entries are ratchet debt that silently re-admits regressions, so CI can
fail on them and ``--prune-baseline`` removes them.
"""

import json
import textwrap

import pytest

from repro.analysis.lint import Baseline, LintTarget, run_lint
from repro.cli import main

# One DET005 hit (DET005 is warn-first, so a baseline can cover it):
# a loop over directory entries in filesystem order.
UNSORTED = """
    import os
    def names(root):
        return [name for name in os.listdir(root)]
"""

FIXED = UNSORTED.replace("in os.listdir(root)", "in sorted(os.listdir(root))")


def write_module(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def det005_target(path):
    return [LintTarget(paths=(str(path),), codes=("DET005",))]


@pytest.fixture
def unsorted_baseline(tmp_path):
    """A module with one DET005 hit and a baseline that covers it."""
    path = write_module(tmp_path, UNSORTED)
    result = run_lint(det005_target(path))
    assert len(result.findings) == 1
    baseline = Baseline.from_findings(result.findings)
    baseline_path = tmp_path / "baseline.json"
    baseline.save(baseline_path)
    return path, baseline_path, result.findings[0].fingerprint


class TestStaleDetection:
    def test_live_entry_is_not_stale(self, unsorted_baseline):
        path, baseline_path, _ = unsorted_baseline
        result = run_lint(
            det005_target(path), baseline=Baseline.load(baseline_path)
        )
        assert result.stale == []
        assert result.blocking == []  # covered by the baseline
        assert len(result.baselined) == 1

    def test_fixed_finding_goes_stale(self, unsorted_baseline):
        path, baseline_path, fingerprint = unsorted_baseline
        path.write_text(textwrap.dedent(FIXED))
        result = run_lint(
            det005_target(path), baseline=Baseline.load(baseline_path)
        )
        assert result.stale == [fingerprint]
        assert result.findings == []

    def test_unchecked_entry_is_left_alone(self, unsorted_baseline):
        """An entry is only stale when this run actually re-checked it:
        linting a *different* file, or skipping the rule, must not
        condemn it."""
        path, baseline_path, _ = unsorted_baseline
        path.write_text(textwrap.dedent(FIXED))
        baseline = Baseline.load(baseline_path)

        other = write_module(path.parent, FIXED, name="other.py")
        assert run_lint(det005_target(other), baseline=baseline).stale == []

        different_rule = [LintTarget(paths=(str(path),), codes=("DET001",))]
        assert run_lint(different_rule, baseline=baseline).stale == []


class TestPrune:
    def test_prune_removes_and_counts(self):
        baseline = Baseline({"a::DET005::x": 1, "b::DET005::y": 2})
        assert baseline.prune(["a::DET005::x", "never::DET005::z"]) == 1
        assert sorted(baseline.entries) == ["b::DET005::y"]

    def test_prune_empty_is_noop(self):
        baseline = Baseline({"a::DET005::x": 1})
        assert baseline.prune([]) == 0
        assert len(baseline) == 1


class TestDeadRuleEntries:
    """Entries whose rule id left the registry are stale no matter what
    was linted: a retired rule can never fire again, so its debt is
    dead weight."""

    def test_dead_rule_entry_is_stale_without_relinting(self, tmp_path):
        path = write_module(tmp_path, FIXED)
        baseline = Baseline({"elsewhere.py::DET999::long gone": 1})
        result = run_lint(det005_target(path), baseline=baseline)
        assert result.stale == ["elsewhere.py::DET999::long gone"]

    def test_live_rule_entry_for_unlinted_file_survives(self, tmp_path):
        """Contrast: a *known* rule's entry for a file this run never
        looked at must not be condemned."""
        path = write_module(tmp_path, FIXED)
        baseline = Baseline({"elsewhere.py::DET005::maybe still real": 1})
        result = run_lint(det005_target(path), baseline=baseline)
        assert result.stale == []

    def test_malformed_fingerprints_are_left_alone(self, tmp_path):
        path = write_module(tmp_path, FIXED)
        baseline = Baseline({"not-a-fingerprint": 1})
        assert run_lint(det005_target(path), baseline=baseline).stale == []

    def test_prune_baseline_drops_dead_rule_entries(self, tmp_path, capsys):
        path = write_module(tmp_path, FIXED)
        baseline_path = tmp_path / "baseline.json"
        Baseline({"elsewhere.py::DET999::long gone": 1}).save(baseline_path)
        code = main([
            "lint", str(path), "--rules", "DET005",
            "--baseline", str(baseline_path), "--prune-baseline",
        ])
        assert code == 0
        assert "pruned 1 stale entry" in capsys.readouterr().out
        assert json.loads(baseline_path.read_text())["entries"] == {}


class TestCliHygieneFlags:
    def lint(self, *argv):
        return main(["lint", *argv])

    def test_fail_stale_exits_nonzero(self, unsorted_baseline, capsys):
        path, baseline_path, fingerprint = unsorted_baseline
        path.write_text(textwrap.dedent(FIXED))
        code = self.lint(
            str(path), "--rules", "DET005",
            "--baseline", str(baseline_path), "--fail-stale",
        )
        assert code == 1
        assert fingerprint in capsys.readouterr().err

    def test_fail_stale_quiet_when_baseline_is_live(self, unsorted_baseline):
        path, baseline_path, _ = unsorted_baseline
        code = self.lint(
            str(path), "--rules", "DET005",
            "--baseline", str(baseline_path), "--fail-stale",
        )
        assert code == 0

    def test_prune_baseline_rewrites_file(self, unsorted_baseline, capsys):
        path, baseline_path, fingerprint = unsorted_baseline
        path.write_text(textwrap.dedent(FIXED))
        code = self.lint(
            str(path), "--rules", "DET005",
            "--baseline", str(baseline_path), "--prune-baseline",
        )
        assert code == 0
        assert "pruned 1 stale entry" in capsys.readouterr().out
        assert json.loads(baseline_path.read_text())["entries"] == {}
        # A second prune finds nothing left to do.
        code = self.lint(
            str(path), "--rules", "DET005",
            "--baseline", str(baseline_path), "--prune-baseline",
        )
        assert code == 0
        assert "pruned 0 stale entries" in capsys.readouterr().out
