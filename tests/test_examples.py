"""Smoke tests: every example script must run end to end.

Each example is executed in-process (runpy) with small arguments so
the whole set stays fast; output is captured and sanity-checked so a
broken example cannot rot silently.
"""

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(capsys, monkeypatch, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name] + list(argv))
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys, monkeypatch):
        out = run_example(capsys, monkeypatch, "quickstart.py", ["vortex", "400"])
        assert "variant" in out and "best variant" in out

    def test_multiprogram_throughput(self, capsys, monkeypatch):
        out = run_example(
            capsys, monkeypatch, "multiprogram_throughput.py", ["2", "400"]
        )
        assert "programs" in out and "TME gain" in out

    def test_custom_program(self, capsys, monkeypatch):
        out = run_example(capsys, monkeypatch, "custom_program.py")
        assert "emulator:" in out and "REC/RS/RU" in out

    def test_fetch_policies(self, capsys, monkeypatch):
        out = run_example(capsys, monkeypatch, "fetch_policies.py", ["compress", "400"])
        assert "stop-8" in out and "best=" in out

    def test_branch_entropy_sweep(self, capsys, monkeypatch):
        out = run_example(capsys, monkeypatch, "branch_entropy_sweep.py", ["40"])
        assert "entropy" in out and "multipath gain" in out

    def test_pipeline_trace(self, capsys, monkeypatch):
        out = run_example(capsys, monkeypatch, "pipeline_trace.py", ["compress"])
        assert "event log" in out and "pipeline view" in out

    def test_workload_characterization(self, capsys, monkeypatch):
        out = run_example(capsys, monkeypatch, "workload_characterization.py")
        assert "hardest branches" in out
        assert "tomcatv" in out

    def test_design_space_sweep(self, capsys, monkeypatch):
        out = run_example(capsys, monkeypatch, "design_space_sweep.py")
        assert "active_list" in out and "CSV" in out

    def test_every_example_has_a_test(self):
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        tested = {
            "quickstart.py",
            "multiprogram_throughput.py",
            "custom_program.py",
            "fetch_policies.py",
            "branch_entropy_sweep.py",
            "pipeline_trace.py",
            "workload_characterization.py",
            "design_space_sweep.py",
        }
        assert scripts == tested, f"untested examples: {scripts - tested}"
