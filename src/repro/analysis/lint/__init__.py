"""Pluggable whole-repo lint engine.

Grew out of ``tools/lint_determinism.py`` (a single-file AST lint for
the simulator's determinism invariants); the engine generalises it into
a rule registry (:mod:`.registry`), parallel per-file analysis over a
process pool, committed baselines for warn-first rules
(:mod:`.baseline`) and JSON/SARIF output (:mod:`.report`).  The determinism rules DET001–DET005 live in
:mod:`.rules_determinism`; the old tool remains as a thin shim with an
unchanged CLI contract, and ``repro-sim lint`` is the full front end.

See ``docs/LINTING.md`` for how to write a rule.
"""

from .baseline import DEFAULT_BASELINE_PATH, Baseline
from .engine import (
    CONC_PROFILE,
    DEFAULT_PROFILE,
    DETERMINISM_PROFILE,
    SHARING_PROFILE,
    LintResult,
    LintTarget,
    collect_files,
    lint_files,
    lint_program,
    lint_source,
    restrict,
    run_lint,
)
from .registry import (
    FileContext,
    Finding,
    ProgramContext,
    Rule,
    all_rules,
    get_rule,
    register,
)
from .report import render_text, to_json, to_sarif, write_sarif

__all__ = [
    "Baseline",
    "CONC_PROFILE",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_PROFILE",
    "DETERMINISM_PROFILE",
    "SHARING_PROFILE",
    "LintResult",
    "LintTarget",
    "collect_files",
    "lint_files",
    "lint_program",
    "lint_source",
    "restrict",
    "run_lint",
    "FileContext",
    "ProgramContext",
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "render_text",
    "to_json",
    "to_sarif",
    "write_sarif",
]
