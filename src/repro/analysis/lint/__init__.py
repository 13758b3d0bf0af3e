"""Pluggable whole-repo lint engine.

A rule registry (:mod:`.registry`), per-file analysis (:mod:`.engine`)
and text/JSON/SARIF output (:mod:`.report`).  The determinism rules
DET001–DET005 live in :mod:`.rules_determinism` and the sharing rule
SHR005 in :mod:`.rules_sharing`.  ``repro-sim lint`` is the front end; every
finding fails the run unless its family's same-line marker
(``# det-ok: <reason>``, ``# shr-ok: <reason>``) suppresses it.

See ``docs/LINTING.md`` for how to write a rule.
"""

from .engine import (
    DEFAULT_PROFILE,
    SUPPRESSION_MARKERS,
    LintResult,
    LintTarget,
    collect_files,
    lint_files,
    lint_source,
    restrict,
    run_lint,
    suppression_marker,
)
from .registry import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    register,
)
from .report import render_text, to_json, to_sarif, write_sarif

__all__ = [
    "DEFAULT_PROFILE",
    "SUPPRESSION_MARKERS",
    "LintResult",
    "LintTarget",
    "collect_files",
    "lint_files",
    "lint_source",
    "restrict",
    "run_lint",
    "suppression_marker",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "register",
    "render_text",
    "to_json",
    "to_sarif",
    "write_sarif",
]
