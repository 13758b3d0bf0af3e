"""Lint output formats: plain text, JSON, SARIF 2.1.0.

The text format is the historical ``path:line: CODE message`` contract
(tests and editors parse it).  JSON is the same data machine-readable.
SARIF is the interchange format GitHub code scanning ingests — one run,
one driver, rule metadata from the registry, one ``error`` result per
finding.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from .engine import SYNTAX_ERROR_CODE, LintResult
from .registry import Finding, all_rules

__all__ = ["render_text", "to_json", "to_sarif", "write_sarif"]

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult) -> List[str]:
    """One line per finding."""
    return sorted(f.render() for f in result.findings)


def to_json(result: LintResult) -> Dict:
    def row(finding: Finding) -> Dict:
        return {
            "path": finding.path,
            "line": finding.line,
            "code": finding.code,
            "message": finding.message,
        }

    return {"ok": result.ok, "findings": [row(f) for f in result.findings]}


def to_sarif(result: LintResult, tool_name: str = "repro-lint") -> Dict:
    """SARIF 2.1.0 document for the whole result."""
    described = [(rule.code, rule.summary) for rule in all_rules()]
    described.append((SYNTAX_ERROR_CODE, "file does not parse"))
    rules = [
        {
            "id": code,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": "error"},
        }
        for code, summary in described
    ]
    results = [
        {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": max(finding.line, 1)},
                },
            }],
        }
        for finding in result.findings
    ]
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": tool_name, "rules": rules}},
            "results": results,
        }],
    }


def write_sarif(result: LintResult, path: str) -> None:
    Path(path).write_text(json.dumps(to_sarif(result), indent=2) + "\n")
