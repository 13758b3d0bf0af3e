"""Golden SARIF 2.1.0 snapshot: the exported document is byte-stable.

GitHub code scanning diffs SARIF uploads, so rule order (registry code
order with the DET000 pseudo-rule appended last), result order (finding
sort order) and the level (``error`` for every rule and finding) must
not drift silently.  The fixture is regenerated with::

    PYTHONPATH=src python tests/test_lint_sarif.py

after a deliberate registry change.
"""

import json
from pathlib import Path

from repro.analysis.lint import Finding, LintResult, all_rules, to_sarif
from repro.analysis.lint.engine import SYNTAX_ERROR_CODE

GOLDEN = Path(__file__).resolve().parent / "golden" / "lint_sarif_seed.json"


def synthetic_result() -> LintResult:
    """Findings from both families, sorted the way ``run_lint`` sorts."""
    return LintResult(findings=[
        Finding("src/a.py", 0, SYNTAX_ERROR_CODE, "syntax error: bad token"),
        Finding("src/b.py", 7, "DET004", "core module monkey-patched"),
        Finding("src/c.py", 12, "DET001", "wall-clock read time.time()"),
        Finding("src/c.py", 31, "DET003",
                "loop iterates over a set (order is salted per process); "
                "sort or use an ordered container"),
        Finding("src/d.py", 3, "DET005",
                "comprehension iterates over directory entries in "
                "filesystem order; wrap in sorted(...)"),
        Finding("src/e.py", 9, "DET005",
                "loop iterates over directory entries in filesystem order"),
        Finding("src/e.py", 22, "SHR005", "mutable default argument in f"),
    ])


def test_sarif_document_matches_golden_snapshot():
    document = to_sarif(synthetic_result())
    expected = json.loads(GOLDEN.read_text())
    assert document == expected, (
        "SARIF output drifted from tests/golden/lint_sarif_seed.json; "
        "if the change is deliberate, regenerate with "
        "`PYTHONPATH=src python tests/test_lint_sarif.py`"
    )


def test_rule_order_is_registry_order_plus_syntax_pseudo_rule():
    rules = to_sarif(synthetic_result())["runs"][0]["tool"]["driver"]["rules"]
    ids = [rule["id"] for rule in rules]
    assert ids == [r.code for r in all_rules()] + [SYNTAX_ERROR_CODE]
    # The registry is sorted, so families arrive in a stable block order.
    assert ids[-1] == "DET000"
    assert ids == sorted(ids[:-1]) + ["DET000"]


def test_levels_follow_blocking_semantics():
    """Every finding fails the run, so every rule and result is an error."""
    document = to_sarif(synthetic_result())
    run = document["runs"][0]
    levels = {rule["defaultConfiguration"]["level"]
              for rule in run["tool"]["driver"]["rules"]}
    assert levels == {"error"}
    assert [result["level"] for result in run["results"]] == ["error"] * 7
    assert [result["ruleId"] for result in run["results"]] == [
        f.code for f in synthetic_result().findings]


def test_every_registered_family_is_present():
    ids = {
        rule["id"]
        for rule in to_sarif(synthetic_result())
        ["runs"][0]["tool"]["driver"]["rules"]
    }
    for family in ("DET", "SHR"):
        assert any(code.startswith(family) for code in ids), family


if __name__ == "__main__":  # regenerate the golden fixture
    GOLDEN.write_text(
        json.dumps(to_sarif(synthetic_result()), indent=2, sort_keys=True)
        + "\n"
    )
    print("wrote", GOLDEN)
