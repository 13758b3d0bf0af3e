"""Injection tests: SHR005 must fire on deliberately broken code, stay
quiet on the fixed variant, and respect ``# shr-ok``.

Each case lints a synthetic file through the real engine path
(``lint_files``), so registration, rule selection and the SHR
suppression family are all exercised.
"""

import json
import textwrap

from repro.analysis.lint import DEFAULT_PROFILE, lint_files, restrict, run_lint
from repro.analysis.lint.rules_sharing import SHR_RULE_CODES
from repro.cli import main


def lint(tmp_path, source, name="inj.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_files([path], codes=SHR_RULE_CODES)


def codes_of(findings):
    return sorted({f.code for f in findings})


BROKEN_GLOBAL = """
    CACHE = {}

    def put(key, value):
        CACHE[key] = value
"""


def test_shr005_fires_on_mutable_default(tmp_path):
    findings = lint(tmp_path, """
        def record(x, acc=[]):
            acc.append(x)
    """)
    assert codes_of(findings) == ["SHR005"]
    assert "mutable default" in findings[0].message


def test_shr005_fires_on_class_attr_mutation(tmp_path):
    findings = lint(tmp_path, """
        class Registry:
            entries = {}
            def add(self, key):
                Registry.entries[key] = 1
    """)
    assert codes_of(findings) == ["SHR005"]
    assert "class-level state Registry.entries" in findings[0].message


def test_shr005_fires_on_module_global_mutation(tmp_path):
    findings = lint(tmp_path, BROKEN_GLOBAL)
    assert codes_of(findings) == ["SHR005"]
    assert "module-level mutable" in findings[0].message


def test_shr005_quiet_on_local_rebind(tmp_path):
    fixed = """
        CACHE = {}

        def put(key, value):
            CACHE = {}
            CACHE[key] = value
    """
    assert lint(tmp_path, fixed) == []


def test_shr005_shr_ok_suppresses(tmp_path):
    blessed = BROKEN_GLOBAL.replace(
        "CACHE[key] = value",
        "CACHE[key] = value  # shr-ok: test-only counter",
    )
    assert lint(tmp_path, blessed) == []


def test_det_ok_does_not_suppress_shr(tmp_path):
    wrong_marker = BROKEN_GLOBAL.replace(
        "CACHE[key] = value",
        "CACHE[key] = value  # det-ok: wrong family",
    )
    assert codes_of(lint(tmp_path, wrong_marker)) == ["SHR005"]


def test_sharing_profile_clean_on_real_tree():
    """The committed pipeline/service/sim/workloads layers pass SHR005
    (the one deliberate exception, ``Event.constructed``, carries
    ``# shr-ok``)."""
    result = run_lint(restrict(DEFAULT_PROFILE, SHR_RULE_CODES))
    assert result.findings == [], [f.render() for f in result.findings]


def test_every_shr_rule_has_an_injection_proof():
    """Meta: SHR005 is the only registered SHR code; the injection
    cases above cover it."""
    from repro.analysis.lint import all_rules

    registered = {r.code for r in all_rules() if r.code.startswith("SHR")}
    assert registered == set(SHR_RULE_CODES) == {"SHR005"}


def test_shr005_finding_fails_the_run(tmp_path, capsys):
    """SHR005 blocks like every other rule: ``repro-sim lint PATH`` on a
    mutable default argument exits 1 and reports a SARIF error; the
    fixed and the ``# shr-ok``-suppressed variants exit 0."""
    broken = "def record(x, acc=[]):\n    acc.append(x)\n"
    path = tmp_path / "inj.py"
    path.write_text(broken)
    sarif = tmp_path / "lint.sarif"
    assert main(["lint", str(path), "--sarif", str(sarif)]) == 1
    assert "SHR005" in capsys.readouterr().out
    results = json.loads(sarif.read_text())["runs"][0]["results"]
    assert [(r["ruleId"], r["level"]) for r in results] == [("SHR005", "error")]
    for fixed in (
        broken.replace("acc=[]):", "acc=None):\n    acc = [] if acc is None else acc"),
        broken.replace("acc=[]):", "acc=[]):  # shr-ok: a memo shared on purpose"),
    ):
        path.write_text(fixed)
        assert main(["lint", str(path)]) == 0, capsys.readouterr().out
