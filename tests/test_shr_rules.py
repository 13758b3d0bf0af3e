"""Injection tests: SHR005 must fire on deliberately broken code, stay
quiet on the fixed variant, and respect ``# shr-ok``.

Each case lints a synthetic file's text with SHR005 alone through
``lint_source``, so rule selection and the SHR marker family are both
exercised.
"""

import textwrap
from pathlib import Path

from repro.analysis.lint import CODES, TARGETS, lint_source, run_lint
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


def lint(tmp_path, source, name="inj.py"):
    return lint_source(str(tmp_path / name), textwrap.dedent(source), ("SHR005",))


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


def test_sharing_profile_clean_on_real_tree(monkeypatch):
    """The committed pipeline/service/sim/workloads layers pass SHR005
    (the one deliberate exception, ``Event.constructed``, carries
    ``# shr-ok``)."""
    monkeypatch.chdir(REPO)
    (paths,) = [paths for paths, codes in TARGETS if "SHR005" in codes]
    findings = [f for f in run_lint(list(paths)) if f.code == "SHR005"]
    assert findings == [], [f.render() for f in findings]


def test_every_shr_rule_has_an_injection_proof():
    """Meta: SHR005 is the only SHR code; the injection cases above
    cover it."""
    assert {code for code in CODES if code.startswith("SHR")} == {"SHR005"}


def test_shr005_finding_fails_the_run(tmp_path, capsys):
    """SHR005 blocks like every other rule: ``repro-sim lint PATH`` on a
    mutable default argument exits 1 with one line naming it; the fixed
    and the ``# shr-ok``-suppressed variants exit 0."""
    broken = "def record(x, acc=[]):\n    acc.append(x)\n"
    path = tmp_path / "inj.py"
    path.write_text(broken)
    assert main(["lint", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:1: SHR005 mutable default argument in record: one instance is "
        f"shared by every call from every core"
    ]
    for fixed in (
        broken.replace("acc=[]):", "acc=None):\n    acc = [] if acc is None else acc"),
        broken.replace("acc=[]):", "acc=[]):  # shr-ok: a memo shared on purpose"),
    ):
        path.write_text(fixed)
        assert main(["lint", str(path)]) == 0, capsys.readouterr().out
