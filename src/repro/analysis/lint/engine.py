"""The lint engine: file discovery and per-file analysis.

Pipeline: resolve target paths to ``.py`` files (sorted, so output is
deterministic) → parse each file once and run the selected rules over
the shared AST → drop every finding on a line that carries its family's
suppression marker (:data:`SUPPRESSION_MARKERS`).  Every finding left
fails the run.

Rule selection is usually a *profile*.  In :data:`DEFAULT_PROFILE` the
hot-core targets get every determinism rule except DET004, and the
whole package is swept with DET004 alone (observers outside the core
may legitimately read the wall clock, but nobody monkey-patches the
core).  SHR005 runs over the layers whose jobs share a process one
after another: the consecutive points that one pool worker serves, and
the tasks of one remote lease.  Explicit paths get the full rule set.

A file named by several targets is parsed and linted once, with the
union of their rule codes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from . import rules_determinism  # noqa: F401 - registers the DET rules
from . import rules_sharing  # noqa: F401 - registers SHR005
from .registry import FileContext, Finding, all_rules

__all__ = [
    "LintResult",
    "LintTarget",
    "DEFAULT_PROFILE",
    "SUPPRESSION_MARKERS",
    "collect_files",
    "lint_source",
    "lint_files",
    "restrict",
    "run_lint",
    "suppression_marker",
]

#: Pseudo-rule for files the parser rejects.
SYNTAX_ERROR_CODE = "DET000"

#: Rule family prefix -> the marker that, followed by a reason on the
#: same line (``# det-ok: <reason>``), suppresses that family's findings.
#: A marker never suppresses another family's findings.
SUPPRESSION_MARKERS = {"DET": "det-ok:", "SHR": "shr-ok:"}


def suppression_marker(code: str) -> Optional[str]:
    """The marker that suppresses ``code``'s findings, if its family has one."""
    return next(
        (marker for family, marker in SUPPRESSION_MARKERS.items()
         if code.startswith(family)),
        None,
    )


@dataclass(frozen=True)
class LintTarget:
    """One (paths, rule codes) pair; a profile is a sequence of these."""

    paths: Tuple[str, ...]
    codes: Optional[Tuple[str, ...]] = None  # None = every registered rule


#: What ``repro-sim lint`` runs without paths (see the module docstring).
DEFAULT_PROFILE = (
    LintTarget(
        paths=rules_determinism.DEFAULT_TARGETS,
        codes=("DET001", "DET002", "DET003", "DET005"),
    ),
    LintTarget(paths=rules_determinism.DET004_TARGETS, codes=("DET004",)),
    LintTarget(
        paths=(
            "src/repro/pipeline",
            "src/repro/service",
            "src/repro/sim",
            "src/repro/workloads",
            "src/repro/isa/program.py",
        ),
        codes=rules_sharing.SHR_RULE_CODES,
    ),
)


def restrict(
    targets: Sequence[LintTarget], codes: Iterable[str]
) -> List[LintTarget]:
    """Each target narrowed to ``codes``; targets left with no code are
    dropped.  Raises ``KeyError`` for a code no rule registers."""
    wanted = {r.code for r in all_rules(set(codes))}
    out = []
    for target in targets:
        own = target.codes if target.codes is not None else tuple(
            r.code for r in all_rules()
        )
        selected = tuple(code for code in own if code in wanted)
        if selected:
            out.append(LintTarget(paths=target.paths, codes=selected))
    return out


@dataclass(frozen=True)
class LintResult:
    """Every finding of one run, sorted; any finding fails the run."""

    findings: List[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def collect_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand directories to sorted ``.py`` files, each listed once even
    when paths overlap; reject missing paths."""
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise FileNotFoundError(f"no such path(s): {missing}")
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return list(dict.fromkeys(files))


def _suppressed_lines(source: str, marker: str) -> Set[int]:
    """Line numbers carrying a justified ``# <marker> <reason>``."""
    out = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if marker in text and text.split(marker, 1)[1].strip():
            out.add(lineno)
    return out


def lint_source(
    path: str, source: str, codes: Optional[Tuple[str, ...]] = None
) -> List[Finding]:
    """Run the selected rules over one file's text."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, SYNTAX_ERROR_CODE,
                        f"syntax error: {exc.msg}")]
    ctx = FileContext(path, source, tree)
    suppressed = {
        marker: _suppressed_lines(source, marker)
        for marker in SUPPRESSION_MARKERS.values()
    }
    findings: List[Finding] = []
    for rule in all_rules(set(codes) if codes is not None else None):
        marker = suppression_marker(rule.code)
        skip = suppressed[marker] if marker is not None else set()
        findings.extend(f for f in rule.check(ctx) if f.line not in skip)
    return findings


def lint_files(
    files: Sequence[Union[str, Path]],
    codes: Optional[Tuple[str, ...]] = None,
) -> List[Finding]:
    """Lint many files; sorted findings."""
    return _lint_items([(str(f), codes) for f in files])


def _lint_items(items: Sequence[Tuple[str, Optional[Tuple[str, ...]]]]) -> List[Finding]:
    findings = [
        f for path, codes in items
        for f in lint_source(path, Path(path).read_text(), codes)
    ]
    return sorted(findings, key=lambda f: (f.path, f.line, f.code))


def run_lint(targets: Sequence[LintTarget]) -> LintResult:
    """Execute a profile: each file once, with the union of the codes
    its targets select."""
    file_codes: Dict[str, Set[str]] = {}
    for target in targets:
        codes = target.codes if target.codes is not None else tuple(
            r.code for r in all_rules()
        )
        for f in collect_files(target.paths):
            file_codes.setdefault(str(f), set()).update(codes)
    items = [(path, tuple(sorted(codes))) for path, codes in file_codes.items()]
    return LintResult(findings=_lint_items(items))
