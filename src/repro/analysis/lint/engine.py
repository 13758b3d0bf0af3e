"""The lint engine: file discovery, per-file analysis, fan-out, triage.

Pipeline: resolve target paths to ``.py`` files (sorted, so output and
parallel chunking are deterministic) → parse each file once and run the
selected rules over the shared AST (``# det-ok: <reason>`` suppressions
filtered centrally) → triage findings against the committed baseline.
Per-file analysis is pure, so it fans out across processes through
``concurrent.futures.ProcessPoolExecutor.map`` when ``jobs > 1``;
results are identical to the serial path by construction.

Rule selection is usually a *profile*.  :data:`DETERMINISM_PROFILE`
reproduces the original ``tools/lint_determinism.py`` behaviour: the
hot-core targets get every determinism rule except DET004, and the
whole package is swept with DET004 alone (observers outside the core
may legitimately read the wall clock, but nobody monkey-patches the
core).  :data:`DEFAULT_PROFILE` adds SHR005 over the layers whose jobs
a batch slice runs one after another in one process.  Explicit paths get the full rule set.

A file named by several targets is parsed and linted once, with the
union of their rule codes.
"""

from __future__ import annotations

import ast
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from . import rules_determinism  # noqa: F401 - registers the DET rules
from . import rules_sharing  # noqa: F401 - registers SHR005
from .baseline import Baseline
from .registry import FileContext, Finding, all_rules

__all__ = [
    "LintResult",
    "LintTarget",
    "DEFAULT_PROFILE",
    "DETERMINISM_PROFILE",
    "SHARING_PROFILE",
    "collect_files",
    "lint_source",
    "lint_files",
    "restrict",
    "run_lint",
]

#: Pseudo-rule for files the parser rejects; always blocking.
SYNTAX_ERROR_CODE = "DET000"


@dataclass(frozen=True)
class LintTarget:
    """One (paths, rule codes) pair; a profile is a sequence of these."""

    paths: Tuple[str, ...]
    codes: Optional[Tuple[str, ...]] = None  # None = every registered rule


#: The historical determinism sweep (see module docstring).
DETERMINISM_PROFILE = (
    LintTarget(
        paths=rules_determinism.DEFAULT_TARGETS,
        codes=("DET001", "DET002", "DET003", "DET005"),
    ),
    LintTarget(paths=rules_determinism.DET004_TARGETS, codes=("DET004",)),
)

#: The sharing sweep: SHR005 over the layers whose jobs a batch slice
#: runs one after another in one process.
SHARING_PROFILE = (
    LintTarget(
        paths=(
            "src/repro/pipeline",
            "src/repro/sim",
            "src/repro/workloads",
            "src/repro/isa/program.py",
        ),
        codes=rules_sharing.SHR_RULE_CODES,
    ),
)

#: What ``repro-sim lint`` runs without paths or ``--rules``.
DEFAULT_PROFILE = DETERMINISM_PROFILE + SHARING_PROFILE


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


@dataclass
class LintResult:
    """Findings split by failure semantics."""

    findings: List[Finding] = field(default_factory=list)  # everything, sorted
    blocking: List[Finding] = field(default_factory=list)  # fail the run
    baselined: List[Finding] = field(default_factory=list)  # known warn-first debt
    #: baseline fingerprints this run *would* have re-checked (their code
    #: ran and their file was linted) but that no longer fire — paid-off
    #: debt that should be pruned from the baseline file
    stale: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.blocking

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


def _suppressed_lines(source: str, marker: str = "det-ok:") -> Set[int]:
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
    ctx = FileContext(
        path, source, tree,
        _suppressed_lines(source),
        shr_suppressed=_suppressed_lines(source, "shr-ok:"),
    )
    findings: List[Finding] = []
    for rule in all_rules(set(codes) if codes is not None else None):
        findings.extend(
            f for f in rule.check(ctx)
            if f.line not in ctx.suppressed_for(f.code)
        )
    return findings


def _lint_payload(item: Tuple[str, Optional[Tuple[str, ...]]]) -> List[Finding]:
    """Fan-out unit: one file with one rule selection (picklable)."""
    path, codes = item
    return lint_source(path, Path(path).read_text(), codes)


def lint_files(
    files: Sequence[Union[str, Path]],
    codes: Optional[Tuple[str, ...]] = None,
    jobs: int = 1,
) -> List[Finding]:
    """Lint many files, optionally in parallel; sorted findings."""
    return _lint_items([(str(f), codes) for f in files], jobs)


def _lint_items(
    items: Sequence[Tuple[str, Optional[Tuple[str, ...]]]], jobs: int
) -> List[Finding]:
    if jobs <= 1 or len(items) < 2:
        per_file = [_lint_payload(item) for item in items]
    else:
        workers = min(jobs, len(items))
        chunk = (len(items) + workers - 1) // workers  # one chunk per worker
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_file = list(pool.map(_lint_payload, items, chunksize=chunk))
    findings = [f for found in per_file for f in found]
    return sorted(findings, key=lambda f: (f.path, f.line, f.code))


def run_lint(
    targets: Sequence[LintTarget],
    jobs: int = 1,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Execute a profile and triage against the baseline.

    A finding fails the run unless its rule is warn-first *and* the
    baseline records its fingerprint.  Syntax errors always fail.
    """
    baseline = baseline or Baseline()
    blocking_codes = {r.code for r in all_rules() if r.blocking}
    blocking_codes.add(SYNTAX_ERROR_CODE)

    ran_codes: Set[str] = set()
    #: file -> every code some target selects for it (rules run once
    #: per file, over the union)
    file_codes: Dict[str, Set[str]] = {}
    for target in targets:
        files = collect_files(target.paths)
        codes = target.codes if target.codes is not None else tuple(
            r.code for r in all_rules()
        )
        ran_codes.update(codes)
        for f in files:
            file_codes.setdefault(str(f), set()).update(codes)
    items = [(path, tuple(sorted(codes))) for path, codes in file_codes.items()]
    findings = _lint_items(items, jobs)
    linted_paths = set(file_codes)

    result = LintResult(findings=findings)
    for finding in findings:
        if finding.code not in blocking_codes and baseline.covers(finding):
            result.baselined.append(finding)
        else:
            result.blocking.append(finding)

    # Stale baseline entries: this run re-checked them (code ran, file
    # was linted) and they no longer fire — or their rule id no longer
    # exists in the registry at all (a retired rule can never fire
    # again, so its debt is dead weight no matter what was linted).
    live = {f.fingerprint for f in findings}
    known_codes = {r.code for r in all_rules()}
    known_codes.add(SYNTAX_ERROR_CODE)
    for fingerprint in sorted(baseline.entries):
        parts = fingerprint.split("::", 2)
        if len(parts) != 3:
            continue
        path, code, _ = parts
        if code not in known_codes:
            result.stale.append(fingerprint)
        elif code in ran_codes and path in linted_paths and fingerprint not in live:
            result.stale.append(fingerprint)
    return result
