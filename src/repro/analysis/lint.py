"""The determinism and sharing lint behind ``repro-sim lint``.

Simulation results must rerun bit-identically: the result cache (the
resume record), the golden fixtures and the benchmark digests all rest
on it.  Six AST rules keep the usual sources of nondeterminism and of
cross-core coupling out of the simulator:

``DET001`` wall-clock reads
    ``time.time`` / ``time_ns`` / ``perf_counter`` / ``monotonic`` (and
    their ``_ns`` forms), ``datetime.now`` / ``utcnow``.
``DET002`` unseeded randomness
    any call through the module-global ``random.*`` API, and
    ``random.Random()`` without a seed argument.
``DET003`` hash-order iteration
    a ``for`` loop or comprehension over a set or over ``.keys()`` /
    ``.values()`` / ``.items()``, also through a ``list()`` /
    ``tuple()`` / ``reversed()`` wrapper, unless ``sorted()`` wraps it.
``DET004`` monkey-patching the core
    ``setattr(core, ...)`` and assignments to private members of a core
    or stage object (``core._x = f``, ``self.core.rename._y = f``);
    observers subscribe to the event bus instead.
``DET005`` filesystem-order iteration
    a loop over ``glob`` / ``rglob`` / ``iterdir`` / ``listdir`` /
    ``scandir`` results not wrapped in ``sorted()``.
``SHR005`` process-global mutable state
    a mutable default argument, or a run-time write into a class
    attribute of a class the module defines or into a module global
    bound to a mutable literal.  The consecutive points one pool worker
    serves, and the tasks of one remote lease, share a process, so such
    state carries over from one core to the next.  Writes through
    parameters and through names the function binds itself are local.

One pre-order AST walk per file finds DET001–DET005, and one pass over
the module's functions finds SHR005.  Every finding fails the run
unless its line carries its family's marker with a reason:
``# det-ok: <reason>`` for DET, ``# shr-ok: <reason>`` for SHR.  A
marker never excuses the other family.  See ``docs/LINTING.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = ["CODES", "TARGETS", "Finding", "lint_source", "run_lint"]

#: Every rule.
CODES = ("DET001", "DET002", "DET003", "DET004", "DET005", "SHR005")

#: What ``repro-sim lint`` runs without paths: (paths, codes) rows.  The
#: hot core gets every determinism rule but DET004, which sweeps the
#: whole package (an observer outside the core may read the wall clock,
#: but nothing monkey-patches the core); SHR005 covers the layers whose
#: jobs share a process.  Explicit paths get every rule.
TARGETS: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...]], ...] = (
    (("src/repro/pipeline", "src/repro/recycle", "src/repro/exec/cache.py",
      "src/repro/service"),
     ("DET001", "DET002", "DET003", "DET005")),
    (("src/repro",), ("DET004",)),
    (("src/repro/pipeline", "src/repro/service", "src/repro/sim", "src/repro/workloads",
      "src/repro/isa/program.py"),
     ("SHR005",)),
)


@dataclass(frozen=True)
class Finding:
    """One rule hit; ``code`` is ``SyntaxError`` for a file that does
    not parse."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


# ----------------------------------------------------------------------
# DET001–DET005
# ----------------------------------------------------------------------
_WALL_CLOCK = {
    ("time", "time"), ("time", "time_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "monotonic"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
}
_DICT_VIEWS = {"keys", "values", "items"}
_FS_ITER_ATTRS = {"glob", "rglob", "iterdir", "listdir", "scandir"}

_Comprehension = Union[ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp]


def _dotted_call(node: ast.Call) -> Tuple[Optional[str], Optional[str]]:
    """``(base, attr)`` for a ``base.attr(...)`` call, else ``(None, None)``."""
    if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
        return node.func.value.id, node.func.attr
    return None, None


def _called_name(node: ast.AST) -> Optional[str]:
    """``f`` for a call ``f(...)`` of a bare name."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _called_attr(node: ast.AST) -> Optional[str]:
    """``m`` for a call ``x.m(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _unwrap_sequencing(node: ast.expr) -> ast.expr:
    """Strip ``list(...)``/``tuple(...)``/``reversed(...)``: they keep the
    underlying order, so the hazard remains."""
    while (isinstance(node, ast.Call) and _called_name(node) in ("list", "tuple", "reversed")
           and len(node.args) == 1):
        node = node.args[0]
    return node


def _is_core_ref(node: ast.AST) -> bool:
    """A name ``core``, an attribute ``<x>.core`` at any depth, or any
    attribute chain hanging off one (``core.rename``, ``self.core.resolve``)."""
    if isinstance(node, ast.Name):
        return node.id == "core"
    if isinstance(node, ast.Attribute):
        return node.attr == "core" or _is_core_ref(node.value)
    return False


class _DeterminismWalk(ast.NodeVisitor):
    """DET001–DET005 in one pre-order walk; findings in walk order."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []

    def flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(self.path, getattr(node, "lineno", 0), code, message))

    def visit_Call(self, node: ast.Call) -> None:
        base, attr = _dotted_call(node)
        if (base, attr) in _WALL_CLOCK:
            self.flag(node, "DET001", f"wall-clock read {base}.{attr}()")
        if base == "random" and attr != "Random":
            self.flag(node, "DET002",
                      f"module-global random.{attr}() (use a seeded random.Random instance)")
        elif base == "random" and not node.args and not node.keywords:
            self.flag(node, "DET002", "random.Random() without an explicit seed")
        if _called_name(node) == "setattr" and node.args and _is_core_ref(node.args[0]):
            self.flag(node, "DET004",
                      f"setattr({ast.unparse(node.args[0])}, ...) monkey-patches the core; "
                      f"subscribe to the event bus instead")
        self.generic_visit(node)

    def _core_write(self, target: ast.expr) -> None:
        if (isinstance(target, ast.Attribute) and target.attr.startswith("_")
                and _is_core_ref(target.value)):
            self.flag(target, "DET004",
                      f"assignment to {ast.unparse(target)} replaces a private core/stage "
                      f"member; subscribe to the event bus instead")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._core_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._core_write(node.target)
        self.generic_visit(node)

    def _iteration(self, node: ast.expr, context: str) -> None:
        inner = _unwrap_sequencing(node)
        view = _called_attr(inner)
        if isinstance(inner, (ast.Set, ast.SetComp)) or _called_name(inner) in ("set", "frozenset"):
            self.flag(node, "DET003", f"{context} iterates over a set (order is salted per "
                                      f"process); sort or use an ordered container")
        elif (view in _DICT_VIEWS and isinstance(inner, ast.Call)
              and not inner.args and not inner.keywords):
            self.flag(node, "DET003", f"{context} iterates over .{view}() directly; wrap in "
                                      f"sorted(...) or justify with '# det-ok: <reason>'")
        if view in _FS_ITER_ATTRS or _called_name(inner) in ("listdir", "scandir"):
            self.flag(node, "DET005", f"{context} iterates over directory entries in "
                                      f"filesystem order; wrap in sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._iteration(node.iter, "for loop")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._iteration(node.iter, "async for loop")
        self.generic_visit(node)

    def _comprehension(self, node: _Comprehension) -> None:
        for generator in node.generators:
            self._iteration(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension


# ----------------------------------------------------------------------
# SHR005
# ----------------------------------------------------------------------
_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_DEFAULT_CALLS = {"list", "dict", "set", "deque", "defaultdict"}
#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "appendleft", "add", "insert", "extend", "extendleft",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "sort", "reverse", "rotate",
}


def _is_mutable_default(node: ast.expr) -> bool:
    return (isinstance(node, _MUTABLE_DISPLAYS)
            or (_called_name(node) or _called_attr(node)) in _MUTABLE_DEFAULT_CALLS)


def _chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``Registry.entries[k]`` -> ``("Registry", "entries", "[]")``; None
    when the expression is not rooted at a plain name."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        base = _chain(node.value)
        step = node.attr if isinstance(node, ast.Attribute) else "[]"
        return None if base is None else base + (step,)
    return None


def _functions(tree: ast.Module) -> Iterator[Tuple[_Function, str]]:
    """Module-level functions and the methods of module-level classes,
    with the name findings describe them by."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member, f"{node.name}.{member.name}"


def _body_nodes(func: _Function) -> Iterator[ast.AST]:
    """Every node of ``func``'s body in pre-order, not descending into
    nested function, lambda or class scopes."""
    stack: List[ast.AST] = list(reversed(func.body))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _mutations(func: _Function) -> Tuple[List[Tuple[Tuple[str, ...], int]], Set[str]]:
    """(written chains with their lines, names the function binds).  A
    written chain is an assignment or ``del`` target, or the receiver of
    an in-place mutator call (``CACHE.append(x)`` writes ``("CACHE",)``)."""
    writes: List[Tuple[Tuple[str, ...], int]] = []
    bound: Set[str] = set()
    for node in _body_nodes(func):
        targets: List[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign) or (
                isinstance(node, ast.AnnAssign) and node.value is not None):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    bound.add(item.optional_vars.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            receiver = _chain(node.func.value)
            if receiver is not None:
                writes.append((receiver, node.lineno))
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Name):
                # ``x += 1`` and ``del x`` on a bare name bind nothing new.
                if not isinstance(node, (ast.AugAssign, ast.Delete)):
                    bound.add(target.id)
            else:
                chain = _chain(target)
                if chain is not None:
                    writes.append((chain, target.lineno))
    return writes, bound


def _shared_state(path: str, tree: ast.Module) -> Iterator[Finding]:
    """SHR005 over one module's facts: no call graph."""
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    module_mutables = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, _MUTABLE_DISPLAYS)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for func, name in _functions(tree):
        args = func.args
        defaults = args.defaults + [d for d in args.kw_defaults if d is not None]
        if any(_is_mutable_default(d) for d in defaults):
            yield Finding(path, func.lineno, "SHR005",
                          f"mutable default argument in {name}: one instance is "
                          f"shared by every call from every core")
        local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        local.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
        writes, bound = _mutations(func)
        local |= bound
        for chain, line in writes:
            root = chain[0]
            if root in local:
                continue
            if root in classes and len(chain) > 1:
                yield Finding(path, line, "SHR005",
                              f"class-level state {root}.{chain[1]} mutated in {name}: class "
                              f"attributes are process-global, shared by every core in a batch")
            elif root in module_mutables:
                yield Finding(path, line, "SHR005",
                              f"module-level mutable {root!r} mutated in {name}: module "
                              f"globals are process-global, shared by every core in a batch")


# ----------------------------------------------------------------------
# Running the rules
# ----------------------------------------------------------------------
def _justified_lines(source: str, marker: str) -> Set[int]:
    """Line numbers carrying ``marker`` followed by a reason."""
    return {
        lineno for lineno, text in enumerate(source.splitlines(), start=1)
        if marker in text and text.split(marker, 1)[1].strip()
    }


def lint_source(path: str, source: str, codes: Collection[str] = CODES) -> List[Finding]:
    """The findings of the rules in ``codes`` on one file's text, sorted
    by (line, code), less those its markers excuse.  A file that does not
    parse gives one ``SyntaxError`` finding."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "SyntaxError", exc.msg)]
    findings: List[Finding] = []
    if any(code.startswith("DET") for code in codes):
        walk = _DeterminismWalk(path)
        walk.visit(tree)
        findings += walk.findings
    if "SHR005" in codes:
        findings += _shared_state(path, tree)
    excused = {family: _justified_lines(source, f"{family.lower()}-ok:")
               for family in ("DET", "SHR")}
    kept = [f for f in findings if f.code in codes and f.line not in excused[f.code[:3]]]
    return sorted(kept, key=lambda f: (f.line, f.code))


def run_lint(paths: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint ``paths`` (files, or directories searched for ``*.py``) with
    every rule, or with none each :data:`TARGETS` row with its own codes.
    A file named more than once is parsed once, with the union of its
    codes.  Findings are sorted by (path, line, code); a missing path
    raises ``FileNotFoundError``."""
    rows = TARGETS if paths is None else ((tuple(paths), CODES),)
    named = dict.fromkeys(raw for row_paths, _ in rows for raw in row_paths)
    missing = [raw for raw in named if not Path(raw).exists()]
    if missing:
        raise FileNotFoundError(f"no such path(s): {missing}")
    file_codes: Dict[str, Set[str]] = {}
    for row_paths, codes in rows:
        for raw in row_paths:
            root = Path(raw)
            if root.is_dir():
                files = sorted(root.rglob("*.py"))
            else:
                files = [root] if root.suffix == ".py" else []
            for file in files:
                file_codes.setdefault(str(file), set()).update(codes)
    return [
        finding
        for path, file_rules in sorted(file_codes.items())
        for finding in lint_source(path, Path(path).read_text(), file_rules)
    ]
