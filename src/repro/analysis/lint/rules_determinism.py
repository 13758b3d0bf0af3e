"""The determinism rule set (DET001–DET005).

Simulation results must be bit-identical across runs, Python versions
and processes — the result cache (the resume record) and every
regression test depend on it.  These rules statically ban the classic
ways nondeterminism sneaks in.

``DET001`` wall-clock reads
    ``time.time`` / ``time.time_ns`` / ``time.perf_counter`` /
    ``time.monotonic`` / ``datetime.now`` / ``datetime.utcnow``.

``DET002`` unseeded randomness
    any call through the module-global ``random.*`` API, and
    ``random.Random()`` without an explicit seed argument.

``DET003`` order-dependent iteration
    ``for`` loops and comprehensions iterating directly over a set
    literal/constructor/comprehension or over ``.keys()`` /
    ``.values()`` / ``.items()`` — including through a ``list()`` /
    ``tuple()`` wrapper — unless wrapped in ``sorted()``.  Dict
    iteration order is insertion order, which is deterministic *per
    process* but fragile under refactoring; the core must not depend
    on it.

``DET004`` monkey-patching the core
    ``setattr(core, ...)`` / ``setattr(self.core, ...)`` and direct
    assignments to private attributes of a core or stage object
    (``core._execute = f``, ``self.core.rename._x = f``).  Observers
    must subscribe to the typed event bus
    (``repro.pipeline.events.EventBus``) instead of wrapping methods —
    method-wrapping breaks silently on rename and made instrumentation
    part of the simulated semantics.

``DET005`` filesystem-order iteration
    iterating directly over ``Path.glob`` / ``rglob`` / ``iterdir`` or
    ``os.listdir`` / ``os.scandir`` results: directory enumeration
    order is filesystem-dependent.  Wrap in ``sorted(...)``.

A line may be exempted with an inline justification comment::

    stale = [k for k, v in table.items() if ...]  # det-ok: order-independent

Every suppression must carry a reason after ``det-ok:``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from .registry import FileContext, Finding, Rule, register

#: Directories/files whose determinism the simulator's results rest on.
DEFAULT_TARGETS = (
    "src/repro/pipeline",
    "src/repro/recycle",
    "src/repro/exec/cache.py",
    "src/repro/service",
)

#: DET004 sweeps the whole package: observers anywhere in src/ must go
#: through the event bus, not just code in the hot-core directories.
DET004_TARGETS = ("src/repro",)

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

_DICT_VIEWS = {"keys", "values", "items"}

_FS_ITER_ATTRS = {"glob", "rglob", "iterdir", "listdir", "scandir"}


def _dotted_call(node: ast.AST) -> Tuple:
    """``(base, attr)`` for a ``base.attr(...)`` call, else ``(None, None)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    ):
        return node.func.value.id, node.func.attr
    return None, None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEWS
        and not node.args
        and not node.keywords
    )


def _is_fs_iter(node: ast.AST) -> bool:
    """A call whose result enumerates a directory in filesystem order."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr in _FS_ITER_ATTRS:
        return True
    return isinstance(node.func, ast.Name) and node.func.id in ("listdir", "scandir")


def _unwrap_sequencing(node: ast.AST) -> ast.AST:
    """Strip ``list(...)``/``tuple(...)``/``reversed(...)`` wrappers —
    they preserve the underlying order, so the hazard remains."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple", "reversed")
        and len(node.args) == 1
    ):
        node = node.args[0]
    return node


def _is_core_ref(node: ast.AST) -> bool:
    """True for expressions that reach a Core/stage object: a name
    ``core``, an attribute ``<x>.core`` at any depth, or any attribute
    chain hanging off one (``core.rename``, ``self.core.resolve``)."""
    if isinstance(node, ast.Name):
        return node.id == "core"
    if isinstance(node, ast.Attribute):
        return node.attr == "core" or _is_core_ref(node.value)
    return False


def _expr_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)  # py>=3.9
    except Exception:  # pragma: no cover - unparse failure
        return "<expr>"


class _CollectingVisitor(ast.NodeVisitor):
    """Shared plumbing: rules drive a visitor that appends findings."""

    def __init__(self, rule: Rule, ctx: FileContext):
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []

    def flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.ctx, node, message))


class _IterOrderVisitor(_CollectingVisitor):
    """Walks every iteration site; subclass decides what is hazardous."""

    def check_iter(self, node: ast.AST, context: str) -> None:
        raise NotImplementedError

    def visit_For(self, node: ast.For) -> None:
        self.check_iter(node.iter, "for loop")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.check_iter(node.iter, "async for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self.check_iter(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def _run_visitor(visitor_cls, rule: Rule, ctx: FileContext) -> Iterator[Finding]:
    visitor = visitor_cls(rule, ctx)
    visitor.visit(ctx.tree)
    return iter(visitor.findings)


# ----------------------------------------------------------------------
# DET001: wall-clock reads
# ----------------------------------------------------------------------
class _WallClockVisitor(_CollectingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        base, attr = _dotted_call(node)
        if (base, attr) in _WALL_CLOCK:
            self.flag(node, f"wall-clock read {base}.{attr}()")
        self.generic_visit(node)


@register
class WallClockRule(Rule):
    code = "DET001"
    summary = "wall-clock reads make results time-dependent"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return _run_visitor(_WallClockVisitor, self, ctx)


# ----------------------------------------------------------------------
# DET002: unseeded randomness
# ----------------------------------------------------------------------
class _RandomVisitor(_CollectingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        base, attr = _dotted_call(node)
        if base == "random":
            if attr == "Random":
                if not node.args and not node.keywords:
                    self.flag(node, "random.Random() without an explicit seed")
            else:
                self.flag(
                    node,
                    f"module-global random.{attr}() (use a seeded "
                    f"random.Random instance)",
                )
        self.generic_visit(node)


@register
class UnseededRandomRule(Rule):
    code = "DET002"
    summary = "unseeded randomness breaks run-to-run reproducibility"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return _run_visitor(_RandomVisitor, self, ctx)


# ----------------------------------------------------------------------
# DET003: order-dependent iteration
# ----------------------------------------------------------------------
class _SetIterVisitor(_IterOrderVisitor):
    def check_iter(self, node: ast.AST, context: str) -> None:
        inner = _unwrap_sequencing(node)
        if _is_set_expr(inner):
            self.flag(
                node,
                f"{context} iterates over a set (order is salted per "
                f"process); sort or use an ordered container",
            )
        elif _is_dict_view(inner):
            attr = inner.func.attr  # type: ignore[attr-defined]
            self.flag(
                node,
                f"{context} iterates over .{attr}() directly; wrap in "
                f"sorted(...) or justify with '# det-ok: <reason>'",
            )


@register
class OrderDependentIterationRule(Rule):
    code = "DET003"
    summary = "iteration over sets/dict views depends on hash order"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return _run_visitor(_SetIterVisitor, self, ctx)


# ----------------------------------------------------------------------
# DET004: monkey-patching the core
# ----------------------------------------------------------------------
class _MonkeyPatchVisitor(_CollectingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and node.args
            and _is_core_ref(node.args[0])
        ):
            self.flag(
                node,
                f"setattr({_expr_text(node.args[0])}, ...) monkey-patches "
                f"the core; subscribe to the event bus instead",
            )
        self.generic_visit(node)

    def _check_core_write(self, target: ast.AST) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr.startswith("_")
            and _is_core_ref(target.value)
        ):
            self.flag(
                target,
                f"assignment to {_expr_text(target)} replaces a private "
                f"core/stage member; subscribe to the event bus instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_core_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_core_write(node.target)
        self.generic_visit(node)


@register
class CoreMonkeyPatchRule(Rule):
    code = "DET004"
    summary = "core instrumentation must use the event bus, not patching"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return _run_visitor(_MonkeyPatchVisitor, self, ctx)


# ----------------------------------------------------------------------
# DET005: filesystem-order iteration
# ----------------------------------------------------------------------
class _FsIterVisitor(_IterOrderVisitor):
    def check_iter(self, node: ast.AST, context: str) -> None:
        inner = _unwrap_sequencing(node)
        if _is_fs_iter(inner):
            self.flag(
                node,
                f"{context} iterates over directory entries in filesystem "
                f"order; wrap in sorted(...)",
            )


@register
class FilesystemOrderRule(Rule):
    code = "DET005"
    summary = "directory enumeration order is filesystem-dependent"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return _run_visitor(_FsIterVisitor, self, ctx)
