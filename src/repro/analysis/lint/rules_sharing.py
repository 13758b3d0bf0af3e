"""SHR005: process-global mutable state in the simulator.

The consecutive points that one pool worker serves, and the tasks of
one remote lease, run in one process, one after another, so anything
that lives at process scope carries over from one core to the next: a
mutable default argument, a class attribute, a module global.  Writing
such state at run time couples cores that must stay independent.  The
rule flags:

* a mutable default argument (``def f(acc=[])``, ``dict()``, ...);
* a write into a class attribute of a class defined in the module
  (``Registry.entries[key] = 1``, ``Event.constructed += 1``);
* a write into a module global bound to a mutable literal
  (``CACHE[key] = value``).

Writes through ``self``/``cls``, through parameters and through names
the function binds itself are not process-global and are not flagged.
The facts are per module: one AST pass, no call graph.

A deliberate exception — a monotone test-hook counter, say — carries
a ``# shr-ok: <reason>`` comment on the reported line.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple, Union

from .registry import FileContext, Finding, Rule, register

__all__ = ["SHR_RULE_CODES"]

SHR_RULE_CODES = ("SHR005",)

_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_DEFAULT_CALLS = frozenset({"list", "dict", "set", "deque", "defaultdict"})
#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "appendleft", "add", "insert", "extend", "extendleft",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "sort", "reverse", "rotate",
})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_DISPLAYS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_DEFAULT_CALLS
    return False


def _chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``Registry.entries[k]`` -> ("Registry", "entries", "[]"); None
    when the expression is not rooted at a plain name."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        base = _chain(node.value)
        return None if base is None else base + (node.attr,)
    if isinstance(node, ast.Subscript):
        base = _chain(node.value)
        return None if base is None else base + ("[]",)
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
    """Every node of ``func``'s body, not descending into nested
    function, lambda or class scopes."""
    stack: List[ast.AST] = list(reversed(func.body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _mutations(func: _Function) -> Tuple[List[Tuple[Tuple[str, ...], int]], Set[str]]:
    """(written chains with their lines, names the function binds).

    A written chain is an assignment or ``del`` target, or the receiver
    of an in-place mutator call (``CACHE.append(x)`` writes
    ``("CACHE",)``)."""
    writes: List[Tuple[Tuple[str, ...], int]] = []
    bound: Set[str] = set()
    for node in _body_nodes(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            # ``x += 1`` on a bare name is a local rebind.
            if node.value is not None or isinstance(node, ast.AugAssign):
                targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    bound.add(item.optional_vars.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
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
                if not isinstance(node, (ast.AugAssign, ast.Delete)):
                    bound.add(target.id)
            else:
                chain = _chain(target)
                if chain is not None:
                    writes.append((chain, target.lineno))
    return writes, bound


@register
class SharedMutableState(Rule):
    code = "SHR005"
    summary = ("mutable default argument, class attribute or module "
               "global mutated — one instance shared across cores")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tree = ctx.tree
        assert isinstance(tree, ast.Module)
        classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
        module_mutables = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, _MUTABLE_DISPLAYS)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for func, name in _functions(tree):
            args = func.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            if any(_is_mutable_default(d) for d in defaults):
                yield self.finding(
                    ctx, func,
                    "mutable default argument in %s: one instance is "
                    "shared by every call from every core" % name,
                )
            params = {
                a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            }
            params.update(
                a.arg for a in (args.vararg, args.kwarg) if a is not None
            )
            writes, bound = _mutations(func)
            for chain, line in writes:
                root = chain[0]
                if root in params or root in bound:
                    continue
                if root in classes and len(chain) > 1:
                    message = (
                        "class-level state %s.%s mutated in %s: class "
                        "attributes are process-global, shared by every "
                        "core in a batch" % (root, chain[1], name)
                    )
                elif root in module_mutables:
                    message = (
                        "module-level mutable %r mutated in %s: module "
                        "globals are process-global, shared by every core "
                        "in a batch" % (root, name)
                    )
                else:
                    continue
                yield Finding(ctx.path, line, self.code, message)
