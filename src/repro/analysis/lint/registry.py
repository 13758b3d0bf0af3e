"""Rule registry for the whole-repo lint engine.

A rule is a class with a ``code`` (stable identifier, e.g. ``DET003``),
a ``summary`` one-liner (surfaced by ``repro-sim lint --explain`` and as
SARIF rule metadata) and a ``check`` method that inspects one parsed
file.  Rules self-register at import time::

    @register
    class NoWallClock(Rule):
        code = "DET001"
        summary = "wall-clock reads in the deterministic core"

        def check(self, ctx):
            ...yield Finding(...)

Every finding fails the run; rules never handle suppression
themselves (the engine drops findings on lines carrying their family's
marker).

The registry is module-global and populated by importing the rule
modules (``repro.analysis.lint.rules_determinism`` ships the DET set);
:func:`all_rules` returns them in code order for deterministic output.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Type

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
]


@dataclass(frozen=True)
class Finding:
    """One lint hit: a rule fired at a location."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


class FileContext:
    """One file, parsed once and shared by every rule."""

    __slots__ = ("path", "source", "tree")

    def __init__(self, path: str, source: str, tree: ast.AST):
        self.path = path
        self.source = source
        self.tree = tree


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    code: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(ctx.path, getattr(node, "lineno", 0), self.code, message)


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and index the rule by its code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls()
    return cls


def all_rules(codes: Optional[Set[str]] = None) -> List[Rule]:
    """Registered rules in code order, optionally filtered."""
    rules = [_REGISTRY[c] for c in sorted(_REGISTRY)]
    if codes is not None:
        unknown = codes - set(_REGISTRY)
        if unknown:
            raise KeyError(f"unknown rule code(s): {sorted(unknown)}")
        rules = [r for r in rules if r.code in codes]
    return rules
