"""Rule registry for the whole-repo lint engine.

A rule is a class with a ``code`` (stable identifier, e.g. ``DET003``),
a ``summary`` one-liner (surfaced in ``--list-rules`` and as SARIF rule
metadata) and a ``check`` method that inspects one parsed file.  Rules
self-register at import time::

    @register
    class NoWallClock(Rule):
        code = "DET001"
        summary = "wall-clock reads in the deterministic core"

        def check(self, ctx):
            ...yield Finding(...)

``blocking`` controls failure semantics: a blocking rule's findings
always fail the run, a warn-first rule (``blocking = False``) only
fails on findings *not* recorded in the committed baseline file — the
ratchet pattern for introducing a rule into a codebase that does not
yet satisfy it.

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
    "get_rule",
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

    @property
    def fingerprint(self) -> str:
        """Baseline identity: survives line drift, not message changes."""
        return f"{self.path}::{self.code}::{self.message}"


class FileContext:
    """One file, parsed once and shared by every rule.

    ``suppressed`` holds the line numbers carrying a justified
    ``# det-ok: <reason>`` comment; the engine filters findings on those
    lines after the rule runs, so rules never handle suppression
    themselves.
    """

    __slots__ = ("path", "source", "tree", "suppressed", "shr_suppressed")

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.AST,
        suppressed: Set[int],
        shr_suppressed: Set[int] = frozenset(),
    ):
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressed = suppressed
        #: lines carrying ``# shr-ok: <reason>`` (SHR-family suppression)
        self.shr_suppressed = shr_suppressed

    def suppressed_for(self, code: str) -> Set[int]:
        """Lines whose suppression comment covers ``code``'s family."""
        if code.startswith("SHR"):
            return self.shr_suppressed
        return self.suppressed


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    code: str = ""
    summary: str = ""
    #: blocking rules always fail the run; warn-first rules defer to the
    #: baseline ratchet
    blocking: bool = True

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


def get_rule(code: str) -> Rule:
    return _REGISTRY[code]
