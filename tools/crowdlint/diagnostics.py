"""Diagnostics and the ``# crowdlint: disable=`` escape hatch.

A :class:`Diagnostic` pins one rule violation to a file, line, and
column.  Suppression is line-scoped, flake8-``noqa``-style: a trailing
``# crowdlint: disable=DET001`` (comma-separated for several rules, or
bare ``disable`` for all of them) on the *flagged physical line* makes
the linter skip it.  There is deliberately no file- or block-level
disable — every suppression stays visible next to the code it excuses.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

_PRAGMA = re.compile(
    r"#\s*crowdlint:\s*disable(?:=(?P<rules>[A-Z0-9_,\s]+))?", re.ASCII
)


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at a precise source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @classmethod
    def at(
        cls, rule: str, path: Path | str, node: ast.AST | None, message: str
    ) -> "Diagnostic":
        """A finding at *node*'s position in *path* (line 1, column 1
        when the node carries none, e.g. a module or a missing one)."""
        return cls(
            rule=rule,
            path=str(path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def disabled_rules(source_line: str) -> frozenset[str] | None:
    """Rules suppressed on this physical line.

    Returns None when the line carries no pragma, an empty frozenset for
    a bare ``# crowdlint: disable`` (suppress everything), and the named
    rule set otherwise.
    """
    match = _PRAGMA.search(source_line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(
        name.strip() for name in rules.split(",") if name.strip()
    )


def is_suppressed(diagnostic: Diagnostic, source_lines: list[str]) -> bool:
    """Does the flagged line carry a pragma covering this rule?"""
    index = diagnostic.line - 1
    if not 0 <= index < len(source_lines):
        return False
    rules = disabled_rules(source_lines[index])
    if rules is None:
        return False
    return not rules or diagnostic.rule in rules
