"""OBS001 — observability work outside the ``enabled`` guard.

The observability layer's contract (PR 5) is that a disabled stack —
``NULL_OBS`` / ``resolve(None)`` — costs nothing on the hot path: the
no-op sink is cheap, but *argument construction still runs at the call
site*.  An unguarded ``obs.inc(f"{ns}.drain", len(batch))`` allocates
an f-string and walks a container even when observability is off,
eroding the obs-off <5% regression budget one call at a time.

``OBS001`` flags calls to the recording methods (``inc``, ``gauge``,
``observe``, ``event``, ``span``, ``add_snapshot``) on an ``obs``-named
receiver whose arguments allocate (f-strings, nested calls, arithmetic,
container displays, comprehensions) when the call is not dominated by
an ``enabled`` check — an enclosing ``if ....enabled:`` / conditional
expression, or an earlier ``if not ....enabled: return`` early-out in
the same function.  Calls whose every argument is a plain name,
attribute, or literal are exempt: those are what the no-op sink makes free.  The
``repro.obs`` package itself is exempt (it *is* the sink).
"""

from __future__ import annotations

import ast

from crowdlint.rules import LintContext

RULE = "OBS001"

_RECORDING_METHODS = frozenset(
    {"inc", "gauge", "observe", "event", "span", "add_snapshot"}
)


def _is_obs_receiver(node: ast.expr) -> bool:
    """``obs``, ``self.obs``, ``self._obs``, ``component.obs`` ..."""
    if isinstance(node, ast.Name):
        return node.id in {"obs", "_obs"}
    if isinstance(node, ast.Attribute):
        return node.attr in {"obs", "_obs"}
    return False


def _allocates(node: ast.expr) -> bool:
    """Does evaluating *node* do work beyond a load?"""
    if isinstance(node, (ast.Constant, ast.Name)):
        return False
    if isinstance(node, ast.Attribute):
        return _allocates(node.value)
    if isinstance(node, ast.UnaryOp):
        return _allocates(node.operand)
    return True


def _test_checks_enabled(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled"
        for node in ast.walk(test)
    )


class ObsGuardRule:
    """OBS001 — allocating observability calls outside the enabled guard."""

    rule = RULE

    def check(self, ctx: LintContext) -> None:
        if "obs" in ctx.path.parts:
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RECORDING_METHODS
                and _is_obs_receiver(node.func.value)
            ):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            if not any(_allocates(value) for value in values):
                continue
            if self._is_guarded(ctx, node):
                continue
            ctx.report(
                self.rule,
                node,
                f"obs.{node.func.attr}(...) builds its arguments even when "
                "observability is disabled; guard the call with "
                "`if obs.enabled:` (or precompute under the guard)",
            )

    def _is_guarded(self, ctx: LintContext, call: ast.Call) -> bool:
        # Enclosing `if ....enabled` / conditional expression?
        enclosing_function: ast.AST | None = None
        node: ast.AST | None = call
        while node is not None:
            node = ctx.parent(node)
            if isinstance(node, (ast.If, ast.IfExp)) and _test_checks_enabled(
                node.test
            ):
                return True
            if isinstance(node, ast.Assert) and _test_checks_enabled(node.test):
                return True
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and enclosing_function is None
            ):
                enclosing_function = node
                break
        # Early-out `if not ....enabled: return` above the call?
        if enclosing_function is not None:
            for stmt in ast.walk(enclosing_function):
                if (
                    isinstance(stmt, ast.If)
                    and stmt.lineno < call.lineno
                    and isinstance(stmt.test, ast.UnaryOp)
                    and isinstance(stmt.test.op, ast.Not)
                    and _test_checks_enabled(stmt.test.operand)
                    and any(
                        isinstance(s, (ast.Return, ast.Continue))
                        for s in stmt.body
                    )
                ):
                    return True
        return False
