"""Per-function dataflow summaries.

For each function the project-wide passes care about, crowdlint builds
a :class:`FunctionSummary`: parameters and their annotations, local
name bindings (def sites with the bound expression), mutation calls on
locals and on ``self`` attributes, attribute writes, reads/writes of
module-level names, and the expressions the function returns.  Nested
functions (closures like ``encode_exchange``'s ``vref``/``wref``) are
folded into the enclosing summary, since names they touch live in the
enclosing frame.

These summaries are deliberately flow-*insensitive* within a function:
a name with more than one binding must have *every* binding proven for
any property that consumes the summary (the escape prover, the codec
checker).  That keeps the analysis sound-for-its-purpose without a
full CFG.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from crowdlint.project import dotted_name

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {"append", "extend", "add", "update", "insert", "pop", "popleft",
     "remove", "discard", "clear", "setdefault", "appendleft", "rotate",
     "sort", "reverse", "__setitem__"}
)


@dataclass
class Mutation:
    """One in-place mutation: ``target.method(args)`` or
    ``target[...] = value`` / ``target.attr = value``."""

    target: str          # root name being mutated ("self.x" for attrs)
    method: str          # "append", "[]=", ".=" ...
    node: ast.AST
    args: tuple[ast.expr, ...] = ()


@dataclass
class FunctionSummary:
    """Everything the project passes need to know about one function."""

    name: str
    node: ast.FunctionDef
    params: dict[str, ast.expr | None] = field(default_factory=dict)
    #: local name -> every expression ever bound to it (incl. loop targets,
    #: with-targets; loop/with targets bind to the iterable/ctx expr and are
    #: listed in ``loop_bindings``/``with_bindings`` for type adjustment).
    bindings: dict[str, list[ast.expr]] = field(default_factory=dict)
    #: names bound as for-loop targets -> the iterated expression.
    loop_bindings: dict[str, list[ast.expr]] = field(default_factory=dict)
    #: names bound by tuple-unpacking a for-loop target -> (iter expr, index).
    loop_unpack_bindings: dict[str, list[tuple[ast.expr, int]]] = field(
        default_factory=dict
    )
    mutations: list[Mutation] = field(default_factory=list)
    #: self attribute writes: attr name -> assigned expressions.
    self_writes: dict[str, list[ast.expr]] = field(default_factory=dict)
    #: names read that are not params, locals, or builtins (candidates for
    #: module-level / closure reads).
    free_reads: dict[str, list[ast.Name]] = field(default_factory=dict)
    #: names declared ``global`` and written.
    global_writes: set[str] = field(default_factory=set)
    returns: list[ast.expr] = field(default_factory=list)
    #: every Call node in the body (for call-site scans).
    calls: list[ast.Call] = field(default_factory=list)
    #: attribute reads off self: attr -> nodes.
    self_reads: dict[str, list[ast.Attribute]] = field(default_factory=dict)

    def is_local(self, name: str) -> bool:
        return name in self.params or name in self.bindings

    def single_binding(self, name: str) -> ast.expr | None:
        """The unique binding of *name*, or None if absent/ambiguous."""
        bindings = self.bindings.get(name, [])
        return bindings[0] if len(bindings) == 1 else None


def _bind(summary: FunctionSummary, name: str, value: ast.expr) -> None:
    summary.bindings.setdefault(name, []).append(value)


def _record_target(
    summary: FunctionSummary, target: ast.expr, value: ast.expr
) -> None:
    if isinstance(target, ast.Name):
        _bind(summary, target.id, value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _record_target(summary, element, value)
    elif isinstance(target, ast.Attribute):
        base = target.value
        if isinstance(base, ast.Name) and base.id == "self":
            summary.self_writes.setdefault(target.attr, []).append(value)
            summary.mutations.append(
                Mutation(f"self.{target.attr}", ".=", target, (value,))
            )
        else:
            root = dotted_name(base)
            if root is not None:
                summary.mutations.append(
                    Mutation(root, ".=", target, (value,))
                )
    elif isinstance(target, ast.Subscript):
        base = target.value
        while isinstance(base, ast.Subscript):
            base = base.value
        root = dotted_name(base)
        if root is not None:
            summary.mutations.append(Mutation(root, "[]=", target, (value,)))


def summarize_function(func: ast.FunctionDef) -> FunctionSummary:
    """Build the dataflow summary of *func*, nested defs folded in."""
    summary = FunctionSummary(name=func.name, node=func)
    arguments = func.args
    for arg in (
        list(arguments.posonlyargs) + list(arguments.args)
        + list(arguments.kwonlyargs)
    ):
        summary.params[arg.arg] = arg.annotation
    if arguments.vararg is not None:
        summary.params[arguments.vararg.arg] = None
    if arguments.kwarg is not None:
        summary.params[arguments.kwarg.arg] = None

    globals_declared: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: its body runs in (reads/mutates) the
            # enclosing frame; fold it in, but its params become locals.
            for arg in (
                list(node.args.posonlyargs) + list(node.args.args)
                + list(node.args.kwonlyargs)
            ):
                summary.bindings.setdefault(arg.arg, [])
            for child in node.body:
                visit(child)
            return
        if isinstance(node, ast.Lambda):
            for child in ast.iter_child_nodes(node.body):
                visit(child)
            visit(node.body)
            return
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                _record_target(summary, target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            _record_target(summary, node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            _record_target(summary, node.target, node.value)
            if isinstance(node.target, ast.Name):
                summary.mutations.append(
                    Mutation(node.target.id, "+=", node, (node.value,))
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            target = node.target
            if isinstance(target, ast.Name):
                summary.loop_bindings.setdefault(target.id, []).append(
                    node.iter
                )
                _bind(summary, target.id, node.iter)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for index, element in enumerate(target.elts):
                    if isinstance(element, ast.Name):
                        summary.loop_unpack_bindings.setdefault(
                            element.id, []
                        ).append((node.iter, index))
                        _bind(summary, element.id, node.iter)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    _bind(summary, item.optional_vars.id, item.context_expr)
        elif isinstance(node, ast.comprehension):
            _record_target(summary, node.target, node.iter)
        elif isinstance(node, ast.Return) and node.value is not None:
            summary.returns.append(node.value)
        elif isinstance(node, ast.Call):
            summary.calls.append(node)
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr in MUTATING_METHODS
            ):
                root = dotted_name(node.func.value)
                if root is not None:
                    summary.mutations.append(
                        Mutation(
                            root, node.func.attr, node, tuple(node.args)
                        )
                    )
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Load)
            ):
                summary.self_reads.setdefault(node.attr, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in func.body:
        visit(stmt)

    # Free reads: loads of names that are neither params nor locals.
    import builtins

    builtin_names = set(dir(builtins))
    for stmt in func.body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and not summary.is_local(node.id)
                and node.id not in builtin_names
            ):
                summary.free_reads.setdefault(node.id, []).append(node)
    summary.global_writes = {
        name for name in globals_declared
        if name in summary.bindings or any(
            m.target == name for m in summary.mutations
        )
    }
    return summary
