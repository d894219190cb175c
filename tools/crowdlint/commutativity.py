"""COMM001/COMM002 — commutativity hazards in the commit path.

The sharded decentralised commit (PR 7) is correct because every pair
of committed operations commutes: each shard applies any linear
extension of the per-shard logs and still converges.  That property
holds only while op ``apply`` handlers are *pure functions of the
replica table and their own payload*.  These passes walk the commit
path — every ``apply`` method of the ``Message`` union, plus its
transitive callees through the project call graph — and convict:

- ``COMM001`` — shared-state hazards: the handler (or a callee) reads
  or mutates **module-level mutable state** or writes ``global`` names
  (two replicas applying in different orders would observe each other
  through the shared module), or mutates the message object itself
  (ops are frozen value objects; an apply that writes ``self`` makes
  the second delivery of the same op differ from the first).
- ``COMM002`` — order dependence: the handler draws randomness, reads
  a clock, or consumes an arrival-order counter (``len()`` of a trace/
  commit-log, ``seq``/``lseq`` attributes).  Any such input
  differs between replicas that apply the same committed set in
  different interleavings, breaking the merged-linear-extension replay
  guarantee.
"""

from __future__ import annotations

import ast

from crowdlint.dataflow import FunctionSummary, summarize_function
from crowdlint.diagnostics import Diagnostic
from crowdlint.project import ModuleInfo, Project, dotted_name

RULE_SHARED = "COMM001"
RULE_ORDER = "COMM002"

DOCS = {
    RULE_SHARED: (
        "Commit-path shared state: an op apply handler (or a transitive "
        "callee) reads or mutates module-level mutable state, writes a "
        "global, or mutates the frozen message object. Replicas applying "
        "the same committed set in different orders would observe each "
        "other through that state, breaking the merged-linear-extension "
        "replay guarantee of the decentralised commit."
    ),
    RULE_ORDER: (
        "Commit-path order dependence: an op apply handler draws "
        "randomness, reads a clock, or consumes an arrival-order counter "
        "(len() of a trace/commit-log, seq/lseq attributes). Such "
        "inputs differ between replicas applying different linear "
        "extensions, so applies stop commuting."
    ),
}

#: Attribute names whose ``len()``/reads encode arrival order.
ORDER_LOG_ATTRS = frozenset(
    {"trace", "commit_log", "_commit_log", "pending", "_pending",
     "journal", "_journal"}
)

ORDER_COUNTER_ATTRS = frozenset(
    {"seq", "_seq", "next_seq", "_next_seq", "lseq", "_lseq"}
)

CLOCK_TAILS = frozenset({"now", "time", "monotonic", "perf_counter"})


def _commit_closure(
    project: Project, module: ModuleInfo, members: list[str]
) -> list[tuple[ModuleInfo, ast.FunctionDef, ast.ClassDef | None, bool]]:
    """Every function reachable from the union members' ``apply``
    handlers; the final flag marks the root handlers themselves."""
    reached: list[
        tuple[ModuleInfo, ast.FunctionDef, ast.ClassDef | None, bool]
    ] = []
    seen: set[int] = set()
    worklist: list[
        tuple[ModuleInfo, ast.FunctionDef, ast.ClassDef | None, bool, int]
    ] = []
    for member in members:
        cls = module.classes.get(member)
        if cls is None:
            continue
        apply = module.class_methods(member).get("apply")
        if apply is not None:
            worklist.append((module, apply, cls, True, 0))
    while worklist:
        mod, func, owner, is_root, depth = worklist.pop()
        if id(func) in seen or depth > 6:
            continue
        seen.add(id(func))
        reached.append((mod, func, owner, is_root))
        summary = summarize_function(func)
        callees = list(project.callees(mod, func, owner))
        # Calls through class-annotated parameters (``table.apply_*``
        # where ``table: CandidateTable``) — the shared apply loop.
        param_classes: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
        for param, annotation in summary.params.items():
            if annotation is None:
                continue
            name = dotted_name(annotation)
            if name is None and isinstance(annotation, ast.Constant) and (
                isinstance(annotation.value, str)
            ):
                name = annotation.value
            if name is None:
                continue
            found = project.resolve_class(mod, name)
            if found is not None:
                param_classes[param] = found
        for call in summary.calls:
            func_expr = call.func
            if (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id in param_classes
            ):
                cmod, ccls = param_classes[func_expr.value.id]
                method = cmod.class_methods(ccls.name).get(func_expr.attr)
                if method is not None:
                    callees.append((cmod, method, ccls))
        for cmod, cfunc, cowner in callees:
            worklist.append((cmod, cfunc, cowner, False, depth + 1))
    return reached


def check_commutativity(project: Project) -> list[Diagnostic]:
    """Run COMM001/COMM002 over the commit path of *project*."""
    located = project.find_message_union()
    if located is None:
        return []
    messages_module, members = located
    diagnostics: list[Diagnostic] = []
    for mod, func, owner, is_root in _commit_closure(
        project, messages_module, members
    ):
        summary = summarize_function(func)
        where = (
            f"{owner.name}.{func.name}" if owner is not None else func.name
        )
        diagnostics.extend(
            _check_shared_state(mod, summary, where, is_root)
        )
        diagnostics.extend(_check_order_dependence(mod, summary, where))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diagnostics


def _check_shared_state(
    mod: ModuleInfo, summary: FunctionSummary, where: str, is_root: bool
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for name, reads in sorted(summary.free_reads.items()):
        if name in mod.module_mutables:
            out.append(
                Diagnostic.at(
                    RULE_SHARED, mod.path, reads[0],
                    f"commit-path handler {where} reads module-level mutable "
                    f"`{name}`: replicas applying ops in different orders "
                    "would observe each other through shared module state",
                )
            )
    for mutation in summary.mutations:
        root = mutation.target.split(".", 1)[0]
        if root == "self":
            continue
        if not summary.is_local(root) and (
            root in mod.module_mutables or root in mod.module_bindings
        ):
            out.append(
                Diagnostic.at(
                    RULE_SHARED, mod.path, mutation.node,
                    f"commit-path handler {where} mutates module-level "
                    f"`{root}`: committed ops must not couple replicas "
                    "through shared module state",
                )
            )
    for name in sorted(summary.global_writes):
        out.append(
            Diagnostic.at(
                RULE_SHARED, mod.path, summary.node,
                f"commit-path handler {where} writes global `{name}`: "
                "apply handlers must be pure functions of replica + payload",
            )
        )
    if is_root and summary.self_writes:
        attr = sorted(summary.self_writes)[0]
        out.append(
            Diagnostic.at(
                RULE_SHARED, mod.path, summary.self_writes[attr][0],
                f"op handler {where} mutates the message object "
                f"(self.{attr}): ops are frozen value objects applied once "
                "per replica; handler state breaks re-delivery",
            )
        )
    return out


def _check_order_dependence(
    mod: ModuleInfo, summary: FunctionSummary, where: str
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for call in summary.calls:
        dotted = dotted_name(call.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        tail = parts[-1]
        if any(part in {"rng", "random"} for part in parts[:-1]) or (
            parts[0] == "random"
        ) or tail in {"randrange", "randint", "shuffle", "choice"}:
            out.append(
                Diagnostic.at(
                    RULE_ORDER, mod.path, call,
                    f"commit-path handler {where} draws randomness "
                    f"(`{dotted}`): the draw position depends on apply "
                    "order, so replicas diverge under reordering",
                )
            )
        elif tail in CLOCK_TAILS and len(parts) > 1:
            out.append(
                Diagnostic.at(
                    RULE_ORDER, mod.path, call,
                    f"commit-path handler {where} reads a clock "
                    f"(`{dotted}`): apply-time clocks differ per replica "
                    "and per order; use the commit timestamp carried by "
                    "the op",
                )
            )
        elif (
            dotted == "len"
            and call.args
            and isinstance(call.args[0], ast.Attribute)
            and call.args[0].attr in ORDER_LOG_ATTRS
        ):
            out.append(
                Diagnostic.at(
                    RULE_ORDER, mod.path, call,
                    f"commit-path handler {where} reads "
                    f"len(...{call.args[0].attr}): arrival counts differ "
                    "across replicas applying different linear extensions",
                )
            )
    for attr, reads in sorted(summary.self_reads.items()):
        if attr in ORDER_COUNTER_ATTRS:
            out.append(
                Diagnostic.at(
                    RULE_ORDER, mod.path, reads[0],
                    f"commit-path handler {where} reads the order counter "
                    f"self.{attr}: its value depends on local apply order, "
                    "not on the committed set",
                )
            )
    return out
