"""Per-file AST lint rules.

Every rule is repo-specific: it encodes an invariant this reproduction
depends on (seedable determinism, convergence of independently-evolving
replicas) rather than general style.  Rules operate on a parsed module
plus a parent map, and report through the shared :class:`LintContext`.

Rules:

- ``DET001`` — ambient entropy: direct use of module-level ``random``
  functions, wall clocks (``time.time``, ``datetime.now``), OS entropy
  (``os.urandom``, ``uuid.uuid4``, ``secrets``), or a ``random.Random``
  seeded from the hash-randomized builtin ``hash()``.  Components must
  draw from an injected ``repro.sim.rng`` stream / the simulator clock.
- ``DET002`` — iteration over a ``set``/``frozenset`` (hash-seed
  dependent order) feeding an order-sensitive sink — list building,
  message construction, network sends, trace logging, or RNG draws
  inside the loop — without an explicit ``sorted(...)``.  Dict views
  (``.keys()``/``.values()``) are insertion-ordered in-process but may
  diverge across replicas, so they are flagged in the strictest sinks
  (message construction / send / trace logging) only.
- ``DET003`` — ``id()`` in sort keys or hashes: CPython addresses vary
  per run, so any ordering or fingerprint derived from them is
  unreproducible.
- ``MUT001`` — mutable default arguments anywhere, plus module-level
  mutable state in the replicated subsystems (``core``/``server``/
  ``client``), where a shared list/dict/set silently couples replicas
  that the model requires to evolve independently.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from crowdlint.diagnostics import Diagnostic
from crowdlint.project import calls_to, dotted_name

#: Path components whose modules hold replicated state: module-level
#: mutable containers there are cross-replica coupling hazards.
REPLICATED_SUBSYSTEMS = frozenset({"core", "server", "client"})

_MESSAGE_CLASS = re.compile(r"Message$")

_BANNED_EXACT = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "clock/MAC-derived identifier",
    "uuid.uuid4": "OS entropy",
}

_ENTROPY_MODULES = {"random", "time", "datetime", "os", "uuid", "secrets"}

_COMMUTATIVE_CONSUMERS = frozenset(
    {"set", "frozenset", "sorted", "sum", "any", "all", "min", "max", "len",
     "dict", "Counter"}
)

_ORDER_SENSITIVE_METHODS = frozenset(
    {"append", "extend", "insert", "appendleft", "write", "send", "put"}
)

_STRICT_SINK_NAMES = frozenset({"send", "log", "record", "emit", "trace"})

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict",
     "bytearray"}
)


@dataclass
class LintContext:
    """Shared state for one linted file."""

    path: Path
    tree: ast.Module
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[id(child)] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(id(node))

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        self.diagnostics.append(Diagnostic.at(rule, self.path, node, message))


# ---------------------------------------------------------------------------
# DET001 — ambient entropy
# ---------------------------------------------------------------------------


class UnseededEntropyRule:
    """Ambient entropy: module-level ``random`` draws, wall clocks,
    OS entropy, or ``random.Random`` seeded from builtin ``hash()``.
    Components must draw from an injected ``repro.sim.rng`` stream or
    the simulator clock so one seed reproduces one run exactly."""

    rule = "DET001"

    def check(self, ctx: LintContext) -> None:
        module_alias, name_alias = self._collect_imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = self._resolve(node.func, module_alias, name_alias)
            if resolved is None:
                continue
            if resolved == "random.Random":
                if any(calls_to(arg, "hash") for arg in node.args):
                    ctx.report(
                        self.rule,
                        node,
                        "random.Random seeded from builtin hash(): string "
                        "hashes vary per process (PYTHONHASHSEED); derive "
                        "seeds from repro.sim.rng.RngStreams or hashlib",
                    )
                continue
            if resolved.startswith("random."):
                ctx.report(
                    self.rule,
                    node,
                    f"direct use of the shared `{resolved}` generator; draw "
                    "from an injected repro.sim.rng stream instead",
                )
            elif resolved.startswith("secrets."):
                ctx.report(
                    self.rule,
                    node,
                    f"`{resolved}` uses OS entropy; experiments must be "
                    "seedable via repro.sim.rng",
                )
            elif resolved in _BANNED_EXACT:
                ctx.report(
                    self.rule,
                    node,
                    f"`{resolved}` is a {_BANNED_EXACT[resolved]}; use the "
                    "simulator clock (sim.now) or an injected rng stream",
                )

    @staticmethod
    def _collect_imports(
        ctx: LintContext,
    ) -> tuple[dict[str, str], dict[str, str]]:
        module_alias: dict[str, str] = {}
        name_alias: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _ENTROPY_MODULES:
                        module_alias[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root not in _ENTROPY_MODULES:
                    continue
                for alias in node.names:
                    name_alias[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return module_alias, name_alias

    @staticmethod
    def _resolve(
        func: ast.AST,
        module_alias: dict[str, str],
        name_alias: dict[str, str],
    ) -> str | None:
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in module_alias:
            return f"{module_alias[head]}.{rest}" if rest else module_alias[head]
        if head in name_alias:
            base = name_alias[head]
            return f"{base}.{rest}" if rest else base
        return None


# ---------------------------------------------------------------------------
# DET002 — unsorted set/dict-view iteration into order-sensitive sinks
# ---------------------------------------------------------------------------


class UnsortedSetIterationRule:
    """Unsorted ``set``/dict-view iteration feeding an order-sensitive
    sink (list building, message construction, sends, trace logging,
    RNG draws): iteration order follows the process hash seed, so the
    same run produces different traces; wrap the iterable in
    ``sorted(...)``."""

    rule = "DET002"

    def check(self, ctx: LintContext) -> None:
        set_names = self._collect_set_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                self._check_for(ctx, node, set_names)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                self._check_comprehension(ctx, node, set_names)
            elif isinstance(node, ast.Call):
                self._check_materialization(ctx, node, set_names)

    # -- set-typed inference --------------------------------------------------

    @staticmethod
    def _collect_set_names(tree: ast.Module) -> frozenset[str]:
        names: set[str] = set()

        def _note(target: ast.AST) -> str | None:
            if isinstance(target, ast.Name):
                return target.id
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ) and target.value.id == "self":
                return target.attr
            return None

        set_ann = re.compile(
            r"^(typing\.)?(set|frozenset|Set|FrozenSet|AbstractSet|MutableSet)\b"
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                name = _note(node.target)
                if name and set_ann.match(ast.unparse(node.annotation)):
                    names.add(name)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                if set_ann.match(ast.unparse(node.annotation)):
                    names.add(node.arg)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                value = node.value
                if isinstance(value, (ast.Set, ast.SetComp)) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in {"set", "frozenset"}
                ):
                    name = _note(node.targets[0])
                    if name:
                        names.add(name)
        return frozenset(names)

    def _is_set_expr(self, node: ast.AST, set_names: frozenset[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Attribute):
            return node.attr in set_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                return node.func.id in {"set", "frozenset"}
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "union", "intersection", "difference", "symmetric_difference",
                "copy",
            }:
                return self._is_set_expr(node.func.value, set_names)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False

    @staticmethod
    def _is_dict_view(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"keys", "values"}
            and not node.args
            and not node.keywords
        )

    # -- sink classification --------------------------------------------------

    @staticmethod
    def _order_sensitive_effect(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_METHODS
                ):
                    return True
                if dotted is not None and (
                    _MESSAGE_CLASS.search(dotted.rsplit(".", 1)[-1])
                    or ".rng." in f".{dotted}"
                ):
                    return True
        return False

    @staticmethod
    def _strict_sink_effect(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func) or ""
                tail = dotted.rsplit(".", 1)[-1]
                if _MESSAGE_CLASS.search(tail) or tail in _STRICT_SINK_NAMES:
                    return True
        return False

    # -- iteration contexts ---------------------------------------------------

    def _check_for(
        self, ctx: LintContext, node: ast.For, set_names: frozenset[str]
    ) -> None:
        if self._is_set_expr(node.iter, set_names):
            if self._order_sensitive_effect(node.body):
                ctx.report(
                    self.rule,
                    node.iter,
                    "iterating a set in an order-sensitive loop: set order "
                    "follows the process hash seed; wrap the iterable in "
                    "sorted(...)",
                )
        elif self._is_dict_view(node.iter):
            if self._strict_sink_effect(node.body):
                ctx.report(
                    self.rule,
                    node.iter,
                    "iterating a dict view into a message/trace sink: "
                    "insertion order may differ across replicas; iterate a "
                    "sorted(...) copy",
                )

    def _check_comprehension(
        self,
        ctx: LintContext,
        node: ast.ListComp | ast.GeneratorExp,
        set_names: frozenset[str],
    ) -> None:
        over_set = any(
            self._is_set_expr(gen.iter, set_names) for gen in node.generators
        )
        if not over_set:
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.Call):
            func = parent.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in _COMMUTATIVE_CONSUMERS:
                return
        ctx.report(
            self.rule,
            node,
            "building an ordered result from a set iteration: set order "
            "follows the process hash seed; iterate sorted(...) or feed an "
            "order-insensitive consumer",
        )

    def _check_materialization(
        self, ctx: LintContext, node: ast.Call, set_names: frozenset[str]
    ) -> None:
        if not (
            isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple", "enumerate"}
            and len(node.args) >= 1
            and self._is_set_expr(node.args[0], set_names)
        ):
            return
        parent = ctx.parent(node)
        if isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name):
            if parent.func.id in _COMMUTATIVE_CONSUMERS:
                return
        ctx.report(
            self.rule,
            node,
            f"{node.func.id}(...) over a set materializes hash-seed "
            "iteration order; use sorted(...)",
        )


# ---------------------------------------------------------------------------
# DET003 — id() in sort keys or hashes
# ---------------------------------------------------------------------------


class IdentityOrderRule:
    """``id()`` in sort keys or hashes: CPython object addresses vary
    per run, so any ordering or fingerprint derived from them is
    unreproducible; key on stable identifiers instead."""

    rule = "DET003"

    def check(self, ctx: LintContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name in {"sorted", "min", "max", "sort"}:
                for keyword in node.keywords:
                    if keyword.arg == "key" and self._mentions_id(keyword.value):
                        ctx.report(
                            self.rule,
                            keyword.value,
                            "id() in a sort key: object addresses vary per "
                            "run; key on stable identifiers instead",
                        )
            elif name == "hash" and any(
                self._mentions_id(arg) for arg in node.args
            ):
                ctx.report(
                    self.rule,
                    node,
                    "id() inside hash(): addresses vary per run; hash stable "
                    "content instead",
                )

    @staticmethod
    def _mentions_id(tree: ast.AST) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "id":
                return True
        return False


# ---------------------------------------------------------------------------
# MUT001 — mutable defaults and module-level mutable state
# ---------------------------------------------------------------------------


class MutableStateRule:
    """Mutable default arguments anywhere, plus module-level mutable
    containers in the replicated subsystems (``core``/``server``/
    ``client``): shared mutable state silently couples replicas the
    model requires to evolve independently."""

    rule = "MUT001"

    def check(self, ctx: LintContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                self._check_defaults(ctx, node)
        if REPLICATED_SUBSYSTEMS.intersection(ctx.path.parts):
            self._check_module_state(ctx)

    def _check_defaults(self, ctx: LintContext, node: ast.AST) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and self._is_mutable(default):
                ctx.report(
                    self.rule,
                    default,
                    "mutable default argument is shared across every call "
                    "(and every replica using the API); default to None",
                )

    def _check_module_state(self, ctx: LintContext) -> None:
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not self._is_mutable(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    ctx.report(
                        self.rule,
                        stmt,
                        f"module-level mutable state `{target.id}` couples "
                        "replicas that must evolve independently; use an "
                        "instance attribute or an immutable value",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in _MUTABLE_CONSTRUCTORS
        return False


#: Per-file rules, in reporting order.  EXH001 is project-level and
#: lives in :mod:`crowdlint.exhaustiveness`.
FILE_RULES = (
    UnseededEntropyRule(),
    UnsortedSetIterationRule(),
    IdentityOrderRule(),
    MutableStateRule(),
)
