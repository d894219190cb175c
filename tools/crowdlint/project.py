"""The project model: every module of the tree under analysis, parsed
once, cross-linked by imports, classes, functions, and a lightweight
call graph.

This is the substrate the project-wide rule families (COMM, WIRE, ESC,
OBS and the extended EXH) are written against — per-file AST rules see
one module at a time, but the invariants PR 7 introduced (commutative
commit path, complete wire codec, alias-free exchange payloads) span
modules, so crowdlint 2.0 builds:

- a **module table** (:class:`ModuleInfo` per file: tree, top-level
  classes and functions, import aliases, module-level bindings);
- a **symbol table** (:meth:`Project.resolve` maps a dotted name used
  in one module to the defining node in another);
- an **import graph** (:attr:`Project.import_graph`, project-internal
  edges only);
- a lightweight **call graph** (:meth:`Project.callees` resolves
  ``f(...)``, ``self.method(...)``, ``self.attr.method(...)`` and
  imported calls to project functions where it can);
- a **type engine** (:class:`TypeEngine`): best-effort structural
  types from annotations and assignments, plus the deep-immutability
  classification the aliasing-escape prover (ESC001) relies on.

Everything is syntactic (stdlib ``ast``); nothing under analysis is
imported.  All resolution is *best-effort and conservative*: an
unresolved name is ``None``/``UNKNOWN``, never a guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

#: Builtin types whose instances are immutable values.
IMMUTABLE_BUILTINS = frozenset(
    {"str", "int", "float", "bool", "bytes", "complex", "None", "NoneType"}
)

#: Builtin container constructors producing *mutable* containers.
MUTABLE_BUILTINS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "Counter", "OrderedDict",
     "bytearray"}
)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    """Every ``name(...)`` call under *tree*, in ``ast.walk`` order."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


def _is_mutable_display(node: ast.AST) -> bool:
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
        return name in MUTABLE_BUILTINS
    return False


@dataclass
class ModuleInfo:
    """One parsed module and its per-module indexes."""

    path: Path
    name: str
    tree: ast.Module
    source: str

    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: local alias -> fully dotted target ("pkg.mod" or "pkg.mod.Symbol").
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level name -> the bound value expression (last assignment).
    module_bindings: dict[str, ast.expr] = field(default_factory=dict)
    #: module-level names bound to mutable containers.
    module_mutables: dict[str, ast.stmt] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node  # type: ignore[assignment]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.module_bindings[target.id] = node.value
                    if _is_mutable_display(node.value):
                        self.module_mutables[target.id] = node
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.module_bindings[node.target.id] = node.value
                    if _is_mutable_display(node.value):
                        self.module_mutables[node.target.id] = node

    def class_methods(self, class_name: str) -> dict[str, ast.FunctionDef]:
        cls = self.classes.get(class_name)
        if cls is None:
            return {}
        return {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }


def message_union(module: ModuleInfo) -> list[str]:
    """Member names of *module*'s ``Message = Union[...]`` (or PEP-604
    ``A | B``) binding; empty when it has none."""
    binding = module.module_bindings.get("Message")
    if binding is None:
        return []
    return [
        sub.id
        for sub in ast.walk(binding)
        if isinstance(sub, ast.Name) and sub.id != "Union"
    ]


def module_name_for(path: Path) -> str:
    """The dotted module name of *path*, inferred from package markers.

    Walks up while ``__init__.py`` exists, so ``src/repro/core/table.py``
    becomes ``repro.core.table`` regardless of where the scan rooted.
    Files outside any package fall back to their stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.stem]
    return ".".join(parts)


def parse_module(path: Path) -> ModuleInfo:
    """Read and parse one file (raises ``OSError``/``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    return ModuleInfo(
        path=path, name=module_name_for(path), tree=ast.parse(source),
        source=source,
    )


class Project:
    """All modules of one analysis run, cross-linked."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: Every module by the path it was read from, shadowed ones too.
        self.files: dict[Path, ModuleInfo] = {}
        for info in modules:
            # First definition of a dotted name wins; files outside any
            # package can collide on bare stems.
            self.modules.setdefault(info.name, info)
            self.files[info.path] = info
        self.types = TypeEngine(self)
        self._import_graph: dict[str, set[str]] | None = None

    @classmethod
    def load(cls, files: Iterable[Path]) -> "Project":
        """Parse *files* into a project; unparsable files are skipped
        (the per-file driver reports them as ``PARSE`` separately)."""
        modules: list[ModuleInfo] = []
        for path in files:
            try:
                modules.append(parse_module(path))
            except (OSError, SyntaxError):
                continue
        return cls(modules)

    # -- lookup --------------------------------------------------------------

    def module(self, name: str) -> ModuleInfo | None:
        return self.modules.get(name)

    def find_message_union(self) -> tuple[ModuleInfo, list[str]] | None:
        """The first module (by dotted name) that defines a ``Message``
        union, and the union's member names."""
        for name in sorted(self.modules):
            members = message_union(self.modules[name])
            if members:
                return self.modules[name], members
        return None

    def find_module(self, suffix: str) -> ModuleInfo | None:
        """The unique module whose dotted name ends with *suffix*."""
        hits = [
            info for name, info in sorted(self.modules.items())
            if name == suffix or name.endswith("." + suffix)
        ]
        return hits[0] if hits else None

    @property
    def import_graph(self) -> dict[str, set[str]]:
        """module name -> project-internal modules it imports."""
        if self._import_graph is None:
            graph: dict[str, set[str]] = {}
            for name, info in self.modules.items():
                edges: set[str] = set()
                for target in info.imports.values():
                    if target in self.modules:
                        edges.add(target)
                        continue
                    head = target.rsplit(".", 1)[0]
                    if head in self.modules:
                        edges.add(head)
                graph[name] = edges
            self._import_graph = graph
        return self._import_graph

    def resolve(
        self, module: ModuleInfo, name: str
    ) -> tuple[ModuleInfo, ast.AST] | None:
        """The defining (module, node) of dotted *name* as seen from
        *module*: a local class/function/binding, an imported symbol, or
        a symbol of an imported module."""
        head, _, rest = name.partition(".")
        if not rest:
            if head in module.classes:
                return module, module.classes[head]
            if head in module.functions:
                return module, module.functions[head]
            if head in module.module_bindings:
                return module, module.module_bindings[head]
        target = module.imports.get(head)
        if target is None:
            if rest and head in module.classes:
                method = module.class_methods(head).get(rest)
                if method is not None:
                    return module, method
            return None
        dotted = f"{target}.{rest}" if rest else target
        # Longest-prefix match against known modules.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            mod = self.modules.get(".".join(parts[:cut]))
            if mod is None:
                continue
            symbol = parts[cut:]
            if not symbol:
                return mod, mod.tree
            if len(symbol) == 1:
                return self.resolve(mod, symbol[0]) or (
                    (mod, mod.classes[symbol[0]])
                    if symbol[0] in mod.classes else None
                )
            if symbol[0] in mod.classes:
                method = mod.class_methods(symbol[0]).get(symbol[1])
                if method is not None:
                    return mod, method
            return None
        return None

    def resolve_class(
        self, module: ModuleInfo, name: str
    ) -> tuple[ModuleInfo, ast.ClassDef] | None:
        resolved = self.resolve(module, name)
        if resolved is not None and isinstance(resolved[1], ast.ClassDef):
            return resolved[0], resolved[1]
        return None

    # -- call graph ----------------------------------------------------------

    def attr_class_of(
        self, module: ModuleInfo, cls: ast.ClassDef, attr: str
    ) -> tuple[ModuleInfo, ast.ClassDef] | None:
        """The class of ``self.<attr>``, from ``self.attr = Cls(...)``
        in ``__init__`` or a class-level / __init__ annotation."""
        for item in cls.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == attr
            ):
                ref = self.types.of_annotation(item.annotation, module)
                if ref.kind == "class":
                    return self.resolve_class(module, ref.name)
        init = next(
            (
                item for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return None
        for node in ast.walk(init):
            if isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr == attr
                ):
                    ref = self.types.of_annotation(node.annotation, module)
                    if ref.kind == "class":
                        return self.resolve_class(module, ref.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr == attr
                        and isinstance(node.value, ast.Call)
                    ):
                        name = dotted_name(node.value.func)
                        if name is not None:
                            found = self.resolve_class(module, name)
                            if found is not None:
                                return found
        return None

    def callees(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef,
        owner: ast.ClassDef | None = None,
    ) -> list[tuple[ModuleInfo, ast.FunctionDef, ast.ClassDef | None]]:
        """Project functions *func* calls, best-effort resolved.

        Handles plain calls (local or imported functions), method calls
        on ``self`` (including single-inheritance bases defined in the
        project), and one level of typed attribute indirection
        (``self.attr.method()`` where the attribute's class is known).
        """
        out: list[tuple[ModuleInfo, ast.FunctionDef, ast.ClassDef | None]] = []
        seen: set[int] = set()

        def add(
            mod: ModuleInfo, fn: ast.FunctionDef, cls: ast.ClassDef | None
        ) -> None:
            if id(fn) not in seen:
                seen.add(id(fn))
                out.append((mod, fn, cls))

        def method_on(
            mod: ModuleInfo, cls: ast.ClassDef, name: str
        ) -> tuple[ModuleInfo, ast.FunctionDef, ast.ClassDef] | None:
            current: tuple[ModuleInfo, ast.ClassDef] | None = (mod, cls)
            for _ in range(4):  # bounded MRO walk
                if current is None:
                    return None
                cmod, ccls = current
                method = cmod.class_methods(ccls.name).get(name)
                if method is not None:
                    return cmod, method, ccls
                base = next(
                    (dotted_name(b) for b in ccls.bases if dotted_name(b)),
                    None,
                )
                current = (
                    self.resolve_class(cmod, base) if base is not None else None
                )
            return None

        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name):
                resolved = self.resolve(module, callee.id)
                if resolved is not None and isinstance(
                    resolved[1], ast.FunctionDef
                ):
                    add(resolved[0], resolved[1], None)
            elif isinstance(callee, ast.Attribute):
                base = callee.value
                if isinstance(base, ast.Name) and base.id == "self":
                    if owner is not None:
                        hit = method_on(module, owner, callee.attr)
                        if hit is not None:
                            add(*hit)
                elif (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                    and owner is not None
                ):
                    attr_cls = self.attr_class_of(module, owner, base.attr)
                    if attr_cls is not None:
                        hit = method_on(
                            attr_cls[0], attr_cls[1], callee.attr
                        )
                        if hit is not None:
                            add(*hit)
                else:
                    name = dotted_name(callee)
                    if name is not None:
                        resolved = self.resolve(module, name)
                        if resolved is not None and isinstance(
                            resolved[1], ast.FunctionDef
                        ):
                            add(resolved[0], resolved[1], None)
        return out


# ---------------------------------------------------------------------------
# Structural types and deep immutability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeRef:
    """A best-effort structural type.

    ``kind`` is one of ``builtin`` (name is the builtin type),
    ``class`` (name is the dotted class name as written; resolve
    against the defining module), ``tuple``/``frozenset`` (args are the
    element types), ``union`` (args are alternatives), ``list``/``dict``
    /``set`` (mutable containers; args are element types), or
    ``unknown``.
    """

    kind: str
    name: str = ""
    args: tuple["TypeRef", ...] = ()


UNKNOWN = TypeRef("unknown")


class TypeEngine:
    """Annotation evaluation and deep-immutability classification."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._immutable_cache: dict[tuple[str, str], bool] = {}

    # -- annotations ---------------------------------------------------------

    def of_annotation(self, node: ast.AST | None, module: ModuleInfo) -> TypeRef:
        """Evaluate an annotation (or module-level alias) structurally."""
        return self._eval(node, module, depth=0)

    def _eval(self, node: ast.AST | None, module: ModuleInfo, depth: int) -> TypeRef:
        if node is None or depth > 8:
            return UNKNOWN
        if isinstance(node, ast.Constant):
            if node.value is None:
                return TypeRef("builtin", "None")
            if isinstance(node.value, str):  # string annotation
                try:
                    parsed = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return UNKNOWN
                return self._eval(parsed, module, depth + 1)
            if node.value is Ellipsis:
                return TypeRef("builtin", "...")
            return UNKNOWN
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self._eval(node.left, module, depth + 1)
            right = self._eval(node.right, module, depth + 1)
            alts: list[TypeRef] = []
            for side in (left, right):
                alts.extend(side.args if side.kind == "union" else (side,))
            return TypeRef("union", args=tuple(alts))
        if isinstance(node, ast.Subscript):
            head = dotted_name(node.value) or ""
            tail = head.rsplit(".", 1)[-1]
            elts = (
                list(node.slice.elts)
                if isinstance(node.slice, ast.Tuple)
                else [node.slice]
            )
            args = tuple(self._eval(e, module, depth + 1) for e in elts)
            if tail in {"Optional"}:
                inner = args[0] if args else UNKNOWN
                return TypeRef(
                    "union", args=(inner, TypeRef("builtin", "None"))
                )
            if tail in {"Union"}:
                return TypeRef("union", args=args)
            if tail in {"tuple", "Tuple"}:
                return TypeRef("tuple", args=args)
            if tail in {"frozenset", "FrozenSet"}:
                return TypeRef("frozenset", args=args)
            if tail in {"list", "List", "Sequence", "Iterable", "Iterator",
                        "deque", "Deque", "MutableSequence"}:
                return TypeRef("list", args=args)
            if tail in {"dict", "Dict", "Mapping", "MutableMapping",
                        "defaultdict", "DefaultDict"}:
                return TypeRef("dict", args=args)
            if tail in {"set", "Set", "MutableSet"}:
                return TypeRef("set", args=args)
            return self._eval(node.value, module, depth + 1)
        name = dotted_name(node)
        if name is None:
            return UNKNOWN
        tail = name.rsplit(".", 1)[-1]
        if tail in IMMUTABLE_BUILTINS or name in IMMUTABLE_BUILTINS:
            return TypeRef("builtin", tail)
        if tail in {"Any", "object"}:
            return UNKNOWN
        if tail in {"tuple", "Tuple"}:
            return TypeRef("tuple")
        if tail in {"frozenset", "FrozenSet"}:
            return TypeRef("frozenset")
        if tail in {"list", "List", "deque"}:
            return TypeRef("list")
        if tail in {"dict", "Dict", "defaultdict"}:
            return TypeRef("dict")
        if tail in {"set", "Set"}:
            return TypeRef("set")
        # A module-level alias (e.g. ``CellValue = str | int | None``)?
        resolved = self.project.resolve(module, name)
        if resolved is not None:
            mod, target = resolved
            if isinstance(target, ast.ClassDef):
                return TypeRef("class", f"{mod.name}:{target.name}")
            if isinstance(target, ast.expr):
                return self._eval(target, mod, depth + 1)
        return TypeRef("class", name) if name[:1].isupper() or "." in name \
            else UNKNOWN

    # -- immutability --------------------------------------------------------

    def is_deeply_immutable(self, ref: TypeRef, module: ModuleInfo,
                            depth: int = 0) -> bool:
        """Is every instance of *ref* a deeply immutable value?

        Builtin scalars are; ``tuple``/``frozenset`` are when their
        element types are; a union is when every alternative is; a
        project class is when it is a frozen dataclass whose every field
        annotation is deeply immutable, or an *externally immutable*
        class by convention (no attribute writes and no mutating calls
        on ``self`` outside ``__init__``/``__post_init__`` — e.g.
        ``RowValue``).  Anything unresolved is not.
        """
        if depth > 6:
            return False
        if ref.kind == "builtin":
            return ref.name in IMMUTABLE_BUILTINS or ref.name == "..."
        if ref.kind in {"tuple", "frozenset"}:
            return bool(ref.args) and all(
                self.is_deeply_immutable(a, module, depth + 1)
                for a in ref.args
                if not (a.kind == "builtin" and a.name == "...")
            )
        if ref.kind == "union":
            return bool(ref.args) and all(
                self.is_deeply_immutable(a, module, depth + 1)
                for a in ref.args
            )
        if ref.kind == "class":
            return self._class_immutable(ref.name, module, depth)
        return False

    def _class_immutable(self, name: str, module: ModuleInfo, depth: int) -> bool:
        if ":" in name:
            mod_name, cls_name = name.split(":", 1)
            mod = self.project.module(mod_name)
            found = (
                (mod, mod.classes[cls_name])
                if mod is not None and cls_name in mod.classes
                else None
            )
        else:
            found = self.project.resolve_class(module, name)
        if found is None:
            return False
        mod, cls = found
        key = (mod.name, cls.name)
        cached = self._immutable_cache.get(key)
        if cached is not None:
            return cached
        self._immutable_cache[key] = False  # cycle-safe provisional answer
        result = self._compute_class_immutable(mod, cls, depth)
        self._immutable_cache[key] = result
        return result

    def _compute_class_immutable(
        self, mod: ModuleInfo, cls: ast.ClassDef, depth: int
    ) -> bool:
        if self._is_frozen_dataclass(cls):
            fields = [
                item.annotation
                for item in cls.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            ]
            return all(
                self.is_deeply_immutable(
                    self.of_annotation(annotation, mod), mod, depth + 1
                )
                for annotation in fields
            )
        return self._is_externally_immutable(cls)

    @staticmethod
    def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
        for deco in cls.decorator_list:
            if isinstance(deco, ast.Call) and (
                dotted_name(deco.func) or ""
            ).rsplit(".", 1)[-1] == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        return False

    @staticmethod
    def _is_externally_immutable(cls: ast.ClassDef) -> bool:
        """No method outside __init__/__post_init__ writes ``self``
        attributes or calls mutating methods on them.  This is a
        *convention* check (a method could still leak a mutable
        internal), matching how ``RowValue`` earns value semantics."""
        mutators = {"append", "extend", "add", "update", "insert", "pop",
                    "popleft", "remove", "discard", "clear", "setdefault",
                    "appendleft", "__setitem__"}
        wrote_anywhere = False
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            exempt = item.name in {"__init__", "__post_init__", "__new__"}
            for node in ast.walk(item):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        base = target
                        while isinstance(base, ast.Subscript):
                            base = base.value
                        if (
                            isinstance(base, ast.Attribute)
                            and isinstance(base.value, ast.Name)
                            and base.value.id == "self"
                        ):
                            wrote_anywhere = True
                            if not exempt:
                                return False
                elif (
                    not exempt
                    and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id == "self"
                ):
                    return False
        return wrote_anywhere
