"""ESC001 — aliasing escapes at network send sites.

The network delivers payloads by reference, so a replica that sends
a reference to its own mutable state would share live state with the
receiver.  This pass is the guard against that: for every call site
that hands a payload to ``Network.send``/``Network.broadcast`` it tries
to *prove* the payload deeply immutable from annotations and local
dataflow, and classifies the site:

- ``proven`` — every type the payload can take is deeply immutable
  (builtin scalars, tuples/frozensets of immutables, frozen dataclasses
  whose fields are immutable, or classes that are externally immutable
  by convention like ``RowValue``).
- ``flagged`` — the payload demonstrably aliases mutable replica/table
  state (a ``self``/parameter attribute of mutable container type sent
  without a rebuild); ``ESC001`` fires.
- ``unknown`` — neither proof succeeded.  Not a finding, but reported
  so the proven set's coverage is visible; the test suite requires
  every ``src/repro`` send site to be ``proven``, so an ``unknown``
  site there fails it.

The prover is conservative: *proven* requires an explicit immutable
type for every possible binding of the payload; anything unresolved is
merely ``unknown``, never ``proven``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from crowdlint.dataflow import FunctionSummary, summarize_function
from crowdlint.diagnostics import Diagnostic
from crowdlint.project import (
    UNKNOWN,
    ModuleInfo,
    Project,
    TypeRef,
    dotted_name,
)

RULE = "ESC001"

DOCS = {
    RULE: (
        "Aliasing escape at a network send site: the payload handed to "
        "Network.send/broadcast retains a reference to mutable replica or "
        "table state, so the receiver would share live state with the "
        "sender. Sites whose payload type is proven deeply immutable are "
        "reported alias-free (see --escape-report); the test suite "
        "requires every src/repro send site to be proven."
    ),
}

#: Receivers whose ``send``/``broadcast`` methods are network sinks.
_NETWORK_TOKENS = ("network", "net")
_SEND_METHODS = frozenset({"send", "broadcast"})
#: ``send(source, destination, payload)`` / ``broadcast(source, dests,
#: payload)`` — the payload is the third positional argument.
_PAYLOAD_INDEX = 2


@dataclass(frozen=True)
class SendSite:
    """One network send site and its aliasing classification."""

    path: str
    line: int
    col: int
    function: str
    payload: str
    status: str  # "proven" | "unknown" | "flagged"
    detail: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: [{self.status}] "
            f"{self.function} sends {self.payload} — {self.detail}"
        )


def _is_network_receiver(node: ast.expr) -> bool:
    name = dotted_name(node)
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1]
    return any(token in tail for token in _NETWORK_TOKENS)


class AliasProver:
    """Best-effort payload typing + deep-immutability proof for one
    function body."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        summary: FunctionSummary,
        owner: ast.ClassDef | None,
    ) -> None:
        self.project = project
        self.module = module
        self.summary = summary
        self.owner = owner
        self.types = project.types

    # -- typing ---------------------------------------------------------------

    def possible_types(self, expr: ast.expr, depth: int = 0) -> list[TypeRef]:
        """Every type *expr* may take; UNKNOWN entries mean "no idea"."""
        if depth > 8:
            return [UNKNOWN]
        if isinstance(expr, ast.Constant):
            return [TypeRef("builtin", type(expr.value).__name__
                            if expr.value is not None else "None")]
        if isinstance(expr, ast.Tuple):
            elements = [self._single(e, depth + 1) for e in expr.elts]
            return [TypeRef("tuple", args=tuple(elements))]
        if isinstance(expr, ast.Name):
            return self._name_types(expr.id, depth)
        if isinstance(expr, ast.Attribute):
            return [self._attribute_type(expr, depth)]
        if isinstance(expr, ast.Call):
            return [self._call_type(expr, depth)]
        if isinstance(expr, ast.IfExp):
            return self.possible_types(expr.body, depth + 1) + (
                self.possible_types(expr.orelse, depth + 1)
            )
        if isinstance(expr, (ast.List, ast.ListComp)):
            return [TypeRef("list")]
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return [TypeRef("dict")]
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return [TypeRef("set")]
        return [UNKNOWN]

    def _single(self, expr: ast.expr, depth: int) -> TypeRef:
        types = self.possible_types(expr, depth)
        return types[0] if len(types) == 1 else TypeRef(
            "union", args=tuple(types)
        )

    def _name_types(self, name: str, depth: int) -> list[TypeRef]:
        annotation = self.summary.params.get(name)
        if annotation is not None:
            return [self.types.of_annotation(annotation, self.module)]
        if name in self.summary.loop_bindings:
            out: list[TypeRef] = []
            for iterable in self.summary.loop_bindings[name]:
                out.append(self._element_type(iterable, depth))
            return out or [UNKNOWN]
        if name in self.summary.loop_unpack_bindings:
            out = []
            for iterable, index in self.summary.loop_unpack_bindings[name]:
                element = self._element_type(iterable, depth)
                if element.kind == "tuple" and index < len(element.args):
                    out.append(element.args[index])
                else:
                    out.append(UNKNOWN)
            return out or [UNKNOWN]
        bindings = self.summary.bindings.get(name)
        if bindings:
            out = []
            for bound in bindings:
                out.extend(self.possible_types(bound, depth + 1))
            return out
        # Module-level binding?
        if name in self.module.module_bindings:
            return self.possible_types(
                self.module.module_bindings[name], depth + 1
            )
        resolved = self.project.resolve(self.module, name)
        if resolved is not None and isinstance(resolved[1], ast.expr):
            mod, bound = resolved
            return [
                AliasProver(
                    self.project, mod,
                    FunctionSummary(name="<module>", node=None),  # type: ignore[arg-type]
                    None,
                )._single(bound, depth + 1)
            ]
        return [UNKNOWN]

    def _element_type(self, iterable: ast.expr, depth: int) -> TypeRef:
        container = self._strip_none(self._single(iterable, depth + 1))
        if container.kind in {"list", "tuple", "set", "frozenset", "dict"}:
            if container.args:
                if container.kind == "tuple" and len(container.args) == 2 and (
                    container.args[1].kind == "builtin"
                    and container.args[1].name == "..."
                ):
                    return container.args[0]
                if container.kind == "tuple" and len(set(container.args)) > 1:
                    return TypeRef("union", args=container.args)
                return container.args[0]
        return UNKNOWN

    @staticmethod
    def _strip_none(ref: TypeRef) -> TypeRef:
        if ref.kind != "union":
            return ref
        remaining = tuple(
            a for a in ref.args
            if not (a.kind == "builtin" and a.name == "None")
        )
        if len(remaining) == 1:
            return remaining[0]
        return TypeRef("union", args=remaining)

    def _attribute_type(self, expr: ast.Attribute, depth: int) -> TypeRef:
        base = expr.value
        if isinstance(base, ast.Name) and base.id == "self":
            if self.owner is not None:
                return self._field_type(
                    self.module, self.owner, expr.attr
                )
            return UNKNOWN
        base_types = self.possible_types(base, depth + 1)
        if len(base_types) == 1 and base_types[0].kind == "class":
            found = self._class_of(base_types[0])
            if found is not None:
                return self._field_type(found[0], found[1], expr.attr)
        return UNKNOWN

    def _class_of(
        self, ref: TypeRef
    ) -> tuple[ModuleInfo, ast.ClassDef] | None:
        if ref.kind != "class":
            return None
        if ":" in ref.name:
            mod_name, cls_name = ref.name.split(":", 1)
            mod = self.project.module(mod_name)
            if mod is not None and cls_name in mod.classes:
                return mod, mod.classes[cls_name]
            return None
        return self.project.resolve_class(self.module, ref.name)

    def _field_type(
        self, mod: ModuleInfo, cls: ast.ClassDef, attr: str
    ) -> TypeRef:
        for item in cls.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == attr
            ):
                return self.types.of_annotation(item.annotation, mod)
        init = next(
            (
                item for item in cls.body
                if isinstance(item, ast.FunctionDef)
                and item.name == "__init__"
            ),
            None,
        )
        if init is not None:
            for node in ast.walk(init):
                if (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                    and node.target.attr == attr
                ):
                    return self.types.of_annotation(node.annotation, mod)
        return UNKNOWN

    def _call_type(self, expr: ast.Call, depth: int) -> TypeRef:
        func = expr.func
        if isinstance(func, ast.Name):
            resolved = self.project.resolve(self.module, func.id)
            if resolved is not None:
                mod, target = resolved
                if isinstance(target, ast.ClassDef):
                    return TypeRef("class", f"{mod.name}:{target.name}")
                if isinstance(target, ast.FunctionDef):
                    return self.types.of_annotation(target.returns, mod)
            if func.id == "tuple":
                return TypeRef("tuple")
            if func.id == "frozenset":
                return TypeRef("frozenset")
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == "self"
                and self.owner is not None
            ):
                found = self._method_on_owner(func.attr)
                if found is not None:
                    mod, method = found
                    return self.types.of_annotation(method.returns, mod)
            name = dotted_name(func)
            if name is not None:
                resolved = self.project.resolve(self.module, name)
                if resolved is not None and isinstance(
                    resolved[1], ast.FunctionDef
                ):
                    return self.types.of_annotation(
                        resolved[1].returns, resolved[0]
                    )
        return UNKNOWN

    def _method_on_owner(
        self, name: str
    ) -> tuple[ModuleInfo, ast.FunctionDef] | None:
        current: tuple[ModuleInfo, ast.ClassDef] | None = (
            (self.module, self.owner) if self.owner is not None else None
        )
        for _ in range(4):
            if current is None:
                return None
            mod, cls = current
            method = mod.class_methods(cls.name).get(name)
            if method is not None:
                return mod, method
            base = next(
                (dotted_name(b) for b in cls.bases if dotted_name(b)), None
            )
            current = (
                self.project.resolve_class(mod, base)
                if base is not None else None
            )
        return None

    # -- verdicts -------------------------------------------------------------

    def classify(self, payload: ast.expr) -> tuple[str, str]:
        """``(status, detail)`` of one payload expression."""
        candidates = self.possible_types(payload)
        stripped = [self._strip_none(c) for c in candidates]
        if stripped and all(
            self.types.is_deeply_immutable(c, self.module) for c in stripped
        ):
            return "proven", self._describe(stripped)
        # Demonstrable alias of mutable attribute state?
        flagged_reason = self._mutable_attribute_alias(payload)
        if flagged_reason is not None:
            return "flagged", flagged_reason
        return "unknown", self._describe(stripped)

    def _describe(self, refs: list[TypeRef]) -> str:
        names = sorted({self._type_name(r) for r in refs})
        return "payload type " + " | ".join(names)

    def _type_name(self, ref: TypeRef) -> str:
        if ref.kind == "builtin":
            return ref.name
        if ref.kind == "class":
            return ref.name.split(":")[-1]
        if ref.kind == "union":
            return " | ".join(sorted({self._type_name(a) for a in ref.args}))
        if ref.kind == "unknown":
            return "<unresolved>"
        return ref.kind

    def _mutable_attribute_alias(self, payload: ast.expr) -> str | None:
        """A reason string when *payload* is (or is bound to) a mutable
        container living on ``self``/a parameter object."""
        exprs = [payload]
        if isinstance(payload, ast.Name):
            exprs.extend(self.summary.bindings.get(payload.id, []))
        for expr in exprs:
            if not isinstance(expr, ast.Attribute):
                continue
            types = self.possible_types(expr)
            if any(t.kind in {"list", "dict", "set"} for t in types):
                return (
                    f"sends `{ast.unparse(expr)}`, a mutable container "
                    "attribute — the receiver would alias live replica "
                    "state; send an immutable copy"
                )
        return None


def analyze_escapes(
    project: Project,
) -> tuple[list[Diagnostic], list[SendSite]]:
    """Classify every network send site; ESC001 fires on flagged ones."""
    diagnostics: list[Diagnostic] = []
    sites: list[SendSite] = []
    for module_name in sorted(project.modules):
        module = project.modules[module_name]
        # The network layer itself forwards payloads it received; its
        # internal re-sends are not escape points of replica state.
        if module.name.rsplit(".", 1)[-1] == "network":
            continue
        for func, owner in _functions_of(module):
            summary = summarize_function(func)
            prover = AliasProver(project, module, summary, owner)
            for call in summary.calls:
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in _SEND_METHODS
                    and _is_network_receiver(call.func.value)
                    and len(call.args) > _PAYLOAD_INDEX
                ):
                    continue
                payload = call.args[_PAYLOAD_INDEX]
                status, detail = prover.classify(payload)
                where = (
                    f"{owner.name}.{func.name}"
                    if owner is not None else func.name
                )
                sites.append(
                    SendSite(
                        path=str(module.path),
                        line=call.lineno,
                        col=call.col_offset + 1,
                        function=where,
                        payload=ast.unparse(payload),
                        status=status,
                        detail=detail,
                    )
                )
                if status == "flagged":
                    diagnostics.append(
                        Diagnostic.at(
                            RULE, module.path, call, f"{where} {detail}"
                        )
                    )
    sites.sort(key=lambda s: (s.path, s.line, s.col))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diagnostics, sites


def _functions_of(
    module: ModuleInfo,
) -> list[tuple[ast.FunctionDef, ast.ClassDef | None]]:
    out: list[tuple[ast.FunctionDef, ast.ClassDef | None]] = []
    for func in module.functions.values():
        out.append((func, None))
    for cls in module.classes.values():
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                out.append((item, cls))
    return out
