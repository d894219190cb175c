"""EXH001 — message-type exhaustiveness across the replicated stack.

Every op/message type registered in ``repro.core.messages`` must be
processable identically everywhere a replica lives (§2.4: "processing a
message is identical at the server and at every client").  Statically,
that decomposes into checks a forgotten registration would break:

1. every member of the ``Message`` union defines ``apply`` and
   ``to_dict``;
2. every ``apply`` dispatches to a ``CandidateTable.apply_*`` method
   that actually exists (the shared apply loop of server *and* client
   replicas);
3. every ``to_dict`` type tag has a decode branch in
   ``message_from_dict`` (trace persistence / replay);
4. every class in the messages module that looks like a message (has
   ``apply`` + ``to_dict``) is registered in the ``Message`` union —
   otherwise the server would broadcast objects clients never agreed
   to handle;
5. both network entry points — ``BackendServer.on_message`` and the
   client replica's ``WorkerClient.on_message`` — exist;
6. (shard layer, when present) every wire dataclass a shard sends to a
   peer — e.g. :class:`ExchangeBatch` — has an ``isinstance`` dispatch
   branch in a shard ``on_message``, and the exchange encoder's
   ``isinstance`` chain covers every ``Message`` union member, so a
   newly registered op kind cannot be silently unroutable or
   unencodable cross-shard;
7. (CDC layer, when present) the change-stream wire codec delegates to
   the union codec rather than forking it: ``ChangeEvent.to_dict`` must
   call ``self.message.to_dict()`` and ``change_event_from_dict`` must
   call ``message_from_dict`` — an inline per-type re-encoding would
   silently miss the next registered message kind, where delegation
   covers it by construction.

The checker is purely syntactic: it reads the modules the
:class:`~crowdlint.project.Project` already parsed, so it runs in CI
without importing the package under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from crowdlint.codec import isinstance_branches
from crowdlint.diagnostics import Diagnostic
from crowdlint.project import ModuleInfo, Project, calls_to, message_union

RULE = "EXH001"


@dataclass(frozen=True)
class ExhaustivenessConfig:
    """Where the replicated-stack files live (parameterized for tests)."""

    messages: Path
    table: Path
    handlers: tuple[tuple[Path, str], ...]
    shard: Path | None = None
    cdc: Path | None = None

    @classmethod
    def locate(cls, root: Path) -> "ExhaustivenessConfig | None":
        """Resolve the standard layout under *root* (the ``repro``
        package directory or a directory containing it); None when the
        tree being linted is not the replicated stack (e.g. tests)."""
        for base in (root, root / "repro", root / "src" / "repro"):
            messages = base / "core" / "messages.py"
            if messages.is_file():
                shard = base / "server" / "shard.py"
                cdc = base / "cdc" / "events.py"
                return cls(
                    messages=messages,
                    table=base / "core" / "table.py",
                    handlers=(
                        (base / "server" / "backend.py", "BackendServer"),
                        (base / "client" / "worker_client.py", "WorkerClient"),
                    ),
                    shard=shard if shard.is_file() else None,
                    cdc=cdc if cdc.is_file() else None,
                )
        return None


def _apply_targets(method: ast.FunctionDef) -> list[str]:
    """``apply_*`` attribute names called on the table argument."""
    targets = []
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("apply_")
        ):
            targets.append(node.func.attr)
    return targets


def _type_tag(method: ast.FunctionDef) -> str | None:
    """The ``"type"`` value in the dict literal ``to_dict`` returns."""
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "type"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    return value.value
    return None


def _decoded_tags(module: ModuleInfo) -> set[str]:
    """String literals compared against inside ``message_from_dict``."""
    decoder = module.functions.get("message_from_dict")
    if decoder is None:
        return set()
    tags: set[str] = set()
    for sub in ast.walk(decoder):
        if isinstance(sub, ast.Compare):
            for comparator in [sub.left, *sub.comparators]:
                if isinstance(comparator, ast.Constant) and isinstance(
                    comparator.value, str
                ):
                    tags.add(comparator.value)
    return tags


def _dispatched_classes(func: ast.FunctionDef) -> set[str]:
    """Class names *func* branches on with ``if isinstance(x, Cls)``."""
    return {name for name, _reads, _node in isinstance_branches(func)}


def check_exhaustiveness(
    project: Project, config: ExhaustivenessConfig
) -> list[Diagnostic]:
    """Run EXH001 over the stack *config* locates in *project*."""
    messages = project.files.get(config.messages)
    if messages is None:
        return [
            Diagnostic.at(
                RULE, config.messages, None,
                "messages module missing or unparsable",
            )
        ]
    union = message_union(messages)
    if not union:
        return [
            Diagnostic.at(
                RULE, config.messages, None,
                "no `Message = Union[...]` registry found",
            )
        ]
    diagnostics: list[Diagnostic] = []

    table = project.files.get(config.table)
    table_methods = (
        set(table.class_methods("CandidateTable")) if table is not None
        else set()
    )
    if not table_methods:
        diagnostics.append(
            Diagnostic.at(
                RULE, config.table, None,
                "CandidateTable not found; cannot verify apply loop",
            )
        )

    decoded = _decoded_tags(messages)

    for name in union:
        cls = messages.classes.get(name)
        if cls is None:
            diagnostics.append(
                Diagnostic.at(
                    RULE, messages.path, None,
                    f"Message union member {name} has no class definition",
                )
            )
            continue
        methods = messages.class_methods(name)
        apply = methods.get("apply")
        if apply is None:
            diagnostics.append(
                Diagnostic.at(
                    RULE, messages.path, cls,
                    f"{name} defines no apply() — replicas cannot process it",
                )
            )
        else:
            targets = _apply_targets(apply)
            if not targets:
                diagnostics.append(
                    Diagnostic.at(
                        RULE, messages.path, apply,
                        f"{name}.apply() never dispatches to a table "
                        "apply_* method",
                    )
                )
            for target in targets:
                if table_methods and target not in table_methods:
                    diagnostics.append(
                        Diagnostic.at(
                            RULE, messages.path, apply,
                            f"{name}.apply() calls CandidateTable.{target}, "
                            "which does not exist — server and client "
                            "replicas would crash on receipt",
                        )
                    )
        to_dict = methods.get("to_dict")
        if to_dict is None:
            diagnostics.append(
                Diagnostic.at(
                    RULE, messages.path, cls,
                    f"{name} defines no to_dict() — trace persistence broken",
                )
            )
            continue
        tag = _type_tag(to_dict)
        if tag is None:
            diagnostics.append(
                Diagnostic.at(
                    RULE, messages.path, to_dict,
                    f"{name}.to_dict() has no literal \"type\" tag",
                )
            )
        elif tag not in decoded:
            diagnostics.append(
                Diagnostic.at(
                    RULE, messages.path, to_dict,
                    f"message_from_dict has no branch for type tag {tag!r} "
                    f"({name}) — trace replay would raise",
                )
            )

    for name, cls in messages.classes.items():
        if name in union:
            continue
        methods = messages.class_methods(name)
        if "apply" in methods and "to_dict" in methods:
            diagnostics.append(
                Diagnostic.at(
                    RULE, messages.path, cls,
                    f"{name} looks like a message (apply + to_dict) but is "
                    "not registered in the Message union",
                )
            )

    for path, class_name in config.handlers:
        handler = project.files.get(path)
        handler_cls = None if handler is None else handler.classes.get(class_name)
        if (
            handler_cls is None
            or "on_message" not in handler.class_methods(class_name)
        ):
            diagnostics.append(
                Diagnostic.at(
                    RULE, path, handler_cls,
                    f"{class_name}.on_message missing — one side of the "
                    "replicated apply loop has no network entry point",
                )
            )

    shard = None if config.shard is None else project.files.get(config.shard)
    if shard is not None:
        diagnostics.extend(_check_shard_layer(shard, union))

    cdc = None if config.cdc is None else project.files.get(config.cdc)
    if cdc is not None:
        diagnostics.extend(_check_cdc_layer(cdc))

    return diagnostics


# ---------------------------------------------------------------------------
# The shard layer (decentralised commit wire format)
# ---------------------------------------------------------------------------


def _shard_wire_classes(module: ModuleInfo) -> dict[str, ast.AST]:
    """Module-local classes sent as shard-to-shard payloads.

    A wire class is one whose instance reaches a ``network.send(...)``
    payload slot (third argument) in this module — either constructed
    inline, or bound to a local name whose value comes from a
    module-level function returning that class (``encode_exchange``).
    """
    classes = module.classes
    wire: dict[str, ast.AST] = {}
    returns_class = {
        name: node.returns.id
        for name, node in module.functions.items()
        if isinstance(node.returns, ast.Name) and node.returns.id in classes
    }

    def payload_class(func: ast.FunctionDef, payload: ast.expr) -> str | None:
        if isinstance(payload, ast.Call) and isinstance(payload.func, ast.Name):
            if payload.func.id in classes:
                return payload.func.id
            return returns_class.get(payload.func.id)
        if isinstance(payload, ast.Name):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == payload.id
                        for t in node.targets
                    )
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                ):
                    callee = node.value.func.id
                    if callee in classes:
                        return callee
                    if callee in returns_class:
                        return returns_class[callee]
        return None

    functions: list[ast.FunctionDef] = []
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append(node)
        elif isinstance(node, ast.ClassDef):
            functions.extend(
                item for item in node.body if isinstance(item, ast.FunctionDef)
            )
    for func in functions:
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
                and len(node.args) >= 3
            ):
                continue
            receiver = node.func.value
            receiver_tail = (
                receiver.attr if isinstance(receiver, ast.Attribute)
                else receiver.id if isinstance(receiver, ast.Name) else ""
            )
            if "network" not in receiver_tail and "net" != receiver_tail:
                continue
            name = payload_class(func, node.args[2])
            if name is not None:
                wire.setdefault(name, node)
    return wire


def _check_shard_layer(shard: ModuleInfo, union: list[str]) -> list[Diagnostic]:
    out: list[Diagnostic] = []

    # 6a. every shard wire class has an on_message isinstance dispatch.
    dispatched: set[str] = set()
    for name in shard.classes:
        handler = shard.class_methods(name).get("on_message")
        if handler is not None:
            dispatched |= _dispatched_classes(handler)
    for name, send_node in sorted(_shard_wire_classes(shard).items()):
        if name not in dispatched:
            out.append(
                Diagnostic.at(
                    RULE, shard.path, send_node,
                    f"shard wire class {name} is sent to peers but no shard "
                    "on_message dispatches it with isinstance — receivers "
                    "would apply it as a client op",
                )
            )

    # 6b. the exchange encoder's isinstance chain covers the union.
    encode = shard.functions.get("encode_exchange")
    if encode is not None:
        encoded = _dispatched_classes(encode)
        for member in union:
            if member not in encoded:
                out.append(
                    Diagnostic.at(
                        RULE, shard.path, encode,
                        f"encode_exchange has no isinstance branch for "
                        f"Message union member {member} — committing one "
                        "would raise at the first shard exchange",
                    )
                )
    return out


# ---------------------------------------------------------------------------
# The CDC layer (change-stream wire format)
# ---------------------------------------------------------------------------


def _calls_attribute(func: ast.FunctionDef, chain: tuple[str, ...]) -> bool:
    """Does *func* call the attribute *chain* rooted at a name?  E.g.
    ``("self", "message", "to_dict")`` matches ``self.message.to_dict()``."""
    head, *attrs = chain
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        expr: ast.expr = node.func
        parts: list[str] = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if (
            isinstance(expr, ast.Name)
            and expr.id == head
            and list(reversed(parts)) == attrs
        ):
            return True
    return False


def _check_cdc_layer(cdc: ModuleInfo) -> list[Diagnostic]:
    """7. the CDC codec delegates to the message union codec.

    ``ChangeEvent`` wraps a ``Message`` payload; if either direction of
    its codec re-encodes the payload inline (a per-type if/elif fork)
    instead of delegating, the next registered message kind round-trips
    through traces but silently breaks ``--cdc-out`` replay.  Checked
    syntactically: the encode half must call ``self.message.to_dict()``,
    the decode half must call ``message_from_dict``.
    """
    out: list[Diagnostic] = []
    event_cls = cdc.classes.get("ChangeEvent")
    if event_cls is None:
        out.append(
            Diagnostic.at(
                RULE, cdc.path, None,
                "CDC module defines no ChangeEvent — the change stream has "
                "no wire type",
            )
        )
    else:
        to_dict = cdc.class_methods("ChangeEvent").get("to_dict")
        if to_dict is None or not _calls_attribute(
            to_dict, ("self", "message", "to_dict")
        ):
            out.append(
                Diagnostic.at(
                    RULE, cdc.path, to_dict or event_cls,
                    "ChangeEvent.to_dict must delegate the payload to "
                    "self.message.to_dict() — an inline re-encoding misses "
                    "the next registered message kind",
                )
            )
    from_dict = cdc.functions.get("change_event_from_dict")
    if from_dict is None:
        out.append(
            Diagnostic.at(
                RULE, cdc.path, None,
                "CDC module defines no change_event_from_dict — exported "
                "change streams cannot be replayed",
            )
        )
    elif not calls_to(from_dict, "message_from_dict"):
        out.append(
            Diagnostic.at(
                RULE, cdc.path, from_dict,
                "change_event_from_dict must decode the payload via "
                "message_from_dict — a forked per-type decode misses the "
                "next registered message kind",
            )
        )
    return out
