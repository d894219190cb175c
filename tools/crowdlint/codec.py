"""WIRE001/WIRE002 — wire-codec completeness.

Adding a field to a message dataclass without threading it through the
codecs silently drops data: cross-shard for the :class:`ExchangeBatch`
exchange codec (``encode_exchange``/``decode_exchange``), and across
trace persistence for the ``to_dict``/``message_from_dict`` pair.
These passes make that a CI failure instead:

- ``WIRE001`` — exchange-codec completeness.  In the module defining
  ``encode_exchange``/``decode_exchange``: every ``ExchangeBatch``
  field must be passed explicitly where ``encode_exchange`` constructs
  the batch; every field of each ``Message`` union member must be read
  (``message.<field>``) inside that member's encode branch; the decode
  side must construct each union member and ``ShardCommit`` with every
  field covered.
- ``WIRE002`` — dict-codec completeness.  Each union member's
  ``to_dict`` must emit a key for, and read, every dataclass field,
  and the matching ``message_from_dict`` branch must pass every field
  to the constructor.  The same pass covers the CDC wire module
  (``repro.cdc.events``): ``ChangeEvent``/``Cut``/``SnapshotChunk``
  against their ``*_from_dict`` decoders — a field dropped there
  corrupts ``--cdc-out`` exports and snapshot-chunk bootstraps — and
  the WAL record codec (``repro.durability.wal``): ``WalRecord``
  against ``wal_record_from_dict`` — a field dropped there makes
  crash recovery rebuild a replica that diverges from the one lost.

Both passes key off dataclass *field annotations*, so a field with a
default still counts: a default hides the drop at construction time
but the decoded replica would still differ from the sender's.
"""

from __future__ import annotations

import ast

from crowdlint.diagnostics import Diagnostic
from crowdlint.project import ModuleInfo, Project, calls_to

RULE_EXCHANGE = "WIRE001"
RULE_DICT = "WIRE002"

DOCS = {
    RULE_EXCHANGE: (
        "Exchange-codec completeness: every dataclass field of each "
        "Message union member and of ShardCommit/ExchangeBatch must be "
        "written by encode_exchange and reconstructed by decode_exchange. "
        "A field missed by the codec crosses the shard boundary as its "
        "default and silently drops data."
    ),
    RULE_DICT: (
        "Dict-codec completeness: each Message member's to_dict must emit "
        "and read every dataclass field, and message_from_dict must pass "
        "every field to the constructor — otherwise persisted traces "
        "replay differently than they were recorded."
    ),
}

#: Wire dataclasses of the exchange codec checked field-for-field.
EXCHANGE_CLASSES = ("ExchangeBatch", "ShardCommit")

#: CDC wire dataclasses and their module-level decoder functions.
CDC_CLASSES = (
    ("ChangeEvent", "change_event_from_dict"),
    ("Cut", "cut_from_dict"),
    ("SnapshotChunk", "chunk_from_dict"),
)

#: WAL wire dataclasses and their module-level decoder functions.
WAL_CLASSES = (
    ("WalRecord", "wal_record_from_dict"),
)


def dataclass_fields(cls: ast.ClassDef) -> list[str]:
    """Annotated field names of a dataclass body, in declaration order."""
    return [
        item.target.id
        for item in cls.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and not item.target.id.startswith("_")
    ]


def find_codec_module(project: Project) -> ModuleInfo | None:
    """The module defining both halves of the exchange codec."""
    for name in sorted(project.modules):
        module = project.modules[name]
        if (
            "encode_exchange" in module.functions
            and "decode_exchange" in module.functions
        ):
            return module
    return None


def find_cdc_module(project: Project) -> ModuleInfo | None:
    """The CDC wire module: defines every ``*_from_dict`` decoder."""
    return _find_wire_module(project, CDC_CLASSES)


def find_wal_module(project: Project) -> ModuleInfo | None:
    """The WAL record module: defines ``wal_record_from_dict``."""
    return _find_wire_module(project, WAL_CLASSES)


def _find_wire_module(
    project: Project, classes: tuple[tuple[str, str], ...]
) -> ModuleInfo | None:
    wanted = {decoder for _cls, decoder in classes}
    for name in sorted(project.modules):
        module = project.modules[name]
        if wanted <= set(module.functions):
            return module
    return None


def _covered_fields(call: ast.Call, fields: list[str]) -> set[str]:
    """Fields a constructor call populates: a positional prefix plus
    explicit keywords (a ``**kwargs`` splat conservatively covers all)."""
    covered = set(fields[: len(call.args)])
    for keyword in call.keywords:
        if keyword.arg is None:
            return set(fields)
        covered.add(keyword.arg)
    return covered


def _decoder_gaps(
    rule: str,
    module: ModuleInfo,
    decoder: str,
    class_name: str,
    calls: list[ast.Call],
    fields: list[str],
    fallout: str,
) -> list[Diagnostic]:
    """One finding per field that no constructor call in *calls* (the
    *decoder*'s rebuilds of *class_name*) covers, at the first call."""
    covered: set[str] = set()
    for call in calls:
        covered |= _covered_fields(call, fields)
    return [
        Diagnostic.at(
            rule, module.path, calls[0],
            f"{decoder} reconstructs {class_name} without field "
            f"`{field}`: {fallout}",
        )
        for field in sorted(set(fields) - covered)
    ]


def _to_dict_gaps(
    module: ModuleInfo,
    class_name: str,
    to_dict: ast.FunctionDef,
    fields: list[str],
    dropped_from: str,
) -> list[Diagnostic]:
    """WIRE002 findings for fields *to_dict* emits no key for, or emits
    without reading ``self.<field>``."""
    keys = {
        key.value
        for node in ast.walk(to_dict)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }
    self_reads = {
        node.attr
        for node in ast.walk(to_dict)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    out: list[Diagnostic] = []
    for field in fields:
        if field not in keys:
            message = (
                f"{class_name}.to_dict() emits no `{field}` key: the "
                f"field is dropped from {dropped_from}"
            )
        elif field not in self_reads:
            message = (
                f"{class_name}.to_dict() never reads self.{field}: the "
                f"`{field}` key does not carry the field"
            )
        else:
            continue
        out.append(Diagnostic.at(RULE_DICT, module.path, to_dict, message))
    return out


def isinstance_branches(
    func: ast.FunctionDef,
) -> list[tuple[str, list[str], ast.If]]:
    """``(class_name, [subject attribute reads], node)`` per
    ``isinstance(subject, Cls)`` branch of the if/elif chains in *func*.
    A tuple second argument yields one entry per named class."""
    branches: list[tuple[str, list[str], ast.If]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if not (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
            and len(test.args) == 2
            and isinstance(test.args[0], ast.Name)
        ):
            continue
        subject = test.args[0].id
        names: list[str] = []
        target = test.args[1]
        if isinstance(target, ast.Name):
            names = [target.id]
        elif isinstance(target, ast.Tuple):
            names = [e.id for e in target.elts if isinstance(e, ast.Name)]
        reads = [
            sub.attr
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == subject
        ]
        for name in names:
            branches.append((name, reads, node))
    return branches


def check_codecs(project: Project) -> list[Diagnostic]:
    """Run WIRE001/WIRE002 over *project*."""
    located = project.find_message_union()
    if located is None:
        return []
    messages_module, members = located
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(_check_dict_codec(messages_module, members))
    codec_module = find_codec_module(project)
    if codec_module is not None:
        diagnostics.extend(
            _check_exchange_codec(
                project, codec_module, messages_module, members
            )
        )
    cdc_module = find_cdc_module(project)
    if cdc_module is not None:
        diagnostics.extend(
            _check_wire_codec(cdc_module, CDC_CLASSES, "CDC")
        )
    wal_module = find_wal_module(project)
    if wal_module is not None:
        diagnostics.extend(
            _check_wire_codec(wal_module, WAL_CLASSES, "WAL")
        )
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diagnostics


# -- WIRE001: the exchange codec --------------------------------------------


def _check_exchange_codec(
    project: Project,
    codec: ModuleInfo,
    messages_module: ModuleInfo,
    members: list[str],
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    encode = codec.functions["encode_exchange"]
    decode = codec.functions["decode_exchange"]

    member_fields = {
        name: dataclass_fields(messages_module.classes[name])
        for name in members
        if name in messages_module.classes
    }

    # Encode side: the batch constructor covers every batch field...
    for class_name in EXCHANGE_CLASSES:
        cls = codec.classes.get(class_name)
        if cls is None:
            continue
        fields = dataclass_fields(cls)
        host, role = (
            (encode, "encode_exchange")
            if class_name == "ExchangeBatch"
            else (decode, "decode_exchange")
        )
        calls = calls_to(host, class_name)
        if not calls:
            out.append(
                Diagnostic.at(
                    RULE_EXCHANGE, codec.path, host,
                    f"{role} never constructs {class_name}: the exchange "
                    "codec does not round-trip the wire format",
                )
            )
            continue
        for call in calls:
            missing = sorted(set(fields) - _covered_fields(call, fields))
            for field in missing:
                out.append(
                    Diagnostic.at(
                        RULE_EXCHANGE, codec.path, call,
                        f"{role} builds {class_name} without field "
                        f"`{field}`: the field would cross the wire as its "
                        "default and silently drop data",
                    )
                )

    # ...and each member's encode branch reads every payload field.
    branch_reads: dict[str, list[str]] = {}
    for name, reads, _node in isinstance_branches(encode):
        branch_reads.setdefault(name, []).extend(reads)
    for member, fields in sorted(member_fields.items()):
        reads = branch_reads.get(member)
        if reads is None:
            # Dispatch coverage itself is EXH001's job (shard extension);
            # field completeness only applies to branches that exist.
            continue
        for field in fields:
            if field not in reads:
                out.append(
                    Diagnostic.at(
                        RULE_EXCHANGE, codec.path, encode,
                        f"encode_exchange's {member} branch never reads "
                        f"`.{field}`: the field is dropped from the "
                        "exchange wire format",
                    )
                )

    # Decode side: every member reconstructed with all fields covered.
    for member, fields in sorted(member_fields.items()):
        calls = calls_to(decode, member)
        if not calls:
            out.append(
                Diagnostic.at(
                    RULE_EXCHANGE, codec.path, decode,
                    f"decode_exchange never reconstructs {member}: a "
                    "received batch op of that kind cannot be applied",
                )
            )
            continue
        out.extend(
            _decoder_gaps(
                RULE_EXCHANGE, codec, "decode_exchange", member, calls,
                fields, "receivers fall back to the default and diverge "
                "from the sender",
            )
        )
    return out


# -- WIRE002: the to_dict / message_from_dict codec -------------------------


def _check_dict_codec(
    messages_module: ModuleInfo, members: list[str]
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    from_dict = messages_module.functions.get("message_from_dict")
    for member in members:
        cls = messages_module.classes.get(member)
        if cls is None:
            continue
        fields = dataclass_fields(cls)
        to_dict = messages_module.class_methods(member).get("to_dict")
        if to_dict is not None:
            out.extend(
                _to_dict_gaps(
                    messages_module, member, to_dict, fields,
                    "trace persistence",
                )
            )
        if from_dict is not None:
            calls = calls_to(from_dict, member)
            if not calls:
                # EXH001 reports the missing decode branch by type tag.
                continue
            out.extend(
                _decoder_gaps(
                    RULE_DICT, messages_module, "message_from_dict", member,
                    calls, fields, "replayed traces fall back to the default",
                )
            )
    return out


# -- WIRE002 over auxiliary wire modules (CDC events, WAL records) ----------


def _check_wire_codec(
    module: ModuleInfo,
    classes: tuple[tuple[str, str], ...],
    label: str,
) -> list[Diagnostic]:
    """Field-for-field completeness of an auxiliary dict codec.

    Same contract as the message dict codec, applied to a module's
    ``(class, decoder)`` pairs: each class's ``to_dict`` must emit a
    key for, and read, every dataclass field; the paired ``*_from_dict``
    decoder must pass every field to the constructor.  For the CDC
    triple a field missed here silently corrupts ``--cdc-out``
    round-trips and chunked-snapshot bootstraps; for the WAL record it
    makes a recovered shard diverge from the replica it lost.
    """
    out: list[Diagnostic] = []
    for class_name, decoder_name in classes:
        cls = module.classes.get(class_name)
        if cls is None:
            out.append(
                Diagnostic.at(
                    RULE_DICT, module.path, module.tree,
                    f"{label} wire module defines no {class_name}: the "
                    f"{decoder_name} decoder has nothing to rebuild",
                )
            )
            continue
        fields = dataclass_fields(cls)
        to_dict = module.class_methods(class_name).get("to_dict")
        if to_dict is None:
            out.append(
                Diagnostic.at(
                    RULE_DICT, module.path, cls,
                    f"{class_name} defines no to_dict(): the {label} wire "
                    "format cannot carry it",
                )
            )
        else:
            out.extend(
                _to_dict_gaps(
                    module, class_name, to_dict, fields,
                    f"the {label} wire format",
                )
            )
        decoder = module.functions.get(decoder_name)
        if decoder is None:
            out.append(
                Diagnostic.at(
                    RULE_DICT, module.path, cls,
                    f"{label} wire module defines no {decoder_name}: "
                    f"{class_name} cannot be rebuilt from its dict form",
                )
            )
            continue
        calls = calls_to(decoder, class_name)
        if not calls:
            out.append(
                Diagnostic.at(
                    RULE_DICT, module.path, decoder,
                    f"{decoder_name} never constructs {class_name}: the "
                    f"{label} codec does not round-trip",
                )
            )
            continue
        out.extend(
            _decoder_gaps(
                RULE_DICT, module, decoder_name, class_name, calls, fields,
                "decoded events fall back to the default and diverge from "
                "the producer",
            )
        )
    return out
