"""The crowdlint 2.0 rule families: commit-path commutativity (COMM),
wire-codec completeness (WIRE), aliasing escapes at send sites (ESC),
observability-guard discipline (OBS), and the shard-layer extension of
the EXH001 exhaustiveness check.

Two acceptance fixtures live here: WIRE001 must catch a deliberately
unencoded ``ExchangeBatch`` field, and the ESC001 send-site report over
the real tree must contain proven-alias-free sites."""

from __future__ import annotations

import textwrap
from pathlib import Path

from crowdlint import (
    ExhaustivenessConfig,
    Project,
    analyze_escapes,
    check_exhaustiveness,
    escape_report,
    lint_file,
)
from crowdlint.codec import check_codecs
from crowdlint.commutativity import check_commutativity

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path, files: dict[str, str]) -> Project:
    paths = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return Project.load(paths)


def lint_snippet(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path)


# -- COMM001/COMM002: commit-path commutativity -------------------------------


def test_comm001_flags_module_state_in_apply(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": """\
            CACHE = {}

            class NoteMessage:
                def apply(self, table):
                    CACHE["last"] = 1

            Message = NoteMessage | NoteMessage
        """,
    })
    diags = check_commutativity(project)
    assert any(d.rule == "COMM001" for d in diags)
    assert any("CACHE" in d.message for d in diags)


def test_comm001_flags_message_self_mutation(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": """\
            class StickyMessage:
                def apply(self, table):
                    self.seen = True

            Message = StickyMessage | StickyMessage
        """,
    })
    diags = check_commutativity(project)
    assert [d.rule for d in diags] == ["COMM001"]
    assert "mutates the message object" in diags[0].message


def test_comm002_flags_randomness_in_apply(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": """\
            import random

            class ShuffleMessage:
                def apply(self, table):
                    random.shuffle(table.rows)

            Message = ShuffleMessage | ShuffleMessage
        """,
    })
    diags = check_commutativity(project)
    assert [d.rule for d in diags] == ["COMM002"]
    assert "randomness" in diags[0].message


def test_comm002_chases_annotated_table_parameter(tmp_path):
    """The closure must follow ``table.apply_*`` through the parameter's
    class annotation into the table method, where the order-dependent
    read lives."""
    project = make_project(tmp_path, {
        "messages.py": """\
            class CandidateTable:
                def apply_note(self):
                    self.count = len(self.trace)

            class NoteMessage:
                def apply(self, table: CandidateTable):
                    table.apply_note()

            Message = NoteMessage | NoteMessage
        """,
    })
    diags = check_commutativity(project)
    assert [d.rule for d in diags] == ["COMM002"]
    assert "len(...trace)" in diags[0].message


def test_comm002_flags_order_counter_read(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": """\
            class CandidateTable:
                def apply_tag(self):
                    return self._seq

            class TagMessage:
                def apply(self, table: CandidateTable):
                    table.apply_tag()

            Message = TagMessage | TagMessage
        """,
    })
    diags = check_commutativity(project)
    assert [d.rule for d in diags] == ["COMM002"]
    assert "order counter self._seq" in diags[0].message


def test_comm_clean_handler_passes(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": """\
            class CandidateTable:
                def apply_good(self, message):
                    self.rows = dict(self.rows)

            class GoodMessage:
                def apply(self, table: CandidateTable):
                    table.apply_good(self)

            Message = GoodMessage | GoodMessage
        """,
    })
    assert check_commutativity(project) == []


def test_comm_no_union_no_findings(tmp_path):
    project = make_project(tmp_path, {"plain.py": "x = 1\n"})
    assert check_commutativity(project) == []


# -- WIRE001/WIRE002: codec completeness --------------------------------------


CLEAN_MESSAGES = """\
    from typing import Union

    class PingMessage:
        token: str

        def apply(self, table):
            table.apply_ping(self.token)

        def to_dict(self):
            return {"type": "ping", "token": self.token}

    Message = Union[PingMessage, PingMessage]

    def message_from_dict(data):
        if data["type"] == "ping":
            return PingMessage(token=data["token"])
        raise ValueError(data["type"])
"""


def codec_source(batch_kwargs: str) -> str:
    return textwrap.dedent(f"""\
        from dataclasses import dataclass
        from messages import PingMessage

        @dataclass(frozen=True)
        class ExchangeBatch:
            shard_id: int
            ops: tuple
            codec_version: int = 1

        @dataclass(frozen=True)
        class ShardCommit:
            shard_id: int
            lseq: int

        def encode_exchange(shard_id, ops):
            encoded = []
            for message in ops:
                if isinstance(message, PingMessage):
                    encoded.append(("ping", message.token))
            return ExchangeBatch({batch_kwargs})

        def decode_exchange(batch):
            commits = []
            for lseq, op in enumerate(batch.ops):
                if op[0] == "ping":
                    commits.append((
                        PingMessage(token=op[1]),
                        ShardCommit(shard_id=batch.shard_id, lseq=lseq),
                    ))
            return commits
    """)


def test_wire001_catches_unencoded_exchange_batch_field(tmp_path):
    """The acceptance fixture: ``codec_version`` has a default, so the
    code runs fine — but the field never crosses the wire, and WIRE001
    must say so."""
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "shardcodec.py": codec_source("shard_id, tuple(encoded)"),
    })
    diags = check_codecs(project)
    assert [d.rule for d in diags] == ["WIRE001"]
    assert "without field `codec_version`" in diags[0].message


def test_wire001_complete_codec_is_clean(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "shardcodec.py": codec_source(
            "shard_id, tuple(encoded), codec_version=1"
        ),
    })
    assert check_codecs(project) == []


def test_wire001_flags_encode_branch_dropping_a_field(tmp_path):
    broken = codec_source("shard_id, tuple(encoded), codec_version=1").replace(
        'encoded.append(("ping", message.token))',
        'encoded.append(("ping",))',
    )
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "shardcodec.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE001" and "never reads `.token`" in d.message
        for d in diags
    )


def test_wire001_flags_decode_dropping_a_field(tmp_path):
    broken = codec_source("shard_id, tuple(encoded), codec_version=1").replace(
        "PingMessage(token=op[1])", "PingMessage()"
    )
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "shardcodec.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE001"
        and "reconstructs PingMessage without field `token`" in d.message
        for d in diags
    )


def test_wire002_flags_incomplete_to_dict_and_from_dict(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": """\
            from typing import Union

            class PingMessage:
                token: str

                def apply(self, table):
                    table.apply_ping(self.token)

                def to_dict(self):
                    return {"type": "ping"}

            Message = Union[PingMessage, PingMessage]

            def message_from_dict(data):
                if data["type"] == "ping":
                    return PingMessage()
                raise ValueError(data["type"])
        """,
    })
    diags = check_codecs(project)
    messages = [d.message for d in diags if d.rule == "WIRE002"]
    assert any("emits no `token` key" in m for m in messages)
    assert any(
        "reconstructs PingMessage without field `token`" in m
        for m in messages
    )


def test_wire002_key_without_read_is_flagged(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": """\
            from typing import Union

            class PingMessage:
                token: str

                def apply(self, table):
                    table.apply_ping(self.token)

                def to_dict(self):
                    return {"type": "ping", "token": "hardcoded"}

            Message = Union[PingMessage, PingMessage]

            def message_from_dict(data):
                if data["type"] == "ping":
                    return PingMessage(token=data["token"])
                raise ValueError(data["type"])
        """,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE002" and "never reads self.token" in d.message
        for d in diags
    )


def test_wire002_real_messages_module_is_clean():
    files = list((REPO_ROOT / "src" / "repro" / "core").glob("*.py"))
    project = Project.load(files)
    assert [d for d in check_codecs(project) if d.rule == "WIRE002"] == []


# -- WIRE002 over the CDC wire module -----------------------------------------


CDC_WIRE = """\
    from dataclasses import dataclass
    from messages import message_from_dict

    @dataclass(frozen=True)
    class Cut:
        position: int
        counts: tuple

        def to_dict(self):
            return {"position": self.position, "counts": list(self.counts)}

    @dataclass(frozen=True)
    class ChangeEvent:
        position: int
        shard_id: int
        message: object

        def to_dict(self):
            return {
                "position": self.position,
                "shard_id": self.shard_id,
                "message": self.message.to_dict(),
            }

    @dataclass(frozen=True)
    class SnapshotChunk:
        namespace: str
        entries: tuple
        low: Cut
        high: Cut

        def to_dict(self):
            return {
                "namespace": self.namespace,
                "entries": list(self.entries),
                "low": self.low.to_dict(),
                "high": self.high.to_dict(),
            }

    def change_event_from_dict(data):
        return ChangeEvent(
            position=data["position"],
            shard_id=data["shard_id"],
            message=message_from_dict(data["message"]),
        )

    def cut_from_dict(data):
        return Cut(position=data["position"], counts=tuple(data["counts"]))

    def chunk_from_dict(data):
        return SnapshotChunk(
            namespace=data["namespace"],
            entries=tuple(data["entries"]),
            low=cut_from_dict(data["low"]),
            high=cut_from_dict(data["high"]),
        )
"""


def test_wire002_clean_cdc_module_passes(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "cdcevents.py": CDC_WIRE,
    })
    assert check_codecs(project) == []


def test_wire002_flags_cdc_to_dict_dropping_a_field(tmp_path):
    broken = CDC_WIRE.replace('"shard_id": self.shard_id,\n', "")
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "cdcevents.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE002"
        and "ChangeEvent.to_dict() emits no `shard_id` key" in d.message
        for d in diags
    )


def test_wire002_flags_cdc_key_without_read(tmp_path):
    broken = CDC_WIRE.replace(
        '"position": self.position, "counts": list(self.counts)',
        '"position": self.position, "counts": []',
    )
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "cdcevents.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE002"
        and "Cut.to_dict() never reads self.counts" in d.message
        for d in diags
    )


def test_wire002_flags_cdc_decoder_dropping_a_field(tmp_path):
    broken = CDC_WIRE.replace('high=cut_from_dict(data["high"]),\n', "")
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "cdcevents.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE002"
        and "chunk_from_dict reconstructs SnapshotChunk without field "
        "`high`" in d.message
        for d in diags
    )


def test_wire002_real_cdc_module_is_clean():
    files = list((REPO_ROOT / "src" / "repro" / "core").glob("*.py"))
    files += list((REPO_ROOT / "src" / "repro" / "cdc").glob("*.py"))
    project = Project.load(files)
    assert [d for d in check_codecs(project) if d.rule == "WIRE002"] == []


# -- WIRE002 over the WAL record codec ----------------------------------------


WAL_WIRE = """\
    from dataclasses import dataclass
    from messages import message_from_dict

    @dataclass(frozen=True)
    class WalRecord:
        shard_id: int
        lseq: int
        worker_id: str
        timestamp: float
        message: object

        def to_dict(self):
            return {
                "shard_id": self.shard_id,
                "lseq": self.lseq,
                "worker_id": self.worker_id,
                "timestamp": self.timestamp,
                "message": self.message.to_dict(),
            }

    def wal_record_from_dict(data):
        return WalRecord(
            shard_id=data["shard_id"],
            lseq=data["lseq"],
            worker_id=data["worker_id"],
            timestamp=data["timestamp"],
            message=message_from_dict(data["message"]),
        )
"""


def test_wire002_clean_wal_module_passes(tmp_path):
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "walcodec.py": WAL_WIRE,
    })
    assert check_codecs(project) == []


def test_wire002_flags_wal_to_dict_dropping_a_field(tmp_path):
    """Acceptance fixture: a deliberately unencoded WalRecord field —
    here the origin ``lseq`` coordinate, whose loss would corrupt the
    recovered prefix vector — must be flagged."""
    broken = WAL_WIRE.replace('"lseq": self.lseq,\n', "")
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "walcodec.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE002"
        and "WalRecord.to_dict() emits no `lseq` key" in d.message
        and "dropped from the WAL wire format" in d.message
        for d in diags
    )


def test_wire002_flags_wal_key_without_read(tmp_path):
    broken = WAL_WIRE.replace(
        '"worker_id": self.worker_id,', '"worker_id": "w",'
    )
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "walcodec.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE002"
        and "WalRecord.to_dict() never reads self.worker_id" in d.message
        for d in diags
    )


def test_wire002_flags_wal_decoder_dropping_a_field(tmp_path):
    broken = WAL_WIRE.replace('timestamp=data["timestamp"],\n', "")
    project = make_project(tmp_path, {
        "messages.py": CLEAN_MESSAGES,
        "walcodec.py": broken,
    })
    diags = check_codecs(project)
    assert any(
        d.rule == "WIRE002"
        and "wal_record_from_dict reconstructs WalRecord without field "
        "`timestamp`" in d.message
        for d in diags
    )


def test_wire002_real_wal_module_is_clean():
    files = list((REPO_ROOT / "src" / "repro" / "core").glob("*.py"))
    files += list((REPO_ROOT / "src" / "repro" / "cdc").glob("*.py"))
    files += list((REPO_ROOT / "src" / "repro" / "durability").glob("*.py"))
    project = Project.load(files)
    assert [d for d in check_codecs(project) if d.rule == "WIRE002"] == []


# -- ESC001: aliasing escapes at send sites -----------------------------------


ESC_FIXTURE = {
    "replica.py": """\
        class Replica:
            def __init__(self, network):
                self.rows: list = []
                self.network = network

            def leak(self):
                self.network.send("me", "peer", self.rows)

            def ok(self, note: str):
                self.network.send("me", "peer", note)

            def mystery(self, payload):
                self.network.send("me", "peer", payload)
    """,
}


def test_esc001_classifies_send_sites(tmp_path):
    project = make_project(tmp_path, ESC_FIXTURE)
    diagnostics, sites = analyze_escapes(project)
    status_by_function = {s.function: s.status for s in sites}
    assert status_by_function == {
        "Replica.leak": "flagged",
        "Replica.ok": "proven",
        "Replica.mystery": "unknown",
    }
    assert [d.rule for d in diagnostics] == ["ESC001"]
    assert "mutable container" in diagnostics[0].message


def test_esc001_network_module_itself_is_exempt(tmp_path):
    project = make_project(tmp_path, {
        "network.py": """\
            class Network:
                def forward(self, source, dest, payload):
                    self.network.send(source, dest, payload)
        """,
    })
    diagnostics, sites = analyze_escapes(project)
    assert diagnostics == [] and sites == []


def test_escape_report_proves_real_send_sites_alias_free():
    """Acceptance: the send-site report over the shipped tree is
    non-empty and every site is *proven* alias-free.  ESC001 is the
    only aliasing guard, so an ``unknown`` site fails here just like a
    flagged one."""
    sites = escape_report([REPO_ROOT / "src" / "repro"])
    assert sites, "no send sites found — the scanner lost the tree"
    unproven = [s for s in sites if s.status != "proven"]
    assert unproven == [], "\n".join(s.format() for s in unproven)
    # The shard exchange path is among the proven sites.
    assert any("shard" in s.path for s in sites)


# -- OBS001: observability-guard discipline -----------------------------------


def test_obs001_flags_unguarded_allocating_call(tmp_path):
    diags = lint_snippet(tmp_path, """\
        def drain(obs, batch):
            obs.inc("drain." + str(len(batch)))
    """)
    assert [d.rule for d in diags] == ["OBS001"]


def test_obs001_plain_arguments_are_exempt(tmp_path):
    assert lint_snippet(tmp_path, """\
        def drain(obs, count):
            obs.inc("drain", count)
    """) == []


def test_obs001_enabled_guard_forms(tmp_path):
    for source in (
        # Enclosing if.
        """\
        def drain(obs, batch):
            if obs.enabled:
                obs.inc("drain." + str(len(batch)))
        """,
        # Early-out.
        """\
        def drain(obs, batch):
            if not obs.enabled:
                return
            obs.inc("drain." + str(len(batch)))
        """,
    ):
        assert lint_snippet(tmp_path, source) == [], source


def test_obs001_pragma_suppression(tmp_path):
    diags = lint_snippet(tmp_path, """\
        def drain(obs, batch):
            obs.inc("n." + str(len(batch)))  # crowdlint: disable=OBS001
    """)
    assert diags == []


# -- EXH001 shard-layer extension ---------------------------------------------


SHARD_MESSAGES = """\
    from typing import Union


    class InsertMessage:
        def apply(self, table):
            table.apply_insert(self)

        def to_dict(self):
            return {"type": "insert"}


    Message = Union[InsertMessage, InsertMessage]


    def message_from_dict(data):
        if data["type"] == "insert":
            return InsertMessage()
        raise ValueError(data["type"])
"""

GOOD_SHARD = """\
    class ExchangeBatch:
        pass


    def encode_exchange(ops) -> ExchangeBatch:
        for op in ops:
            if isinstance(op, InsertMessage):
                pass
        return ExchangeBatch()


    class ShardServer:
        def exchange(self, peer):
            batch = encode_exchange([])
            self.network.send(self.endpoint, peer, batch)

        def on_message(self, source, payload):
            if isinstance(payload, ExchangeBatch):
                return
"""


def make_sharded_stack(tmp_path, shard_src=GOOD_SHARD):
    layout = {
        "core/messages.py": SHARD_MESSAGES,
        "core/table.py": (
            "class CandidateTable:\n"
            "    def apply_insert(self, msg):\n        pass\n"
        ),
        "server/backend.py": (
            "class BackendServer:\n"
            "    def on_message(self, source, payload):\n        pass\n"
        ),
        "client/worker_client.py": (
            "class WorkerClient:\n"
            "    def on_message(self, source, payload):\n        pass\n"
        ),
        "server/shard.py": shard_src,
    }
    for rel, source in layout.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    config = ExhaustivenessConfig.locate(tmp_path)
    assert config is not None and config.shard is not None
    return config


def check_stack(root, config):
    """EXH001 over a project of every file under *root*."""
    return check_exhaustiveness(Project.load(sorted(root.rglob("*.py"))), config)


def test_exh001_sharded_stack_clean(tmp_path):
    assert check_stack(tmp_path, make_sharded_stack(tmp_path)) == []


def test_exh001_flags_undispatched_wire_class(tmp_path):
    broken = GOOD_SHARD.replace(
        "isinstance(payload, ExchangeBatch)", "payload is None"
    )
    diags = check_stack(tmp_path, make_sharded_stack(tmp_path, broken))
    assert any(
        "shard wire class ExchangeBatch is sent to peers" in d.message
        for d in diags
    )


def test_exh001_flags_encoder_missing_union_member(tmp_path):
    broken = GOOD_SHARD.replace("isinstance(op, InsertMessage)", "bool(op)")
    diags = check_stack(tmp_path, make_sharded_stack(tmp_path, broken))
    assert any(
        "encode_exchange has no isinstance branch for Message union "
        "member InsertMessage" in d.message
        for d in diags
    )


def test_exh001_stack_without_shard_skips_shard_checks(tmp_path):
    config = make_sharded_stack(tmp_path)
    (tmp_path / "server" / "shard.py").unlink()
    config = ExhaustivenessConfig.locate(tmp_path)
    assert config is not None and config.shard is None
    assert check_stack(tmp_path, config) == []


# -- EXH001, CDC layer --------------------------------------------------------


GOOD_CDC_EVENTS = """\
    from core.messages import message_from_dict


    class ChangeEvent:
        def to_dict(self):
            return {"position": self.position, "message": self.message.to_dict()}


    def change_event_from_dict(data):
        return ChangeEvent(message=message_from_dict(data["message"]))
"""


def make_cdc_stack(tmp_path, cdc_src=GOOD_CDC_EVENTS):
    make_sharded_stack(tmp_path)
    path = tmp_path / "cdc" / "events.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(cdc_src), encoding="utf-8")
    config = ExhaustivenessConfig.locate(tmp_path)
    assert config is not None and config.cdc is not None
    return config


def test_exh001_cdc_stack_clean(tmp_path):
    assert check_stack(tmp_path, make_cdc_stack(tmp_path)) == []


def test_exh001_flags_cdc_to_dict_not_delegating(tmp_path):
    broken = GOOD_CDC_EVENTS.replace(
        "self.message.to_dict()", '{"type": "insert", "row_id": self.row_id}'
    )
    diags = check_stack(tmp_path, make_cdc_stack(tmp_path, broken))
    assert any(
        "ChangeEvent.to_dict must delegate the payload to "
        "self.message.to_dict()" in d.message
        for d in diags
    )


def test_exh001_flags_cdc_decode_fork(tmp_path):
    broken = GOOD_CDC_EVENTS.replace(
        'message_from_dict(data["message"])', 'dict(data["message"])'
    )
    diags = check_stack(tmp_path, make_cdc_stack(tmp_path, broken))
    assert any(
        "change_event_from_dict must decode the payload via "
        "message_from_dict" in d.message
        for d in diags
    )


def test_exh001_stack_without_cdc_skips_cdc_checks(tmp_path):
    make_cdc_stack(tmp_path)
    (tmp_path / "cdc" / "events.py").unlink()
    config = ExhaustivenessConfig.locate(tmp_path)
    assert config is not None and config.cdc is None
    assert check_stack(tmp_path, config) == []
