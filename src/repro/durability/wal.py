"""Shard write-ahead log and cut-addressed checkpoints.

Every network fault the suite injects (:mod:`repro.net.faults`) leaves
the victim's volatile state intact: a disconnected endpoint resyncs by
count-acknowledged replay.  A *crash* is different — the process comes
back with amnesia — so surviving one needs state that outlives the
process:

- a **write-ahead log** (:class:`DurableLog`): the owning server
  appends one record per applied operation *before* the operation
  becomes visible (before broadcast, before exchange flush).  An
  operation is durable once the shard that committed it holds it
  (Sutra and Shapiro's decentralised commit), so each operation is
  logged in full exactly once, at its origin: a shard writes a
  full :class:`WalRecord` — origin commit coordinate
  ``(shard_id, lseq)``, originating worker, apply timestamp, and the
  message itself — for the operations it commits, and a
  :class:`WalPosition` — the origin coordinate and the local apply
  timestamp, a few bytes — for each peer operation it applies.  The
  log is never truncated and still lists the full apply sequence, so
  a recovering shard rebuilds its commit log, its per-peer applied
  prefix vector, and its entire trace from its own log plus its
  origins' full records (:meth:`DurableLog.commits`);
- a **checkpoint** (:func:`encode_checkpoint`): a
  ``BootstrapState``-shaped copy of the table captured at a CDC
  :class:`~repro.cdc.events.Cut`, taken at drain boundaries on a
  geometric cadence (:attr:`DurableStore.checkpoint_due`).  Recovery
  restores the latest checkpoint and re-applies only the WAL suffix
  the cut does not cover — the same snapshot-plus-tail contract the
  DBLog-style subscription bootstrap uses, addressed by the same cuts.

Record framing is line-oriented with a strict tail rule: a full record
is one canonical JSON object, a position is ``shard_id lseq
timestamp`` in ASCII; every newline-terminated line must decode (an
undecodable terminated line is mid-log corruption,
:class:`WalCorruptionError`); trailing bytes with no terminator are a
*torn tail* — a record the crash interrupted mid-write, never
acknowledged, silently discarded by :meth:`DurableLog.replay`.
Decoding builds fresh message objects via
:func:`~repro.core.messages.message_from_dict`, so a recovered replica
never aliases the bytes (or objects) it logged: no replica shares
state with the log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Union

from repro.cdc.events import Cut, cut_from_dict
from repro.core.messages import Message, message_from_dict

CHECKPOINT_VERSION = 1


class WalCorruptionError(RuntimeError):
    """A newline-terminated WAL record failed to decode.

    Torn *tails* (an unterminated trailing fragment) are expected after
    a crash and silently discarded; a corrupt record *inside* the
    terminated prefix means the log itself is damaged and recovery must
    not guess.
    """


@dataclass(frozen=True)
class WalRecord:
    """One durably-logged operation, in full.

    A shard writes a full record only for an operation it commits
    itself (and a plain server for every operation: it is the one
    origin); a peer's operation is logged as a :class:`WalPosition`
    that recovery resolves against this record in the origin's log.

    Attributes:
        shard_id: origin shard of the commit — together with ``lseq``
            the same origin coordinate the change stream tracks, so
            replaying the log re-derives the per-peer applied prefix
            vector.
        lseq: the slot in the origin shard's dense local commit
            sequence.
        worker_id: the originating worker (or the Central Client id).
        timestamp: the simulated apply time; replay preserves it so the
            rebuilt trace is byte-identical to the lost one.
        message: the operation itself.
    """

    shard_id: int
    lseq: int
    worker_id: str
    timestamp: float
    message: Message

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "lseq": self.lseq,
            "worker_id": self.worker_id,
            "timestamp": self.timestamp,
            "message": self.message.to_dict(),
        }


def wal_record_from_dict(data: dict[str, Any]) -> WalRecord:
    """Inverse of :meth:`WalRecord.to_dict`; builds fresh objects."""
    return WalRecord(
        shard_id=int(data["shard_id"]),
        lseq=int(data["lseq"]),
        worker_id=data["worker_id"],
        timestamp=data["timestamp"],
        message=message_from_dict(data["message"]),
    )


class WalPosition(NamedTuple):
    """A peer's operation applied here: where it lives, not what it is.

    The operation itself is durable in its origin's log (as a
    :class:`WalRecord` at ``(shard_id, lseq)``); this shard logs only
    the coordinate and its own apply timestamp, which is all replay
    needs to rebuild its trace entry.
    """

    shard_id: int
    lseq: int
    timestamp: float


#: What one WAL line decodes to.
WalEntry = Union[WalRecord, WalPosition]


#: Canonical JSON, built once: ``json.dumps`` with these arguments
#: constructs a fresh encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode_line(document: dict[str, Any]) -> bytes:
    return _ENCODER.encode(document).encode("utf-8")


def _decode_number(token: bytes) -> float:
    # Timestamps keep their type, as JSON keeps it for full records:
    # repr() writes every float with a '.', an exponent or a letter.
    return int(token) if token.lstrip(b"-").isdigit() else float(token)


def _decode_position(line: bytes) -> WalPosition:
    shard_id, lseq, timestamp = line.split(b" ")
    return WalPosition(int(shard_id), int(lseq), _decode_number(timestamp))


def _decode_line(index: int, line: bytes) -> WalEntry:
    try:
        if line[:1] == b"{":
            return wal_record_from_dict(json.loads(line.decode("utf-8")))
        return _decode_position(line)
    except (ValueError, KeyError, TypeError) as exc:
        raise WalCorruptionError(f"WAL record {index} is corrupt: {exc}") from exc


class DurableLog:
    """An append-only, newline-framed record log that survives a crash.

    The store is a byte buffer rather than a list of records on
    purpose: what survives a real crash is *bytes on disk*, and the
    recovery semantics under test — torn tails, mid-log corruption —
    only exist at the byte level.  :meth:`truncate_tail` is the
    crash-fault hook that tears the last record mid-write.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.records_appended = 0

    @property
    def size_bytes(self) -> int:
        return len(self._buf)

    def append(self, record: WalEntry) -> None:
        """Durably append one record (framing: encoded line + ``\\n``)."""
        if type(record) is WalPosition:
            self._buf += b"%d %d %a\n" % record
        else:
            self._buf += _encode_line(record.to_dict()) + b"\n"
        self.records_appended += 1

    def truncate_tail(self, nbytes: int) -> None:
        """Tear the last *nbytes* off the log — the crash-fault hook
        simulating a record interrupted mid-write.  Every record that
        loses its terminating newline leaves :attr:`records_appended`,
        so the count stays the number of records :meth:`replay`
        returns."""
        if nbytes < 0 or nbytes > len(self._buf):
            raise ValueError(
                f"cannot tear {nbytes} bytes off a {len(self._buf)}-byte log"
            )
        if nbytes:
            cut = len(self._buf) - nbytes
            self.records_appended -= self._buf.count(b"\n", cut)
            del self._buf[cut:]

    def _lines(self) -> tuple[list[bytes], int]:
        """The newline-terminated lines and the torn tail's length."""
        data = bytes(self._buf)
        end = data.rfind(b"\n") + 1
        return data[:end].split(b"\n")[:-1], len(data) - end

    def replay(self) -> tuple[list[WalEntry], int]:
        """Decode the durable records, oldest first.

        Returns ``(records, torn_bytes)``: every newline-terminated
        record — a :class:`WalRecord` or a :class:`WalPosition` — plus
        the length of the discarded unterminated tail (0 on a clean
        log).  A torn tail is *safe* to discard — the append protocol
        logs before acknowledging, so a torn record was never visible
        to anyone.

        Raises:
            WalCorruptionError: a terminated record failed to decode
                (damage inside the log, not a torn write).
        """
        lines, torn = self._lines()
        return [_decode_line(index, line) for index, line in enumerate(lines)], torn

    def commits(self) -> Iterator[WalRecord]:
        """This log's full records — its owner's own commits, in lseq
        order — decoded lazily into fresh objects: what a peer's
        recovery resolves its positions against.  Position lines are
        skipped undecoded and a torn tail is ignored.

        Raises:
            WalCorruptionError: a terminated full record failed to
                decode.
        """
        for index, line in enumerate(self._lines()[0]):
            if line[:1] == b"{":
                yield _decode_line(index, line)  # type: ignore[misc]


@dataclass(frozen=True)
class DurabilityConfig:
    """Durability knobs, threaded from ``CollectionSession(durability=)``.

    Attributes:
        checkpoint_interval: the minimum gap, in WAL records, between
            checkpoints (see :attr:`DurableStore.checkpoint_due`).  A
            checkpoint is taken at the first drain boundary at which
            one is due — drain boundaries are the only instants at which
            the table provably equals the traced prefix (the cut), so
            they are the only sound capture points.
    """

    checkpoint_interval: int = 256

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1: {self.checkpoint_interval}"
            )


class DurableStore:
    """One server's durable state: the WAL plus the latest checkpoint.

    The checkpoint is held as encoded bytes (like the log): recovery
    decodes it from scratch, so a recovered table shares no objects
    with the crashed process's state.
    """

    def __init__(self, config: DurabilityConfig | None = None) -> None:
        self.config = config if config is not None else DurabilityConfig()
        self.log = DurableLog()
        self._checkpoint: bytes | None = None
        self.checkpoints_taken = 0
        #: WAL records appended before the latest checkpoint was saved.
        self.records_covered = 0
        self.recoveries = 0

    def append(self, record: WalEntry) -> None:
        self.log.append(record)

    @property
    def records_since_checkpoint(self) -> int:
        """WAL records past the latest checkpoint."""
        return self.log.records_appended - self.records_covered

    @property
    def checkpoint_due(self) -> bool:
        """The suffix since the last checkpoint reached max(minimum gap,
        records that checkpoint covered): the AOF-rewrite rule at ratio
        1, so N records take O(log N) checkpoints and recovery re-applies
        at most that many records."""
        return self.records_since_checkpoint >= max(
            self.config.checkpoint_interval, self.records_covered
        )

    @property
    def has_checkpoint(self) -> bool:
        return self._checkpoint is not None

    def save_checkpoint(self, document: dict[str, Any]) -> None:
        """Atomically replace the retained checkpoint (a real deployment
        writes to a side file and renames; the JSON round-trip here
        keeps the same no-aliasing property)."""
        self._checkpoint = _encode_line(document)
        self.checkpoints_taken += 1
        self.records_covered = self.log.records_appended

    def load_checkpoint(self) -> dict[str, Any] | None:
        if self._checkpoint is None:
            return None
        return json.loads(self._checkpoint.decode("utf-8"))


def encode_checkpoint(
    state: Any, cut: Cut, central: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Encode a ``(BootstrapState, Cut)`` pair as a JSON-safe checkpoint.

    *state* is duck-typed (``rows`` / ``upvote_history`` /
    ``downvote_history`` / ``superseded``) so this module needs no
    import of the server layer; its lists go in uncopied (JSON writes
    tuples as arrays, and :meth:`DurableStore.save_checkpoint` encodes
    at once).  *central* carries the primary shard's Central Client
    constraint state (current + dropped template rows), in dict form.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "cut": cut.to_dict(),
        "state": {
            "rows": state.rows,
            "upvote_history": state.upvote_history,
            "downvote_history": state.downvote_history,
            "superseded": state.superseded,
        },
        "central": central,
    }


def decode_checkpoint(
    document: dict[str, Any],
) -> tuple[Any, Cut, dict[str, Any] | None]:
    """Inverse of :func:`encode_checkpoint`.

    Returns ``(BootstrapState, Cut, central)`` with every container
    rebuilt fresh from the document (tuples where the state dataclass
    expects tuples).

    Raises:
        WalCorruptionError: unknown checkpoint version or missing keys.
    """
    from repro.server.backend import BootstrapState

    try:
        version = document["version"]
        if version != CHECKPOINT_VERSION:
            raise WalCorruptionError(
                f"unknown checkpoint version: {version!r}"
            )
        state_doc = document["state"]
        state = BootstrapState(
            rows=[
                (row_id, dict(value), int(upvotes), int(downvotes))
                for row_id, value, upvotes, downvotes in state_doc["rows"]
            ],
            upvote_history=[
                (dict(value), int(count))
                for value, count in state_doc["upvote_history"]
            ],
            downvote_history=[
                (dict(value), int(count))
                for value, count in state_doc["downvote_history"]
            ],
            superseded=list(state_doc["superseded"]),
        )
        cut = cut_from_dict(document["cut"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WalCorruptionError(f"checkpoint is corrupt: {exc}") from exc
    return state, cut, document.get("central")
