"""Wire messages and trace records.

Section 2.4 defines four message types.  Worker clients generate
replace / upvote / downvote (from fill / upvote / downvote actions);
insert messages come only from the system's Central Client.  Processing
a message is identical at the server and at every client, so each
message knows how to apply itself to any :class:`CandidateTable`.

The back-end server keeps a timestamped, worker-annotated
:class:`TraceRecord` per message — the input to the compensation scheme
(section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.core.row import CellValue, RowValue
from repro.core.table import CandidateTable


@dataclass(frozen=True)
class InsertMessage:
    """insert(r): a new empty row with identifier *row_id*."""

    row_id: str

    def apply(self, table: CandidateTable) -> None:
        table.apply_insert(self.row_id)

    def to_dict(self) -> dict[str, Any]:
        return {"type": "insert", "row_id": self.row_id}


@dataclass(frozen=True)
class ReplaceMessage:
    """replace(r, q, v): row *old_id* superseded by *new_id* with value v.

    Attributes:
        old_id: the replaced row's identifier.
        new_id: the fresh, globally-unique identifier.
        value: the new row's full value-vector.
        column: which column the generating fill operation filled
            (metadata for compensation; not used by table application).
        filled_value: the value the fill supplied for *column*.
    """

    old_id: str
    new_id: str
    value: RowValue
    column: str
    filled_value: CellValue

    def apply(self, table: CandidateTable) -> None:
        table.apply_replace(self.old_id, self.new_id, self.value)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "replace",
            "old_id": self.old_id,
            "new_id": self.new_id,
            "value": dict(self.value),
            "column": self.column,
            "filled_value": self.filled_value,
        }


@dataclass(frozen=True)
class UpvoteMessage:
    """upvote(v): one more upvote for value-vector v."""

    value: RowValue
    auto: bool = False
    """True when generated automatically by a row-completing fill
    (section 3.4); auto upvotes are not compensated separately."""

    def apply(self, table: CandidateTable) -> None:
        table.apply_upvote(self.value)

    def to_dict(self) -> dict[str, Any]:
        return {"type": "upvote", "value": dict(self.value), "auto": self.auto}


@dataclass(frozen=True)
class DownvoteMessage:
    """downvote(v): one more downvote for value-vector v and supersets."""

    value: RowValue

    def apply(self, table: CandidateTable) -> None:
        table.apply_downvote(self.value)

    def to_dict(self) -> dict[str, Any]:
        return {"type": "downvote", "value": dict(self.value)}


@dataclass(frozen=True)
class UndoUpvoteMessage:
    """Extension (section 8): retract one upvote for value-vector v."""

    value: RowValue

    def apply(self, table: CandidateTable) -> None:
        table.apply_undo_upvote(self.value)

    def to_dict(self) -> dict[str, Any]:
        return {"type": "undo_upvote", "value": dict(self.value)}


@dataclass(frozen=True)
class UndoDownvoteMessage:
    """Extension (section 8): retract one downvote for value-vector v."""

    value: RowValue

    def apply(self, table: CandidateTable) -> None:
        table.apply_undo_downvote(self.value)

    def to_dict(self) -> dict[str, Any]:
        return {"type": "undo_downvote", "value": dict(self.value)}


Message = Union[
    InsertMessage,
    ReplaceMessage,
    UpvoteMessage,
    DownvoteMessage,
    UndoUpvoteMessage,
    UndoDownvoteMessage,
]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One entry of the back-end server's complete action trace.

    The trace is the server's one in-memory record of every applied
    operation: client resync, change-stream replay, the shard exchange
    and the write-ahead log all read these records rather than keeping
    copies of their own.

    Attributes:
        seq: server-assigned sequence number (unique, increasing).
        timestamp: simulated server receipt time (seconds).
        worker_id: originating worker; Central Client messages carry its
            reserved identifier and are excluded from compensation.
        message: the message itself.
        shard_id: origin commit coordinate, part 1 — the shard that
            committed the operation (0 on a plain server).
        lseq: origin commit coordinate, part 2 — the slot in the origin
            shard's dense commit sequence (defaults to ``seq``, which is
            that slot on a plain server).
    """

    seq: int
    timestamp: float
    worker_id: str
    message: Message
    shard_id: int = 0
    lseq: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.lseq is None:
            object.__setattr__(self, "lseq", self.seq)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "worker_id": self.worker_id,
            "message": self.message.to_dict(),
        }


def message_from_dict(data: dict[str, Any]) -> Message:
    """Inverse of each message's ``to_dict`` (for trace persistence)."""
    kind = data["type"]
    if kind == "insert":
        return InsertMessage(row_id=data["row_id"])
    if kind == "replace":
        return ReplaceMessage(
            old_id=data["old_id"],
            new_id=data["new_id"],
            value=RowValue(data["value"]),
            column=data["column"],
            filled_value=data["filled_value"],
        )
    if kind == "upvote":
        return UpvoteMessage(value=RowValue(data["value"]), auto=data.get("auto", False))
    if kind == "downvote":
        return DownvoteMessage(value=RowValue(data["value"]))
    if kind == "undo_upvote":
        return UndoUpvoteMessage(value=RowValue(data["value"]))
    if kind == "undo_downvote":
        return UndoDownvoteMessage(value=RowValue(data["value"]))
    raise ValueError(f"unknown message type: {kind!r}")
