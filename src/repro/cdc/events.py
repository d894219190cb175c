"""CDC wire types: change events, cuts, and snapshot chunks.

The change-data-capture subsystem describes server state as a stream
of :class:`ChangeEvent`s — one per applied operation, in the emitting
server's apply order — plus :class:`SnapshotChunk`s for consumers that
attach mid-run and need the prefix the stream no longer retains.

Positions and cuts
------------------

Every event carries two coordinates:

- ``position`` — the emitting server's dense apply-order index (its
  *watermark*: ``position`` operations were applied before this one).
  Ack-by-count protocols run on this.
- ``(shard_id, lseq)`` — the *origin* commit coordinate.  On a plain
  :class:`~repro.server.backend.BackendServer` this is ``(0, seq)``;
  on a :class:`~repro.server.shard.ShardServer` a locally committed
  operation carries the shard's own dense commit slot and an exchanged
  operation carries the owner's.  Because shard exchange delivers each
  origin's commit log as a gap-free prefix, a server's applied stream
  always projects to one dense prefix per origin shard — which is what
  makes a :class:`Cut` (a per-origin-shard applied-prefix-count vector)
  a faithful description of *any* consumer position, across servers.

``event ∈ cut`` iff ``event.lseq < cut[event.shard_id]``: cuts are
downward closed in the emitting server's apply order (the server
applies each origin's commits in lseq order), which is the property the
chunked-snapshot merge rule in :mod:`repro.cdc.view` relies on.

All three types serialize to canonical sorted-key JSON dicts carrying
``schema_version`` (the ``--cdc-out`` export format); the codecs are
checked field-for-field by crowdlint WIRE002 and the
:func:`change_event_from_dict` / ``to_dict`` pair must delegate to the
message union codec (EXH001), so a new message type round-trips through
CDC by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.messages import Message, message_from_dict

CDC_SCHEMA_VERSION = 1

#: Snapshot-chunk namespaces, in read order.  ``rows`` chunks carry
#: ``(row_id, value items)`` pairs plus the superseded-id slice of their
#: id window; vote chunks carry ``(value items, count)`` tallies.
NAMESPACES = ("rows", "upvotes", "downvotes")


def value_sort_key(items: tuple[tuple[str, Any], ...]) -> tuple:
    """A process-independent total order over value-vector item tuples.

    Cell values are heterogeneous (``str | int | float | bool | None``),
    so raw tuple comparison can raise ``TypeError``; comparing
    ``(column, type name, repr)`` triples is total, deterministic across
    processes (no ``hash()``), and derivable by producer and consumer
    alike — chunk boundaries for the vote namespaces are expressed in
    this key space.
    """
    return tuple(
        (column, type(value).__name__, repr(value))
        for column, value in items
    )


@dataclass(frozen=True)
class ChangeEvent:
    """One applied operation, as seen on a server's change stream.

    Attributes:
        position: the emitting server's dense apply-order index (its
            watermark before applying this operation).
        shard_id: the origin shard that committed the operation (0 on a
            plain backend).
        lseq: the slot in the origin's dense commit sequence.
        timestamp: the emitting server's simulated apply time.
        worker_id: the originating worker (or the Central Client id).
        message: the applied operation itself.
    """

    position: int
    shard_id: int
    lseq: int
    timestamp: float
    worker_id: str
    message: Message

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": CDC_SCHEMA_VERSION,
            "position": self.position,
            "shard_id": self.shard_id,
            "lseq": self.lseq,
            "timestamp": self.timestamp,
            "worker_id": self.worker_id,
            "message": self.message.to_dict(),
        }


def change_event_from_dict(data: dict[str, Any]) -> ChangeEvent:
    """Rebuild a :class:`ChangeEvent` from its dict form."""
    return ChangeEvent(
        position=data["position"],
        shard_id=data["shard_id"],
        lseq=data["lseq"],
        timestamp=data["timestamp"],
        worker_id=data["worker_id"],
        message=message_from_dict(data["message"]),
    )


@dataclass(frozen=True)
class Cut:
    """A consistent position in a server's change stream.

    Attributes:
        position: total operations applied by the emitting server (the
            stream watermark; equals the sum of ``counts``).
        counts: the per-origin-shard applied-prefix-count vector, as
            sorted ``(shard_id, count)`` pairs.
    """

    position: int
    counts: tuple[tuple[int, int], ...]

    def count_for(self, shard_id: int) -> int:
        """Applied prefix length of *shard_id*'s commit stream."""
        for sid, count in self.counts:
            if sid == shard_id:
                return count
        return 0

    def covers(self, shard_id: int, lseq: int) -> bool:
        """Is the event at ``(shard_id, lseq)`` inside this cut?"""
        return lseq < self.count_for(shard_id)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": CDC_SCHEMA_VERSION,
            "position": self.position,
            "counts": [list(pair) for pair in self.counts],
        }


def cut_from_dict(data: dict[str, Any]) -> Cut:
    """Rebuild a :class:`Cut` from its dict form."""
    return Cut(
        position=data["position"],
        counts=tuple(
            (int(shard_id), int(count))
            for shard_id, count in data["counts"]
        ),
    )


@dataclass(frozen=True)
class SnapshotChunk:
    """One chunk of a DBLog-style interleaved snapshot read.

    A chunk is an atomic read of one key window of one namespace,
    stamped with the stream cut at which it was taken.  ``low`` and
    ``high`` are the DBLog chunk watermarks — the cuts bracketing the
    chunk select.  In this simulator a chunk read is atomic within one
    instant, so ``low == high`` always; both fields are kept because the
    merge rule is stated (and checked) against the general protocol,
    where events landing between the watermarks must be re-applied
    conservatively.

    Attributes:
        namespace: one of :data:`NAMESPACES`.
        entries: ``(row_id, value items)`` pairs for ``rows``;
            ``(value items, count)`` tallies for the vote namespaces
            (zero-count tallies are omitted, matching
            :meth:`~repro.server.backend.BootstrapState.capture`).
        superseded: for ``rows`` chunks, the superseded row ids falling
            in this chunk's id window (empty for vote chunks).
        boundary: the window's inclusive upper key — a row id for
            ``rows``, a :func:`value_sort_key` for votes; ``None`` means
            the namespace is exhausted (the window extends to +∞).
        low: the stream cut when the chunk select opened.
        high: the stream cut when the chunk select closed; an event is
            *folded into* the chunk (already reflected by its entries)
            iff its key falls in the window and ``high`` covers it.
    """

    namespace: str
    entries: tuple[tuple[Any, ...], ...]
    superseded: tuple[str, ...]
    boundary: Any
    low: Cut
    high: Cut

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": CDC_SCHEMA_VERSION,
            "namespace": self.namespace,
            "entries": [
                [_jsonable(part) for part in entry] for entry in self.entries
            ],
            "superseded": list(self.superseded),
            "boundary": _jsonable(self.boundary),
            "low": self.low.to_dict(),
            "high": self.high.to_dict(),
        }


def chunk_from_dict(data: dict[str, Any]) -> SnapshotChunk:
    """Rebuild a :class:`SnapshotChunk` from its dict form."""
    return SnapshotChunk(
        namespace=data["namespace"],
        entries=tuple(
            tuple(_unjsonable(part) for part in entry)
            for entry in data["entries"]
        ),
        superseded=tuple(data["superseded"]),
        boundary=_unjsonable(data["boundary"]),
        low=cut_from_dict(data["low"]),
        high=cut_from_dict(data["high"]),
    )


def _jsonable(part: Any) -> Any:
    """Tuples → lists, recursively (chunk payloads are nested tuples of
    immutables; JSON has only lists)."""
    if isinstance(part, tuple):
        return [_jsonable(item) for item in part]
    return part


def _unjsonable(part: Any) -> Any:
    """Lists → tuples, recursively (the decode half of :func:`_jsonable`)."""
    if isinstance(part, list):
        return tuple(_unjsonable(item) for item in part)
    return part

