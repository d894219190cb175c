"""Change-data-capture: the server op log as a first-class stream.

``repro.cdc`` turns the commit path of :class:`~repro.server.backend.
BackendServer` / :class:`~repro.server.shard.ShardServer` into a
subscribable change stream with snapshot-equivalent replay:

- :mod:`repro.cdc.events` — the wire types (:class:`ChangeEvent`,
  :class:`Cut`, :class:`SnapshotChunk`) and their canonical codecs.
- :mod:`repro.cdc.subscription` — the producer (:class:`ChangeStream`)
  and the count-acknowledged consumer handle (:class:`Subscription`), a
  position in the server's trace from which events are built on poll.
- :mod:`repro.cdc.view` — :class:`CdcView`, a derived key-value view
  that bootstraps via DBLog-style chunked snapshot reads interleaved
  with the live stream and converges without pausing ingest.
- :mod:`repro.cdc.leaderboard` — a live analytics consumer over the
  stream (per-worker standings for the report generator).
"""

from repro.cdc.events import (
    CDC_SCHEMA_VERSION,
    NAMESPACES,
    ChangeEvent,
    Cut,
    SnapshotChunk,
    change_event_from_dict,
    chunk_from_dict,
    cut_from_dict,
    value_sort_key,
)
from repro.cdc.leaderboard import (
    LeaderboardSnapshot,
    LeaderboardView,
    WorkerTally,
)
from repro.cdc.subscription import (
    ChangeStream,
    StreamUnavailableError,
    Subscription,
)
from repro.cdc.view import CdcView

__all__ = [
    "CDC_SCHEMA_VERSION",
    "NAMESPACES",
    "ChangeEvent",
    "ChangeStream",
    "CdcView",
    "Cut",
    "LeaderboardSnapshot",
    "LeaderboardView",
    "SnapshotChunk",
    "StreamUnavailableError",
    "Subscription",
    "WorkerTally",
    "change_event_from_dict",
    "chunk_from_dict",
    "cut_from_dict",
    "value_sort_key",
]
