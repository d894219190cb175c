"""Sharded multi-backend server with decentralised commit.

This module scales the back-end past the paper's single sequencer: the
candidate table is partitioned by key-group across N full-replica
:class:`ShardServer`s (each a :class:`~repro.server.backend.BackendServer`
subclass) behind a :class:`ShardRouter` that routes every client
operation to the shard *owning* it.  There is no global sequencer and no
coordinator round-trip on the commit path — commitment is decentralised
in the style of Sutra & Shapiro's asynchronous commitment for
optimistic semantic replication:

- The owner shard *commits* an operation by assigning it a
  :class:`ShardCommit` record ``(shard_id, lseq)`` — a slot in its own
  dense local commit sequence — the moment it applies it.  Commit
  decisions are unilateral and never revoked.
- Committed operations propagate to every peer shard via *asymmetric
  batched broadcasts*: at the end of each simulated instant the owner
  flushes one delta-compressed :class:`ExchangeBatch` per peer over the
  normal network (real latency, FIFO); receivers
  apply remote operations but never re-forward them, so each operation
  crosses each link exactly once.
- The *global* commit order is the merge of all shards' local logs by
  ``(timestamp, shard_id, lseq)`` — but no replica ever needs to apply
  that exact order.  Convergence holds for **any** linear extension of
  the per-shard logs, because the operation model is commutative:

  - votes are counters on value-vectors, and a replace reconstructs the
    new row's counts from the histories, so vote/replace interleavings
    commute (paper Lemma 3);
  - replace/replace pairs commute because every
    :class:`~repro.core.table.CandidateTable` tracks *superseded* row
    ids: the deletion half of a replace always executes, and a creation
    arriving after its row was already superseded is skipped instead of
    resurrecting it.  Whichever order a replica applies a lineage's
    replaces in, the same rows survive.

  That commutativity is exactly the "semantic constraint analysis" a
  Sutra/Shapiro commitment protocol performs up front: since no pair of
  committed operations conflicts, every site may commit and apply
  independently, and reconciliation needs no votes and no rollback.

Clients stay shard-oblivious.  The router registers under
:data:`~repro.server.backend.SERVER_NAME` as an in-process pass-through
(the L7 ingress in front of the backend pool; the client→ingress hop is
the network hop, ingress→shard dispatch is intra-datacenter and free),
and every shard broadcasts to its attached clients *as* ``SERVER_NAME``
— so a worker client keeps one FIFO stream per direction, the
count-acknowledged session resync works unchanged against the
client's home shard, and with ``shards=1`` the wire traffic is
byte-identical to a plain :class:`BackendServer` (the equivalence gate
in ``tests/test_shard_convergence.py``).

Shard-partition fault windows (:class:`repro.net.faults.ShardPartitionWindow`)
sever the shard-to-shard links while both sides keep serving their own
clients.  Exchange recovery mirrors the client resync protocol: each
shard indexes its full commit log — the local-origin records of its
trace — plus a per-peer sent high-water mark,
each receiver tracks a per-peer applied prefix count, and at heal time
(:meth:`ShardedBackend.resync_links`) the sender rolls its mark back to
the receiver's acknowledged prefix and re-flushes the missing suffix.
Per-link FIFO delivery makes the received stream a prefix of the sent
stream, so the count alone identifies the loss — the same invariant the
client session resync relies on.

Only the primary shard (shard 0) hosts the Central Client and the
completion tracker; its PRI repairs commit locally and propagate like
any other operation, and since every shard's replica eventually applies
every committed operation, the primary's replica/trace serve as the
authoritative full view (compensation, completion, estimators).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.cdc.events import Cut
from repro.cdc.subscription import Subscription
from repro.cdc.view import CdcView
from repro.constraints.central import CENTRAL_CLIENT_ID, CentralClient
from repro.constraints.template import Template
from repro.core.messages import (
    DownvoteMessage,
    InsertMessage,
    Message,
    ReplaceMessage,
    TraceRecord,
    UndoDownvoteMessage,
    UndoUpvoteMessage,
    UpvoteMessage,
    message_from_dict,
)
from repro.core.replica import Replica
from repro.core.row import CellValue, RowValue
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.durability.wal import (
    DurabilityConfig,
    DurableLog,
    WalCorruptionError,
    WalPosition,
    WalRecord,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.net import FaultPlanError, Network
from repro.server.backend import (
    SERVER_NAME,
    BackendServer,
    BootstrapState,
    ClientSession,
    ResyncResult,
    _CompletionTracker,
    bind_worker_faults,
)
from repro.sim import Simulator


def shard_endpoint(shard_id: int) -> str:
    """The network endpoint name of shard *shard_id*."""
    return f"shard-{shard_id}"


def stable_bucket(token: str) -> int:
    """A process-independent hash bucket for routing decisions.

    ``zlib.crc32`` rather than ``hash()``: routing must not depend on
    ``PYTHONHASHSEED`` or the process, so one seed reproduces one
    placement exactly (the determinism contract crowdlint enforces).
    """
    return zlib.crc32(token.encode("utf-8"))


def route_token(message: Message, key_columns: tuple[str, ...]) -> str:
    """The routing token of one client operation.

    Key-complete operations route by their primary key, so each
    key-group has one owning shard.  Operations whose key is still
    incomplete route by a stable surrogate — the replaced row id for a
    replace, the new row id for an insert, the canonical value-vector
    for votes — which keeps the assignment deterministic without
    requiring lineage history at the router.  Causal safety does not
    depend on the choice: the superseded-id tombstones make replace
    application order-independent, so any deterministic token works;
    the key rule is the *placement* policy the partitioning asks for.
    """
    if isinstance(message, ReplaceMessage):
        key = message.value.key(key_columns)
        if key is not None:
            return f"key:{key!r}"
        return f"row:{message.old_id}"
    if isinstance(message, InsertMessage):
        return f"row:{message.row_id}"
    if isinstance(
        message,
        (UpvoteMessage, DownvoteMessage, UndoUpvoteMessage, UndoDownvoteMessage),
    ):
        key = message.value.key(key_columns)
        if key is not None:
            return f"key:{key!r}"
        items = tuple(sorted(message.value.items()))
        return f"value:{items!r}"
    raise TypeError(f"unroutable message type: {type(message).__name__}")


@dataclass(frozen=True)
class ShardCommit:
    """One decentralised commit decision.

    Attributes:
        shard_id: the owning shard that committed the operation.
        lseq: the slot in that shard's dense local commit sequence
            (0-based, gap-free — the exchange resync protocol counts on
            density).
        worker_id: the originating worker (or the Central Client id).
        timestamp: the owner's simulated apply time; the merge order of
            the global committed trace sorts by
            ``(timestamp, shard_id, lseq)``.
    """

    shard_id: int
    lseq: int
    worker_id: str
    timestamp: float


@dataclass(frozen=True)
class ExchangeBatch:
    """A delta-compressed run of one shard's committed operations.

    The wire format of the asymmetric shard-to-shard broadcast.  The
    batch is *delta* in the protocol sense — it carries exactly the
    suffix of the owner's commit log past the receiver's acknowledged
    prefix, starting at ``first_lseq`` — and *compressed* in the
    encoding sense: the distinct value-vectors and worker ids appearing
    in the run are interned once into the ``values``/``workers``
    dictionaries, and each operation tuple references them by index
    (vote storms repeat the same vector dozens of times; encode-once is
    the same trick PR 6's broadcast path plays on clients).

    Everything is tuples of immutables, so crowdlint's ESC001 proves
    the batch alias-free like any other payload, and decoding builds
    fresh message objects — a receiving shard never aliases the
    sender's (or the wire) state.
    """

    shard_id: int
    first_lseq: int
    values: tuple[tuple[tuple[str, CellValue], ...], ...]
    workers: tuple[str, ...]
    ops: tuple[tuple[CellValue, ...], ...]

    def __len__(self) -> int:
        return len(self.ops)


def encode_exchange(
    shard_id: int,
    first_lseq: int,
    records: list[TraceRecord],
) -> ExchangeBatch:
    """Encode a contiguous commit-log run (the committing shard's own
    trace records, in lseq order) as an :class:`ExchangeBatch`."""
    values: list[tuple[tuple[str, CellValue], ...]] = []
    value_index: dict[tuple[tuple[str, CellValue], ...], int] = {}
    workers: list[str] = []
    worker_index: dict[str, int] = {}
    ops: list[tuple[CellValue, ...]] = []

    def vref(value: RowValue) -> int:
        # The value's own pairs: deeply immutable, so safe to share.
        items = value.items_tuple()
        ref = value_index.get(items)
        if ref is None:
            ref = len(values)
            value_index[items] = ref
            values.append(items)
        return ref

    def wref(worker_id: str) -> int:
        ref = worker_index.get(worker_id)
        if ref is None:
            ref = len(workers)
            worker_index[worker_id] = ref
            workers.append(worker_id)
        return ref

    for record in records:
        message = record.message
        head = (wref(record.worker_id), record.timestamp)
        if isinstance(message, ReplaceMessage):
            ops.append(
                (
                    "replace",
                    *head,
                    message.old_id,
                    message.new_id,
                    vref(message.value),
                    message.column,
                    message.filled_value,
                )
            )
        elif isinstance(message, InsertMessage):
            ops.append(("insert", *head, message.row_id))
        elif isinstance(message, UpvoteMessage):
            ops.append(("upvote", *head, vref(message.value), message.auto))
        elif isinstance(message, DownvoteMessage):
            ops.append(("downvote", *head, vref(message.value)))
        elif isinstance(message, UndoUpvoteMessage):
            ops.append(("undo_upvote", *head, vref(message.value)))
        elif isinstance(message, UndoDownvoteMessage):
            ops.append(("undo_downvote", *head, vref(message.value)))
        else:
            raise TypeError(
                f"unencodable message type: {type(message).__name__}"
            )
    return ExchangeBatch(
        shard_id=shard_id,
        first_lseq=first_lseq,
        values=tuple(values),
        workers=tuple(workers),
        ops=tuple(ops),
    )


def decode_exchange(batch: ExchangeBatch) -> list[tuple[ShardCommit, Message]]:
    """Decode a batch back into ``(commit, message)`` pairs.

    Fresh message objects are built per entry, and one fresh
    :class:`RowValue` per distinct value of the batch, shared by the
    entries naming it (a fill and the auto-upvote riding on it) — the
    receiving shard applies private copies, never the wire objects.
    """
    entries: list[tuple[ShardCommit, Message]] = []
    values = [RowValue.from_sorted_items(items) for items in batch.values]
    workers = batch.workers
    for offset, op in enumerate(batch.ops):
        kind = op[0]
        worker_id = workers[op[1]]
        timestamp = op[2]
        message: Message
        if kind == "replace":
            message = ReplaceMessage(
                old_id=op[3],
                new_id=op[4],
                value=values[op[5]],
                column=op[6],
                filled_value=op[7],
            )
        elif kind == "insert":
            message = InsertMessage(row_id=op[3])
        elif kind == "upvote":
            message = UpvoteMessage(value=values[op[3]], auto=op[4])
        elif kind == "downvote":
            message = DownvoteMessage(value=values[op[3]])
        elif kind == "undo_upvote":
            message = UndoUpvoteMessage(value=values[op[3]])
        elif kind == "undo_downvote":
            message = UndoDownvoteMessage(value=values[op[3]])
        else:
            raise ValueError(f"unknown exchange op kind: {kind!r}")
        commit = ShardCommit(
            shard_id=batch.shard_id,
            lseq=batch.first_lseq + offset,
            worker_id=worker_id,
            timestamp=timestamp,
        )
        entries.append((commit, message))
    return entries


class ShardExchangeError(RuntimeError):
    """A shard observed a gap in a peer's exchange stream.

    Per-link FIFO plus the heal-time resync protocol guarantee the
    received stream is a prefix of the sent stream; a gap means the
    protocol was violated (a bug), not that data was merely delayed.
    """


class ShardServer(BackendServer):
    """One shard: a full-replica backend that owns a slice of the keys.

    Everything a :class:`BackendServer` is — master-copy replica,
    per-client sessions and trace-suffix resync, batched drains — plus
    the decentralised commit/exchange machinery.  The shard registers
    under :func:`shard_endpoint` for shard-to-shard traffic but serves
    its clients as :data:`SERVER_NAME`; only the primary (shard 0)
    hosts the Central Client and completion tracking.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schema: Schema,
        scoring: ScoringFunction,
        template: Template,
        shard_id: int,
        n_shards: int,
        on_complete: Callable[[], None] | None = None,
        oplog_capacity: int = 512,
        max_batch: int = 64,
        obs: object | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        if not 0 <= shard_id < n_shards:
            raise ValueError(f"shard_id {shard_id} out of range 0..{n_shards - 1}")
        self.shard_id = shard_id
        primary = shard_id == 0
        super().__init__(
            sim,
            network,
            schema,
            scoring,
            template,
            on_complete=on_complete if primary else None,
            oplog_capacity=oplog_capacity,
            max_batch=max_batch,
            obs=obs,
            endpoint=shard_endpoint(shard_id),
            broadcast_source=SERVER_NAME,
            hosts_central=primary,
            durability=durability,
        )
        self.peers: tuple[str, ...] = tuple(
            shard_endpoint(j) for j in range(n_shards) if j != shard_id
        )
        #: Every operation this shard committed, in lseq order: the
        #: local-origin records of :attr:`trace` (the same objects).
        self.commit_log: list[TraceRecord] = []
        # Exchange bookkeeping: a per-peer sent mark (the commit log is
        # dense, so the sent count alone locates the replay suffix) and
        # a per-origin-shard applied prefix count.
        self._sent: dict[str, int] = dict.fromkeys(self.peers, 0)
        self._received_from: dict[int, int] = {}
        self._flush_needed = False
        # Plain counters (obs-independent, for tests and reports); the
        # obs counters of the same names read them at export.
        self.exchange_batches_sent = 0
        self.exchange_ops_sent = 0
        self.exchange_batches_received = 0
        self.exchange_dup_ops = 0
        self.exchange_resyncs = 0
        if self.obs.enabled:
            metrics, ns = self.obs.metrics, self._obs_ns
            metrics.read_through(
                f"{ns}.exchange_batches_sent", lambda: self.exchange_batches_sent
            )
            metrics.read_through(
                f"{ns}.exchange_ops_sent", lambda: self.exchange_ops_sent
            )
            metrics.read_through(
                f"{ns}.exchange_batches_received",
                lambda: self.exchange_batches_received,
            )
            metrics.read_through(
                f"{ns}.exchange_resyncs", lambda: self.exchange_resyncs
            )
            if self.durable is not None:
                durable = self.durable
                metrics.read_through(
                    f"{ns}.recoveries", lambda: durable.recoveries
                )
        #: Crash-fault state: a crashed shard has lost every piece of
        #: volatile memory and refuses anything delivered to it until
        #: :meth:`recover` replays the durable log.
        self.crashed = False

    def sent_watermark(self, peer: str) -> int:
        """How much of the commit log has been pushed toward *peer*."""
        return self._sent[peer]

    def received_from(self, shard_id: int) -> int:
        """Applied prefix length of *shard_id*'s commit stream."""
        return self._received_from.get(shard_id, 0)

    # -- message plumbing ---------------------------------------------------

    def on_message(self, source: str, payload: Any) -> None:
        if self.crashed:
            raise self._crashed_error(source)
        if isinstance(payload, ExchangeBatch):
            self._receive_exchange(payload)
            return
        super().on_message(source, payload)

    def ingest(self, source: str, messages) -> None:
        if self.crashed:
            raise self._crashed_error(source)
        super().ingest(source, messages)

    def _crashed_error(self, source: Any) -> RuntimeError:
        # The process is down.  The fault injector severs the shard's
        # links and the router (ShardedBackend.ingest on the bulk path)
        # backlogs client operations, so a delivery here would be lost
        # silently: a wiring fault, not crash-window behavior.
        return RuntimeError(
            f"{self.endpoint!r} is crashed: refusing a delivery from "
            f"{source!r}"
        )

    def _apply_and_trace(self, message: Message, worker_id: Any) -> TraceRecord:
        """Trace one applied message at its *origin* commit coordinate,
        so any consumer's cut is a per-origin-shard prefix vector
        comparable across replicas, and so the WAL logs where each
        operation was committed (recovery rebuilds the applied-prefix
        vector from exactly these coordinates).

        *worker_id* is the author's id for an operation this shard
        commits (at its next lseq), or the :class:`ShardCommit` decoded
        from a peer's exchange batch — traced under its origin worker
        (compensation and echo-exclusion need the real author) at the
        owner's slot, and neither re-committed nor re-exchanged.
        """
        if isinstance(worker_id, ShardCommit):
            commit = worker_id
            return self._trace(
                message, commit.worker_id, commit.shard_id, commit.lseq
            )
        record = self._trace(
            message, worker_id, self.shard_id, len(self.commit_log)
        )
        if self.peers:
            self._flush_needed = True
        return record

    def _log(self, record: TraceRecord, *, replayed: bool = False) -> None:
        super()._log(record, replayed=replayed)
        if record.shard_id == self.shard_id:
            self.commit_log.append(record)

    def _relog(
        self,
        shard_id: int,
        lseq: int,
        worker_id: str,
        timestamp: float,
        message: Message,
        *,
        replayed: bool,
    ) -> None:
        """Trace a logged operation through :meth:`_log`, keeping its
        logged timestamp and origin coordinate."""
        self._log(
            TraceRecord(
                seq=len(self.trace),
                timestamp=timestamp,
                worker_id=worker_id,
                message=message,
                shard_id=shard_id,
                lseq=lseq,
            ),
            replayed=replayed,
        )

    def _broadcast_record(self, record: TraceRecord, exclude: Any) -> None:
        if isinstance(exclude, ShardCommit):
            origin = exclude
            exclude = origin.worker_id
            # Echo-exclusion assumes the origin worker still holds the
            # local apply it made when it performed this operation.
            # That breaks when the worker's copy was since rebased on a
            # snapshot (crash rejoin, or an outage resync the trace
            # could not cover): a commit older than the rebase is in
            # neither the snapshot (this shard is only applying it now)
            # nor the worker's outbox (it was committed, not pending),
            # so this broadcast is the worker's only way to get its own
            # operation back.
            session = self._sessions.get(exclude)
            if session is not None and origin.timestamp < session.epoch_time:
                exclude = None
        super()._broadcast_record(record, exclude)

    def _drain(self) -> None:
        try:
            super()._drain()
        finally:
            if self._flush_needed:
                self._flush_exchange()

    def start(self) -> None:
        super().start()
        # The primary's Central Client seeds the template rows during
        # start(), outside any drain — flush those commits to the peers
        # right away.
        if self._flush_needed:
            self._flush_exchange()

    # -- exchange -----------------------------------------------------------

    def _receive_exchange(self, batch: ExchangeBatch) -> None:
        self.exchange_batches_received += 1
        received = self._received_from.get(batch.shard_id, 0)
        if batch.first_lseq > received:
            raise ShardExchangeError(
                f"{self.endpoint}: gap in exchange stream from shard "
                f"{batch.shard_id}: batch starts at lseq {batch.first_lseq} "
                f"but only {received} ops were applied"
            )
        fresh = 0
        for commit, message in decode_exchange(batch):
            if commit.lseq < received:
                # Overlap from a conservative resync; applying once is
                # exactly-once, so duplicates are skipped by count.
                self.exchange_dup_ops += 1
                continue
            received += 1
            fresh += 1
            self._pending.append((commit, message))
        self._received_from[batch.shard_id] = received
        if self.obs.enabled:
            self.obs.inc(f"{self._obs_ns}.exchange_ops_received", fresh)
        if fresh:
            self._schedule_drain()

    def _flush_exchange(self) -> None:
        """Push the unsent commit-log suffix to every peer (one batch
        per peer per flush — the asymmetric broadcast).  Peers at the
        same sent mark share one encoded batch: it is immutable, and
        each receiver decodes its own fresh objects."""
        self._flush_needed = False
        committed = len(self.commit_log)
        batches: dict[int, ExchangeBatch] = {}
        for peer in self.peers:
            start = self._sent[peer]
            if start < committed:
                batch = batches.get(start)
                if batch is None:
                    batch = batches[start] = encode_exchange(
                        self.shard_id, start, self.commit_log[start:]
                    )
                self._send_batch(peer, batch)

    def _send_to_peer(self, peer: str) -> None:
        start = self._sent[peer]
        self._send_batch(
            peer, encode_exchange(self.shard_id, start, self.commit_log[start:])
        )

    def _send_batch(self, peer: str, batch: ExchangeBatch) -> None:
        self._sent[peer] = batch.first_lseq + len(batch)
        self.exchange_batches_sent += 1
        self.exchange_ops_sent += len(batch)
        self.network.send(self.endpoint, peer, batch)

    def resync_peer(self, peer: str, acknowledged: int) -> int:
        """Roll the sent mark for *peer* back to its acknowledged prefix
        and re-flush the missing suffix (heal-time recovery).

        Mirrors :meth:`BackendServer.reattach_client`: everything past
        the acknowledged prefix is dead (the partition purged the link
        and sends during it were dropped), so the suffix is re-sent as
        fresh batches.  Returns the number of re-offered operations.
        """
        if peer not in self._sent:
            raise ValueError(f"{peer!r} is not a peer of {self.endpoint!r}")
        if acknowledged < 0 or acknowledged > len(self.commit_log):
            raise ValueError(
                f"peer {peer!r} acknowledged {acknowledged} ops but "
                f"{self.endpoint!r} committed only {len(self.commit_log)}"
            )
        self._sent[peer] = acknowledged
        backlog = len(self.commit_log) - acknowledged
        self.exchange_resyncs += 1
        if self.obs.enabled:
            self.obs.event(
                f"{self._obs_ns}.exchange_resync",
                peer=peer,
                acknowledged=acknowledged,
                backlog=backlog,
            )
        if backlog:
            self._send_to_peer(peer)
        return backlog

    # -- follower bootstrap --------------------------------------------------

    def adopt_peer(self, endpoint: str, acknowledged: int = 0) -> None:
        """Splice a post-construction replica into this shard's exchange
        fan-out, with *acknowledged* commits already applied over there
        (a follower bootstrapped from a snapshot cut).  The unsent
        suffix — everything committed past the cut — is flushed to the
        new peer immediately; later commits flow with the normal
        end-of-instant flushes.
        """
        if endpoint == self.endpoint:
            raise ValueError(f"{self.endpoint!r} cannot adopt itself")
        if endpoint in self._sent:
            raise ValueError(
                f"{endpoint!r} is already a peer of {self.endpoint!r}"
            )
        if acknowledged < 0 or acknowledged > len(self.commit_log):
            raise ValueError(
                f"adopted peer {endpoint!r} acknowledged {acknowledged} ops "
                f"but {self.endpoint!r} committed only {len(self.commit_log)}"
            )
        self.peers = self.peers + (endpoint,)
        self._sent[endpoint] = acknowledged
        if self.obs.enabled:
            self.obs.event(
                f"{self._obs_ns}.adopt_peer",
                peer=endpoint,
                acknowledged=acknowledged,
            )
        if len(self.commit_log) > acknowledged:
            self._send_to_peer(endpoint)

    def seed_from_snapshot(self, state: BootstrapState, cut: Cut) -> None:
        """Load a snapshot-equivalent state captured at *cut* into this
        fresh, clientless shard and align its exchange and change-stream
        coordinates with it: exchange batches from origin shard ``k``
        resume at lseq ``cut[k]`` (anything earlier is a dup, skipped by
        count), and the local stream describes the seeded history so its
        own cuts stay comparable.
        """
        if self.commit_log or self.trace or self._clients:
            raise RuntimeError(
                f"{self.endpoint!r} is not a fresh replica; refusing to seed"
            )
        state.restore_into(self.replica)
        for shard_id, count in cut.counts:
            if count:
                self._received_from[shard_id] = count
        self.changes.seed(cut)
        if self.durable is not None:
            # The follower's WAL holds no pre-seed history; persist the
            # seed itself as the recovery baseline, or a later crash
            # could not rebuild the seeded prefix.
            self.durable.save_checkpoint(encode_checkpoint(state, cut, None))

    # -- crash-fault durability ----------------------------------------------

    def crash(self) -> None:
        """Crash-stop: destroy every piece of volatile state, in place.

        Models a process crash on a machine with durable storage: the
        table, the sessions, the trace, the exchange bookkeeping, the
        in-progress batches — everything held in memory — is gone, and
        only :attr:`durable` (the WAL and checkpoint, i.e. the disk)
        survives.  The object identity is kept so the network
        registration stays valid; while crashed the shard refuses any
        delivery (see :meth:`on_message`) until :meth:`recover`.
        """
        if self.durable is None:
            raise RuntimeError(
                f"{self.endpoint!r} has no durable store; a crash would "
                "lose committed state unrecoverably"
            )
        if self.crashed:
            raise RuntimeError(f"{self.endpoint!r} is already crashed")
        self.crashed = True
        self.replica = Replica(self.endpoint, self.schema, self.scoring)
        self.replica.table.set_observability(self.obs, scope=self._obs_ns)
        self.trace = []
        self._clients = []
        self._clients_changed()
        self._sessions = {}
        self._pending.clear()
        self.completed = False
        self.completion_time = None
        self.central = None
        self._completion = None
        self.commit_log = []
        self._sent = dict.fromkeys(self.peers, 0)
        self._received_from = {}
        self._flush_needed = False
        self.changes.amnesia()
        if self.obs.enabled:
            self.obs.inc(f"{self._obs_ns}.crashes")
            self.obs.event(f"{self._obs_ns}.crash")

    def recover(self, origins: Mapping[int, DurableLog] | None = None) -> int:
        """Restart from durable state: checkpoint + WAL-suffix replay.

        Rebuilds the table, the full trace (and with it the local
        commit log), and the per-origin applied-prefix vector;
        reconstructs the Central Client (primary only) from the
        checkpointed constraint state; and re-seeds the change stream
        at the recovered cut.  A
        torn WAL tail — an unterminated final line — is discarded and
        truncated, exactly like an fsync that never completed.  Replay
        is silent: no broadcasts, no trace listeners, no exchange
        flushes, no change-stream notes — everything replayed was
        already visible before the crash, peer operations included.

        Args:
            origins: the WALs of the shards whose operations this log
                holds as positions, by shard id.  Each is read forward
                once (:meth:`~repro.durability.wal.DurableLog.commits`),
                only as far as this log's last position from it, and
                each position is rebuilt from its origin's full record
                with this shard's own apply timestamp.

        Returns the number of WAL records replayed past the checkpoint.
        Rejoining the exchange mesh and the client fan-out is the
        restart choreography's job, not this method's — see
        :meth:`ShardedBackend._on_shard_restart`.

        Raises:
            WalCorruptionError: a WAL line is corrupt, or a position's
                origin record is missing from *origins*.
        """
        if not self.crashed:
            raise RuntimeError(f"{self.endpoint!r} is not crashed")
        assert self.durable is not None
        entries, torn = self.durable.log.replay()
        if torn:
            self.durable.log.truncate_tail(torn)
        # Each origin's commits, decoded lazily in lseq order: a log
        # holds each origin's operations in that order too, so one
        # forward pass per origin resolves every position.
        commits = {
            shard_id: log.commits() for shard_id, log in (origins or {}).items()
        }
        checkpoint = self.durable.load_checkpoint()
        central_doc: dict[str, Any] | None = None
        if checkpoint is not None:
            state, cut, central_doc = decode_checkpoint(checkpoint)
            state.restore_into(self.replica)
        else:
            cut = Cut(position=0, counts=())
        table = self.replica.table
        position = cut.position
        counts: dict[int, int] = {
            sid: count for sid, count in cut.counts if count
        }
        replayed = 0
        for entry in entries:
            shard_id, lseq = entry.shard_id, entry.lseq
            if type(entry) is WalPosition:
                full = self._origin_record(commits, shard_id, lseq)
                worker_id, message = full.worker_id, full.message
            else:
                worker_id, message = entry.worker_id, entry.message
                if shard_id == self.shard_id and lseq != len(self.commit_log):
                    raise WalCorruptionError(
                        f"{self.endpoint}: WAL lseq {lseq} does "
                        f"not extend the recovered commit log (length "
                        f"{len(self.commit_log)})"
                    )
            if not cut.covers(shard_id, lseq):
                # Past the checkpoint: re-apply to the table and
                # advance the prefix vector.  Covered records are
                # already inside the checkpoint state; they are
                # replayed into the trace/commit log only.
                message.apply(table)
                self.replica.messages_processed += 1
                position += 1
                replayed += 1
                counts[shard_id] = max(counts.get(shard_id, 0), lseq + 1)
            self._relog(
                shard_id, lseq, worker_id, entry.timestamp, message,
                replayed=True,
            )
        self._received_from = {
            sid: count
            for sid, count in counts.items()
            if sid != self.shard_id and count
        }
        self.changes.seed(
            Cut(position=position, counts=tuple(sorted(counts.items())))
        )
        if self.hosts_central:
            self._recover_central(central_doc, self.trace)
            central = self.central
            assert central is not None
            self._completion = _CompletionTracker(
                table, lambda: central.template_rows
            )
        self.durable.recoveries += 1
        self.crashed = False
        if self.obs.enabled:
            self.obs.event(
                f"{self._obs_ns}.recover",
                replayed=replayed,
                torn_bytes=torn,
                checkpointed=checkpoint is not None,
            )
        return replayed

    def _origin_record(
        self, commits: dict[int, Iterator[WalRecord]], shard_id: int, lseq: int
    ) -> WalRecord:
        """The full record at ``(shard_id, lseq)`` in its origin's log,
        read forward from where the previous position left off."""
        for record in commits.get(shard_id, ()):
            if record.lseq >= lseq:
                if record.lseq == lseq:
                    return record
                break
        raise WalCorruptionError(
            f"{self.endpoint}: WAL position ({shard_id}, {lseq}) has no "
            "record in its origin's WAL"
        )

    def _recover_central(
        self,
        central_doc: dict[str, Any] | None,
        records: list[TraceRecord],
    ) -> None:
        """Reconstruct the Central Client over the recovered table.

        The constraint state — the possibly-reduced current template
        plus the dropped rows — comes from the checkpoint; without one
        the original template stands in, and the first refresh
        re-derives any reductions deterministically from the replayed
        table.  The CC is *not* initialized (its template-seeding
        inserts are in the replayed history already) and *not*
        refreshed here: fresh CC commits must wait until
        :meth:`recommit_lost` has filled every lost lseq slot — see
        :meth:`complete_recovery`.
        """
        if central_doc is not None:
            current = Template.from_dict(central_doc["template"])
            dropped = Template.from_dict(central_doc["dropped"])
        else:
            current = self.template
            dropped = Template([])
        central = CentralClient(
            self.schema,
            self.scoring,
            current,
            send=self._central_send,
            clock=lambda: self.sim.now,
            obs=self.obs,
            table=self.replica.table,
        )
        central.dropped_rows = list(dropped.rows)
        central._initialized = True
        # Advance the CC's row-id counter past every id it minted
        # before the crash (recovered from the WAL) so recovery never
        # re-issues an identifier.
        floor = 0
        for record in records:
            message = record.message
            for row_id in (
                getattr(message, "row_id", None),
                getattr(message, "new_id", None),
            ):
                if isinstance(row_id, str) and row_id.startswith("CC#"):
                    floor = max(floor, int(row_id.split("#", 1)[1]))
        if floor:
            central.replica.advance_row_counter(floor)
        self.central = central

    def recommit_lost(self, records: list[TraceRecord]) -> int:
        """Re-adopt own commits that survived only in a peer's trace.

        A commit can reach a peer (which applies it and logs its
        position) and then be lost here to a torn WAL tail.  Commit
        decisions are never revoked, so at restart such commits are
        re-adopted into this shard's log at their original slots:
        applied, traced, re-WAL-logged in full, and re-noted on the
        change stream.  No broadcast happens — no clients are attached
        during the restart choreography.

        Args:
            records: this shard's lost commits, as a surviving peer
                traced them.  Each message is rebuilt through its
                ``to_dict`` form, so nothing is aliased with the peer.
                Entries below the recovered commit-log length are
                skipped as duplicates; a gap above it raises
                :class:`ShardExchangeError`.

        Returns the number of re-adopted commits.
        """
        if self.crashed:
            raise RuntimeError(f"{self.endpoint!r} is still crashed")
        adopted = 0
        for record in sorted(records, key=lambda rec: rec.lseq):
            if record.shard_id != self.shard_id:
                raise ValueError(
                    f"record committed by shard {record.shard_id} is not "
                    f"{self.endpoint!r}'s to recommit"
                )
            if record.lseq < len(self.commit_log):
                continue
            if record.lseq != len(self.commit_log):
                raise ShardExchangeError(
                    f"{self.endpoint}: recommit gap: lseq {record.lseq} "
                    f"does not extend the commit log (length "
                    f"{len(self.commit_log)})"
                )
            message = message_from_dict(record.message.to_dict())
            message.apply(self.replica.table)
            self.replica.messages_processed += 1
            self._relog(
                record.shard_id, record.lseq, record.worker_id,
                record.timestamp, message, replayed=False,
            )
            adopted += 1
        return adopted

    def complete_recovery(self) -> None:
        """Resume constraint maintenance after the restart choreography.

        The recovered CC's first ``refresh()`` rebuilds its matching
        rights from a whole-probable-set diff (its fresh consumer token
        reports a full delta) and may emit fresh repairs — which take
        commit slots at the end of the log, so this must run only after
        :meth:`recommit_lost` has filled every lost slot.
        """
        if self.crashed:
            raise RuntimeError(f"{self.endpoint!r} is still crashed")
        if self.central is not None:
            self.central.refresh()
        self._check_completion()
        # Fresh repairs commit outside any drain (like start()'s
        # template seeding); flush them to the peers right away.
        if self._flush_needed:
            self._flush_exchange()


class ShardRouter:
    """The shard-oblivious ingress: routes client ops to owning shards.

    Registered under :data:`SERVER_NAME`, so worker clients address
    "the server" exactly as before.  Routing is an in-process
    pass-through — the client→ingress link is the network hop; ingress→
    shard dispatch models the intra-datacenter fan-out and adds no
    simulated latency and, crucially, no extra network channels (lazy
    channel creation draws per-channel RNG seeds in creation order, so
    an extra hop would perturb the determinism contract and break the
    shards=1 byte-equivalence with the plain server).
    """

    def __init__(
        self, network: Network, schema: Schema, shards: list[ShardServer]
    ) -> None:
        if not shards:
            raise ValueError("router needs at least one shard")
        self.schema = schema
        self.shards = list(shards)
        self._key_columns = schema.key_columns
        # Client operations addressed to a crashed shard, buffered at
        # the ingress and redelivered at restart.  Content-based
        # routing means any client's operation can target any shard —
        # including one whose owner is down while the client's own home
        # shard keeps serving it.
        self._backlog: list[tuple[ShardServer, str, Message]] = []
        network.register(SERVER_NAME, self)

    def shard_for(self, message: Message) -> ShardServer:
        """The shard owning *message* (deterministic, key-group based)."""
        token = route_token(message, self._key_columns)
        return self.shards[stable_bucket(token) % len(self.shards)]

    def on_message(self, source: str, payload: Message) -> None:
        shard = self.shard_for(payload)
        if shard.crashed:
            self._backlog.append((shard, source, payload))
            return
        shard.on_message(source, payload)

    def backlog(self, shard: ShardServer, source: str, payload: Message) -> None:
        """Buffer one operation for redelivery at *shard*'s restart."""
        self._backlog.append((shard, source, payload))

    def take_backlog(self, shard: ShardServer) -> list[tuple[str, Message]]:
        """Drain the operations buffered for *shard* while it was down
        (in arrival order — per-source FIFO is preserved)."""
        taken = [
            (source, payload)
            for target, source, payload in self._backlog
            if target is shard
        ]
        self._backlog = [
            entry for entry in self._backlog if entry[0] is not shard
        ]
        return taken


class ShardedBackend:
    """Facade: N shards + router, duck-typed as one ``BackendServer``.

    Construction wires the full rig: shard servers (primary first, so
    shard 0 hosts the Central Client), the router under
    :data:`SERVER_NAME`, and the exchange mesh.  The facade exposes the
    :class:`BackendServer` surface the rest of the repository consumes
    — ``attach_client``/``reattach_client`` resolve the worker's *home
    shard* (stable assignment by worker id), and the read-side
    (``replica``, ``trace``, ``completed``, ``final_rows`` …) delegates
    to the primary shard, whose replica applies every committed
    operation.

    Args mirror :class:`BackendServer` plus ``shards`` (the shard
    count; ``shards=1`` degenerates to a single primary with no peers
    and byte-identical wire behavior to the plain server).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schema: Schema,
        scoring: ScoringFunction,
        template: Template,
        shards: int = 2,
        on_complete: Callable[[], None] | None = None,
        oplog_capacity: int = 512,
        max_batch: int = 64,
        obs: object | None = None,
        durability: DurabilityConfig | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1: {shards}")
        self.sim = sim
        self.network = network
        self.schema = schema
        self.scoring = scoring
        self.template = template
        self.durability = durability
        # Follower construction reuses the fleet's shard parameters.
        self._shard_options = {
            "oplog_capacity": oplog_capacity,
            "max_batch": max_batch,
            "obs": obs,
            "durability": durability,
        }
        self.followers: list[ShardServer] = []
        self.shards: list[ShardServer] = [
            ShardServer(
                sim,
                network,
                schema,
                scoring,
                template,
                shard_id=k,
                n_shards=shards,
                on_complete=on_complete,
                oplog_capacity=oplog_capacity,
                max_batch=max_batch,
                obs=obs,
                durability=durability,
            )
            for k in range(shards)
        ]
        self.router = ShardRouter(network, schema, self.shards)
        self.primary = self.shards[0]
        self._home: dict[str, ShardServer] = {}
        self._started = False
        # Crash choreography state (populated by bind_faults).
        self._fault_clients: dict[str, Any] = {}
        self._fault_injector: Any = None
        self._crash_homed: dict[str, list[str]] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start every shard (the primary initializes the Central Client)."""
        if self._started:
            raise RuntimeError("sharded backend already started")
        self._started = True
        for shard in self.shards:
            shard.start()

    def home_shard(self, name: str) -> ShardServer:
        """The shard a client attaches to (stable in the worker id).

        A first-time client whose stable choice is crashed fails over
        to the next live shard in ring order — deterministically, the
        way a front-end load balancer routes around a dead backend —
        and the failover home sticks.  Attaching to a crashed replica
        would silently bootstrap from its wiped table.
        """
        shard = self._home.get(name)
        if shard is None:
            index = stable_bucket(f"client:{name}") % len(self.shards)
            shard = self.shards[index]
            if shard.crashed:
                for offset in range(1, len(self.shards)):
                    candidate = self.shards[
                        (index + offset) % len(self.shards)
                    ]
                    if not candidate.crashed:
                        shard = candidate
                        break
                else:
                    raise RuntimeError(
                        f"cannot home client {name!r}: every shard is "
                        "crashed"
                    )
            self._home[name] = shard
        return shard

    def attach_client(self, name: str) -> BootstrapState:
        return self.home_shard(name).attach_client(name)

    def detach_client(self, name: str) -> None:
        self.home_shard(name).detach_client(name)

    def reattach_client(self, name: str, received_count: int) -> ResyncResult:
        return self.home_shard(name).reattach_client(name, received_count)

    def session(self, name: str) -> ClientSession | None:
        return self.home_shard(name).session(name)

    def _reconnect_worker(self, client: Any) -> None:
        """Outage-end reattach, aware of crash windows on the home shard.

        Composing an outage window with a crash window on the client's
        home shard yields two cases on top of the ordinary reattach
        (a client the restart already rejoined never gets here, see
        :func:`~repro.server.backend.bind_worker_faults`):

        - home still crashed: stay disconnected.  The shard has neither
          sessions nor table to attach to; the restart choreography
          rejoins every disconnected homed client whose outage is over.
        - home crashed and restarted while the client was detached: the
          retained session died with the process, so the incremental
          path is gone — rejoin fresh from a bootstrap snapshot, the
          same amnesia-safe path a crash-disconnected client takes.
        """
        name = client.worker_id
        home = self.home_shard(name)
        if home.crashed:
            return
        if home.session(name) is None:
            client.rejoin(self)
        else:
            client.reconnect(self)

    @property
    def clients(self) -> tuple[str, ...]:
        names: list[str] = []
        for shard in self.shards:
            names.extend(shard.clients)
        return tuple(names)

    def add_trace_listener(
        self, listener: Callable[[TraceRecord], None]
    ) -> None:
        """Observe worker trace records in primary-apply order (the
        primary's trace covers every committed operation)."""
        self.primary.add_trace_listener(listener)

    # -- message plumbing ---------------------------------------------------

    def on_message(self, source: str, payload: Message) -> None:
        self.router.on_message(source, payload)

    def ingest(
        self, source: str, messages: Iterator[Message] | list[Message]
    ) -> None:
        """Bulk entry: partition the run by owning shard, then hand each
        shard its slice through the PR 6 bulk path (per-shard order is
        the stream order; cross-shard order is the exchange's job).
        Slices owned by a crashed shard are backlogged at the router
        for redelivery at restart, exactly like routed operations."""
        grouped: dict[int, list[Message]] = {}
        order: list[int] = []
        for message in messages:
            shard = self.router.shard_for(message)
            bucket = grouped.get(shard.shard_id)
            if bucket is None:
                grouped[shard.shard_id] = bucket = []
                order.append(shard.shard_id)
            bucket.append(message)
        for shard_id in order:
            shard = self.shards[shard_id]
            if shard.crashed:
                for message in grouped[shard_id]:
                    self.router.backlog(shard, source, message)
            else:
                shard.ingest(source, grouped[shard_id])

    # -- read side (primary's full view) ------------------------------------

    @property
    def replica(self):
        return self.primary.replica

    @property
    def central(self):
        return self.primary.central

    @property
    def trace(self) -> list[TraceRecord]:
        return self.primary.trace

    @property
    def completed(self) -> bool:
        return self.primary.completed

    @property
    def completion_time(self) -> float | None:
        return self.primary.completion_time

    @property
    def obs(self):
        return self.primary.obs

    def final_rows(self):
        return self.primary.final_rows()

    def worker_trace(self) -> list[TraceRecord]:
        return self.primary.worker_trace()

    def current_template(self) -> Template:
        return self.primary.current_template()

    # -- change-data-capture -------------------------------------------------

    @property
    def changes(self):
        """The primary's change stream — the only stream that carries
        every committed operation (its replica applies them all)."""
        return self.primary.changes

    def subscribe(
        self,
        name: str = "consumer",
        *,
        from_cut: Cut | None = None,
        capacity: int | None = None,
    ) -> Subscription:
        return self.primary.subscribe(name, from_cut=from_cut, capacity=capacity)

    def snapshot_cut(self) -> tuple[BootstrapState, Cut]:
        return self.primary.snapshot_cut()

    def bootstrap_follower(
        self,
        name: str = "follower",
        *,
        capacity: int | None = None,
        chunk_entries: int = 64,
    ) -> "FollowerBootstrap":
        """Begin bootstrapping a fresh replica shard mid-run.

        Returns a :class:`FollowerBootstrap` driver; call its ``step()``
        across simulated instants (collection keeps running — the
        stream is never paused) and ``promote()`` once done to splice
        the converged replica into the exchange mesh as a live
        follower.
        """
        return FollowerBootstrap(
            self, name, capacity=capacity, chunk_entries=chunk_entries
        )

    def _admit_follower(self, state: BootstrapState, cut: Cut) -> ShardServer:
        """The atomic promote instant: construct the follower at *cut*,
        seed it, and splice it into every owner shard's fan-out.  Runs
        within one simulated instant, so the cut is still current when
        the owners mark it acknowledged — the live tail past the cut
        reaches the follower exactly once (anything in flight toward
        the primary is past the cut and flushes from its owner's log)."""
        shard_id = len(self.shards) + len(self.followers)
        follower = ShardServer(
            self.sim,
            self.network,
            self.schema,
            self.scoring,
            self.template,
            shard_id=shard_id,
            n_shards=shard_id + 1,
            **self._shard_options,
        )
        # The follower exchanges with the owner shards only (other
        # followers commit nothing; the constructor's range-based peer
        # list would include them).
        follower.peers = tuple(shard.endpoint for shard in self.shards)
        follower._sent = dict.fromkeys(follower.peers, 0)
        follower.start()
        follower.seed_from_snapshot(state, cut)
        for shard in self.shards:
            shard.adopt_peer(
                follower.endpoint, acknowledged=cut.count_for(shard.shard_id)
            )
        self.followers.append(follower)
        return follower

    # -- decentralised commit ----------------------------------------------

    def committed_trace(self) -> list[tuple[ShardCommit, Message]]:
        """The global committed trace: all shards' local logs merged by
        ``(timestamp, shard_id, lseq)``.

        This is the decentralised counterpart of the single server's
        ``trace`` — a deterministic total order every replica's applied
        sequence is equivalent to (by commutativity), used by the
        convergence suite as the single-backend oracle input.
        """
        merged = [
            (
                ShardCommit(
                    shard_id=record.shard_id,
                    lseq=record.lseq,
                    worker_id=record.worker_id,
                    timestamp=record.timestamp,
                ),
                record.message,
            )
            for shard in self.shards
            for record in shard.commit_log
        ]
        merged.sort(key=lambda entry: (
            entry[0].timestamp, entry[0].shard_id, entry[0].lseq
        ))
        return merged

    def exchange_backlog(self) -> int:
        """Committed ops not yet offered to some peer (0 at quiescence)."""
        backlog = 0
        for shard in self.shards + self.followers:
            for peer in shard.peers:
                backlog += len(shard.commit_log) - shard.sent_watermark(peer)
        return backlog

    def fully_exchanged(self) -> bool:
        """Has every replica — shard or follower — applied every
        shard's full commit log?"""
        for shard in self.shards + self.followers:
            for other in self.shards:
                if other is shard:
                    continue
                if shard.received_from(other.shard_id) != len(other.commit_log):
                    return False
        return True

    # -- fault choreography -------------------------------------------------

    def bind_faults(
        self, injector, clients: dict[str, Any] | None = None
    ) -> None:
        """Wire every fault of *injector*'s plan: the worker outage
        choreography (:func:`~repro.server.backend.bind_worker_faults`),
        then shard-exchange recovery and, when durability is on,
        crash/restart choreography.  Shard endpoints are bound last, so
        their handlers win over the worker ones.

        Shard endpoints only carry exchange traffic (clients talk to
        the in-process router and are broadcast to as ``SERVER_NAME``),
        so both a shard endpoint outage and a
        :class:`~repro.net.faults.ShardPartitionWindow` reduce to the
        same thing: severed exchange links, resynced at heal time.
        Crash windows additionally destroy the shard's volatile state;
        the restart protocol replays checkpoint + WAL and rejoins the
        mesh without ever pausing ingest on the surviving shards.

        Args:
            injector: the :class:`~repro.net.faults.FaultInjector`.
            clients: worker-name → ``WorkerClient`` registry, read
                by the outage handlers and by crash windows: the crash
                cleanly disconnects the crashed shard's homed clients
                (requeueing their in-flight operations) and the restart
                rejoins them.  Kept by reference, so a live registry
                that grows as workers trickle in
                (``CollectionSession.clients``) stays current.

        Raises:
            FaultPlanError: a crash window names an endpoint that is
                not one of this backend's shards.  Only a shard has the
                WAL a restart recovers from; crashing anything else
                would silently lose its state (or, for an unknown
                endpoint, do nothing at all).
        """
        shard_endpoints = {shard.endpoint for shard in self.shards}
        for window in injector.plan.crashes:
            if window.endpoint not in shard_endpoints:
                raise FaultPlanError(
                    f"crash window on {window.endpoint!r}, which is not a "
                    "shard endpoint (" + ", ".join(sorted(shard_endpoints))
                    + "): only a shard can crash and recover from its WAL"
                )
        self._fault_clients = clients if clients is not None else {}
        self._fault_injector = injector
        bind_worker_faults(
            injector,
            self._fault_clients,
            self.detach_client,
            self._reconnect_worker,
        )
        injector.on_link_heal(self.resync_links)
        for shard in self.shards:
            injector.bind(
                shard.endpoint,
                on_reconnect=lambda s=shard: self._resync_endpoint(s),
                on_crash=lambda s=shard: self._on_shard_crash(s),
                on_restart=lambda s=shard: self._on_shard_restart(s),
            )

    def _on_shard_crash(self, shard: ShardServer) -> None:
        """The crash instant: cleanly detach the shard's homed clients,
        then destroy its volatile state.

        Each homed client with a registered object is disconnected the
        way a broken socket would look to it: its unsent in-flight
        operations come back into its outbox (nothing a client did is
        ever lost — only *acknowledged server state* is at stake in a
        crash, and that is what the WAL protects), and in-flight
        broadcasts toward it are purged (the rejoin snapshot supersedes
        them).  Clients without a registered object keep their links —
        we cannot requeue what we cannot reach.
        """
        homed = list(shard.clients)
        self._crash_homed[shard.endpoint] = homed
        # Client operations that reached the ingress but were still in
        # the shard's volatile apply queue die with the process, and
        # the wire protocol has no client ack/retry — so they must be
        # redelivered.  A homed client (rejoining through a snapshot
        # that will not contain them) takes them back into its outbox,
        # where rejoin re-applies and re-sends them; any other client
        # already holds them applied locally, so the router redelivers
        # them at restart with the usual echo exclusion, exactly like
        # operations that arrive while the shard is down.  Remote
        # entries are dropped: exchange resync re-delivers anything
        # the recovered prefix vector does not cover, and the CC
        # re-derives its repairs.
        pending_by_client: dict[str, list] = {}
        for source, payload in shard._pending:
            if not isinstance(source, str) or source == CENTRAL_CLIENT_ID:
                continue
            if source in homed and self._fault_clients.get(source) is not None:
                pending_by_client.setdefault(source, []).append(payload)
            else:
                self.router.backlog(shard, source, payload)
        for name in homed:
            client = self._fault_clients.get(name)
            if client is None:
                continue
            dropped = self.network.drop_in_flight_links(
                [(SERVER_NAME, name), (name, SERVER_NAME)]
            )
            client.requeue_unsent(
                [d.payload for d in dropped if d.source == name]
            )
            # Prepended last so the (older) pending operations precede
            # the (newer) purged in-flight ones in the outbox.
            pending = pending_by_client.get(name)
            if pending:
                client.requeue_unsent(pending)
            client.disconnect()
        shard.crash()

    def _on_shard_restart(self, shard: ShardServer) -> None:
        """The restart instant: recover from durable state and rejoin.

        Order matters:

        1. :meth:`ShardServer.recover` — checkpoint + WAL replay, each
           peer operation resolved against its origin shard's WAL.
        2. :meth:`ShardServer.recommit_lost` — commits that survived
           only in a surviving peer's trace (torn local tail) are
           re-adopted at their original slots.
        3. :meth:`resync_links` — the exchange mesh heals exactly like
           a partition: every sender rolls back to the receiver's
           recovered applied prefix and re-flushes the suffix.
        4. :meth:`ShardServer.complete_recovery` — the CC resumes
           (fresh repairs take slots *after* the recommitted ones).
        5. Homed clients rejoin (fresh attach + bootstrap snapshot) —
           every disconnected homed client except those inside an open
           outage window of their own, which rejoin at outage end
           instead (:meth:`_reconnect_worker`).
        6. The ingress backlog — operations this shard owns that
           arrived while it was down — is redelivered.

        Surviving shards never pause: they kept committing and serving
        their clients throughout the window and only resync here.
        """
        shard.recover({
            origin.shard_id: origin.durable.log
            for origin in self.shards
            if origin is not shard and origin.durable is not None
        })
        survivors = [
            other
            for other in self.shards + self.followers
            if other is not shard and not other.crashed
        ]
        recovered = len(shard.commit_log)
        lost: dict[int, TraceRecord] = {}
        for peer in survivors:
            if peer.received_from(shard.shard_id) <= recovered:
                continue
            for rec in peer.trace:
                if rec.shard_id == shard.shard_id and rec.lseq >= recovered:
                    lost.setdefault(rec.lseq, rec)
        if lost:
            shard.recommit_lost(list(lost.values()))
        links: list[tuple[str, str]] = []
        for peer in survivors:
            if peer.endpoint in shard._sent:
                links.append((shard.endpoint, peer.endpoint))
            if shard.endpoint in peer._sent:
                links.append((peer.endpoint, shard.endpoint))
        self.resync_links(links)
        shard.complete_recovery()
        self._crash_homed.pop(shard.endpoint, None)
        injector = self._fault_injector
        for name in sorted(self._fault_clients):
            if self._home.get(name) is not shard:
                continue
            client = self._fault_clients[name]
            if client.connected:
                continue
            if injector is not None and injector.is_down(name):
                # The client's own outage window is still open: its
                # link drops everything, so a rejoin now would lose
                # the bootstrap snapshot and the outbox resend.  The
                # outage-end path picks it up (_reconnect_worker).
                continue
            client.rejoin(self)
        for source, payload in self.router.take_backlog(shard):
            shard.on_message(source, payload)

    def _resync_endpoint(self, shard: ShardServer) -> None:
        links = [(shard.endpoint, peer) for peer in shard.peers]
        links.extend((peer, shard.endpoint) for peer in shard.peers)
        self.resync_links(links)

    def resync_links(self, links: list[tuple[str, str]]) -> None:
        """Heal-time exchange recovery for the given directed links.

        For each healed shard-to-shard link, the sender rolls its sent
        mark back to the receiver's applied prefix and re-flushes the
        suffix.  Links that do not join two shards of this backend are
        ignored (the injector reports every healed link).
        """
        by_endpoint = {
            shard.endpoint: shard for shard in self.shards + self.followers
        }
        for source, destination in sorted(set(links)):
            sender = by_endpoint.get(source)
            receiver = by_endpoint.get(destination)
            if sender is None or receiver is None:
                continue
            if sender.crashed or receiver.crashed:
                # A partition or outage can heal while one end is
                # inside a crash window: its commit log is gone, so
                # prefix arithmetic is meaningless.  The restart
                # choreography resyncs every link of the recovered
                # shard after WAL replay.
                continue
            sender.resync_peer(
                destination, receiver.received_from(sender.shard_id)
            )


class FollowerBootstrap:
    """Mid-run bootstrap of a fresh replica shard — ingest never pauses.

    The driver subscribes a :class:`~repro.cdc.view.CdcView` to the
    primary's change stream and reads DBLog-style snapshot chunks, one
    per :meth:`step`, at whatever simulated cadence the caller chooses;
    operations keep committing between steps and stay pending on the
    subscription.  :meth:`promote` is the atomic hand-over: the
    pending tail is certified-merged, the converged view materializes
    as a :class:`~repro.server.backend.BootstrapState` at a known
    :class:`~repro.cdc.events.Cut`, and a new :class:`ShardServer` is
    constructed from that pair and spliced into every owner shard's
    exchange fan-out — commits past the cut reach it exactly once,
    through the same dup-skip-by-count protocol heal-time resync uses.

    A bounded subscription that overflows mid-bootstrap degrades to the
    snapshot fallback (one atomic state capture) and still promotes
    correctly — the cut moves forward, nothing is lost.
    """

    def __init__(
        self,
        backend: ShardedBackend,
        name: str = "follower",
        *,
        capacity: int | None = None,
        chunk_entries: int = 64,
    ) -> None:
        self.backend = backend
        self.name = name
        self.chunk_entries = chunk_entries
        self.subscription = backend.subscribe(
            f"bootstrap:{name}", capacity=capacity
        )
        self.view = CdcView(self.subscription, label=name)
        self.promoted: ShardServer | None = None

    @property
    def live(self) -> bool:
        """Has the chunked bootstrap converged (promote is cheap)?"""
        return self.view.live

    def step(self) -> bool:
        """Read one snapshot chunk; ``True`` while more remain."""
        if self.promoted is not None:
            raise RuntimeError(f"follower {self.name!r} already promoted")
        return self.view.step(self.chunk_entries)

    def promote(self) -> ShardServer:
        """Finish the bootstrap and splice the follower into the mesh.

        Remaining chunks (if the caller promotes early) are read now,
        within one simulated instant; the returned replica is live —
        byte-equivalent to the quiesced primary once the in-flight
        exchange tail drains.
        """
        if self.promoted is not None:
            raise RuntimeError(f"follower {self.name!r} already promoted")
        view = self.view
        while not view.live:
            view.step(self.chunk_entries)
        view.refresh()
        follower = self.backend._admit_follower(view.state(), view.cut)
        self.subscription.close()
        self.promoted = follower
        return follower
