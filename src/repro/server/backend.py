"""The back-end server (paper section 3.3).

The back-end server is the "server" of the formal model: it maintains
the master copy of the candidate table and broadcasts each incoming
message to every client except the originator.  Beyond the model it:

- hosts the Central Client (section 4), which is the only source of
  insert messages, colocated for zero-latency PRI repair;
- keeps a complete, timestamped, worker-annotated trace of all
  messages — the input of the compensation scheme (section 5.2);
- detects *completion*: the first instant the master's final table
  satisfies the (possibly reduced) constraint template;
- supplies bootstrap snapshots so clients joining mid-collection start
  from a copy identical to the master;
- keeps a *session* per client so a disconnected client can reattach
  and be resynced — incrementally from the trace's retained suffix (its
  newest ``oplog_capacity`` records) when the gap is still covered, or
  by a fresh bootstrap snapshot when the gap reaches past it (the
  DBLog-style snapshot fallback).  A client's stream is a view of the
  trace, so the session keeps no copy of it.

The resync protocol is acknowledged by *count*: per-link FIFO makes the
stream a client actually received a prefix of the stream the server
sent it (faults only drop messages by breaking the connection, see
:mod:`repro.net.faults`), so the client's received-message count alone
identifies exactly which sent messages were lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Any, Callable, Iterator, Literal

from repro.cdc.events import Cut
from repro.cdc.subscription import ChangeStream, Subscription
from repro.constraints.central import CENTRAL_CLIENT_ID, CentralClient
from repro.constraints.matching import IncrementalMatching
from repro.constraints.template import Template, TemplateRow
from repro.core.messages import Message, TraceRecord
from repro.core.replica import Replica
from repro.core.row import Row, RowValue
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.core.table import BatchApplyError, CandidateTable
from repro.durability.wal import (
    DurabilityConfig,
    DurableStore,
    WalRecord,
    encode_checkpoint,
)
from repro.net import Network
from repro.sim import Simulator

SERVER_NAME = "server"


@dataclass
class BootstrapState:
    """A copy of the master state for a newly attached client."""

    rows: list[tuple[str, dict[str, Any], int, int]]
    upvote_history: list[tuple[dict[str, Any], int]]
    downvote_history: list[tuple[dict[str, Any], int]]
    superseded: list[str] = field(default_factory=list)
    """Row ids the master has seen superseded (sorted).  A client must
    inherit them so that replaying the master's post-snapshot stream
    makes the same resurrect-skip decisions the master made (only
    relevant under sharding, where the master itself applies exchanged
    messages out of causal order)."""

    @classmethod
    def capture(cls, replica: Replica) -> "BootstrapState":
        table = replica.table
        return cls(
            rows=[
                (row.row_id, dict(row.value.mapping), row.upvotes, row.downvotes)
                for row in table.rows()
            ],
            upvote_history=[
                (dict(value.mapping), count)
                for value, count in table.upvote_history.nonzero_items()
            ],
            downvote_history=[
                (dict(value.mapping), count)
                for value, count in table.downvote_history.nonzero_items()
            ],
            superseded=sorted(table.superseded),
        )

    def restore_into(self, replica: Replica) -> None:
        """Load this snapshot into a fresh replica's table."""
        table = replica.table
        if len(table) != 0:
            raise ValueError("bootstrap target replica is not empty")
        for row_id, value, upvotes, downvotes in self.rows:
            table.load_row(row_id, RowValue(value), upvotes, downvotes)
        for value, count in self.upvote_history:
            table.upvote_history[RowValue(value)] = count
        for value, count in self.downvote_history:
            table.downvote_history[RowValue(value)] = count
        table.superseded.update(self.superseded)


@dataclass
class ClientSession:
    """Server-side per-client resync state.

    A client's stream is ``trace[epoch_seq:]`` minus the seqs withheld
    from it as its own echoes.  The session keeps what the trace cannot
    tell: when the sync epoch (attach or snapshot resync) began, the
    newest ``oplog_capacity`` withheld seqs (all a resync reads), and
    how many seqs up to the last one sent were withheld.  While
    detached, nothing past ``detach_seq`` is sent.
    """

    name: str
    trace: list[TraceRecord] = field(repr=False)
    withheld: deque[int] = field(repr=False)
    epoch_seq: int = 0
    epoch_time: float = 0.0
    withheld_sent: int = 0
    detach_seq: int | None = None
    resyncs_incremental: int = 0
    resyncs_snapshot: int = 0

    @property
    def attached(self) -> bool:
        return self.detach_seq is None

    def withhold(self, seq: int) -> None:
        """Trace record *seq* is the client's own echo: not streamed."""
        self.withheld.append(seq)
        if self.attached:
            self.withheld_sent += 1

    def rebase(self, time: float) -> None:
        """A snapshot (attach or resync): a new epoch at the trace end."""
        self.epoch_seq = len(self.trace)
        self.epoch_time = time
        self.withheld.clear()
        self.withheld_sent = 0

    @property
    def sent_count(self) -> int:
        """Messages sent to the client in the current sync epoch."""
        end = len(self.trace) if self.attached else self.detach_seq + 1
        return end - self.epoch_seq - self.withheld_sent


@dataclass(frozen=True)
class ResyncResult:
    """What ``reattach_client`` did to bring a client back in sync."""

    kind: Literal["incremental", "snapshot"]
    replayed: int = 0
    bootstrap: BootstrapState | None = None


class _CompletionTracker:
    """Incrementally maintained completion check (section 3.3).

    The master's final table satisfies the template iff there is an
    injective template-row → final-row assignment with s ⊇* t.  Empty
    template rows (absorbed cardinality constraints) are satisfied by
    *any* final row, so they decompose out of the matching: the template
    is satisfied exactly when a maintained matching of the *non-empty*
    template rows saturates them AND the final table has enough rows
    left over for the empty ones.  That keeps the maintained graph free
    of the O(n_final · n_empty) everything-edges a cardinality template
    would otherwise contribute.

    The final table is tracked per primary-key group via the candidate
    table's dirty-consumer journal: each check re-examines only the key
    groups touched since the previous check, swapping the group's final
    row in or out of the matching.  A full rebuild happens only on the
    first check, after a journal overflow, or when the Central Client
    reduces the template.
    """

    def __init__(
        self,
        table: CandidateTable,
        template_rows: Callable[[], list[TemplateRow]],
    ) -> None:
        self._table = table
        self._template_rows = template_rows
        self._token = table.register_dirty_consumer()
        self._sig: tuple[str, ...] | None = None
        self._nonempty: list[TemplateRow] = []
        self._n_empty = 0
        self._matching: IncrementalMatching | None = None
        self._right_by_key: dict[tuple, str] = {}

    def satisfied(self) -> bool:
        """Does the master's final table currently satisfy the template?"""
        rows = self._template_rows()
        sig = tuple(row.label for row in rows)
        delta = self._table.drain_dirty(self._token)
        if self._matching is None or sig != self._sig or delta.full:
            self._rebuild(rows, sig)
        else:
            for key in delta.keys:
                self._update_key(key)
        assert self._matching is not None
        size = self._matching.maximize()
        return (
            size == len(self._nonempty)
            and len(self._right_by_key) >= len(self._nonempty) + self._n_empty
        )

    def _rebuild(self, rows: list[TemplateRow], sig: tuple[str, ...]) -> None:
        self._sig = sig
        self._nonempty = [row for row in rows if not row.is_empty]
        self._n_empty = len(rows) - len(self._nonempty)
        self._matching = IncrementalMatching(row.label for row in self._nonempty)
        self._right_by_key = {}
        for key, final_row in self._table.final_groups():
            self._add_right(key, final_row)

    def _add_right(self, key: tuple, final_row: Row) -> None:
        self._right_by_key[key] = final_row.row_id
        self._matching.add_right(
            final_row.row_id,
            [
                row.label
                for row in self._nonempty
                if row.satisfied_by(final_row.value)
            ],
        )

    def _update_key(self, key: tuple) -> None:
        """The key group changed: swap its final row in the matching."""
        final_row = self._table.final_in_group(key)
        old_id = self._right_by_key.get(key)
        new_id = final_row.row_id if final_row is not None else None
        if old_id == new_id:
            return
        if old_id is not None:
            self._matching.remove_right(old_id)
            del self._right_by_key[key]
        if final_row is not None:
            self._add_right(key, final_row)


class BackendServer:
    """Master replica + broadcast hub + trace keeper + CC host.

    Args:
        sim: the shared discrete-event simulator (its clock timestamps
            the trace).
        network: the simulated network; the server registers itself
            under :data:`SERVER_NAME`.
        schema: collected table's schema.
        scoring: vote-aggregation function.
        template: constraint template (cardinality absorbed).
        on_complete: called once, when the final table first satisfies
            the template.
        oplog_capacity: how many of the newest trace records count as
            *retained* for incremental client resync and ``from_cut``
            change-stream replay; a rejoin whose gap reaches past them
            falls back to a snapshot.
        max_batch: how many queued messages one drain applies through
            :meth:`CandidateTable.apply_batch` before re-checking the
            derived-view consumers (PRI repair, completion).  Batching
            never changes semantics — the table stops a batch early at
            every derived-view change — only amortization.
        obs: optional :class:`repro.obs.Observability` receiving
            broadcast counters, batch-size histograms, and resync
            events (its ``messages_applied`` counter reads the trace
            length); threaded on to the Central Client and the master
            candidate table.  Defaults to the network's observability
            handle so one ``obs=`` at the session level instruments the
            whole server stack.

    The Central Client shares the master candidate table (its replica is
    constructed over the same :class:`CandidateTable`), so each message
    is applied exactly once and PRI repair reads master state directly.
    Its refresh is driven by the table's ``probable_epoch``: the server
    invokes it only when a message actually changed probable-set
    membership, which is the only condition under which a refresh can
    act (the matching loses or gains rights only on membership changes,
    and template reductions happen inside the refresh itself).
    Likewise the completion check runs only when the final table changed
    (``final_epoch``) or a PRI repair ran — the only events that can
    change its verdict.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        schema: Schema,
        scoring: ScoringFunction,
        template: Template,
        on_complete: Callable[[], None] | None = None,
        oplog_capacity: int = 512,
        max_batch: int = 64,
        obs: object | None = None,
        *,
        endpoint: str = SERVER_NAME,
        broadcast_source: str | None = None,
        hosts_central: bool = True,
        durability: DurabilityConfig | None = None,
    ) -> None:
        from repro.obs import resolve

        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        if oplog_capacity < 1:
            raise ValueError(f"op-log capacity must be >= 1: {oplog_capacity}")
        self.sim = sim
        self.network = network
        self.schema = schema
        self.scoring = scoring
        self.template = template
        self.max_batch = max_batch
        #: Durable state (WAL + checkpoints), None when durability is
        #: off.  Survives a :meth:`~repro.server.shard.ShardServer.crash`
        #: — it models the disk, not process memory.
        self.durable: DurableStore | None = (
            DurableStore(durability) if durability is not None else None
        )
        # Sharding hooks (repro.server.shard): a shard registers under
        # its own endpoint name but keeps broadcasting to its clients as
        # SERVER_NAME (clients are shard-oblivious), and only the
        # primary shard hosts the Central Client + completion tracking.
        # The plain server leaves all three at their defaults, which
        # reproduce the pre-sharding behavior exactly.
        self.endpoint = endpoint
        self.broadcast_source = (
            endpoint if broadcast_source is None else broadcast_source
        )
        self.hosts_central = hosts_central
        self.obs = resolve(obs) if obs is not None else network.obs  # type: ignore[arg-type]
        self._obs_ns = endpoint
        self._broadcasts_metric = f"{endpoint}.broadcasts"
        self._batches_metric = f"{endpoint}.batches"
        self._batch_size_metric = f"{endpoint}.batch_size"
        self.replica = Replica(endpoint, schema, scoring)
        self.replica.table.set_observability(self.obs, scope=self._obs_ns)
        #: Every applied operation, once, in apply order (seq = index).
        #: The one in-memory log the rest of the server reads.
        self.trace: list[TraceRecord] = []
        if self.obs.enabled:
            self.obs.metrics.read_through(
                f"{self._obs_ns}.messages_applied", lambda: len(self.trace)
            )
        self.oplog_capacity = oplog_capacity
        self.changes = ChangeStream(self)
        self._clients: list[str] = []
        self._sessions: dict[str, ClientSession] = {}
        self.on_complete = on_complete
        self.completed = False
        self.completion_time: float | None = None
        self.central: CentralClient | None = None
        self._completion: _CompletionTracker | None = None
        if hosts_central:
            self.central = CentralClient(
                schema,
                scoring,
                template,
                send=self._central_send,
                clock=lambda: sim.now,
                obs=self.obs,
                table=self.replica.table,
            )
            central = self.central
            self._completion = _CompletionTracker(
                self.replica.table, lambda: central.template_rows
            )
        network.register(endpoint, self)
        self._started = False
        self._trace_listeners: list[Callable[[TraceRecord], None]] = []
        self._pending: deque[tuple[str, Message]] = deque()
        self._drain_scheduled = False
        self._draining = False

    def add_trace_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Observe every worker trace record as the server logs it
        (Central Client records are not delivered).  The compensation
        estimator subscribes here."""
        self._trace_listeners.append(listener)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Initialize the Central Client (populating the template rows).

        A server that does not host the Central Client (a secondary
        shard) only flips its started flag: template rows arrive from
        the primary shard via the exchange stream instead.
        """
        if self._started:
            raise RuntimeError("backend server already started")
        self._started = True
        if self.central is not None:
            self.central.initialize()
            self._check_completion()

    def attach_client(self, name: str) -> BootstrapState:
        """Register a worker client for broadcast; returns its bootstrap.

        The returned snapshot makes the client's initial copy identical
        to the master, as the model requires.  Attaching starts a fresh
        session; a retained session from an earlier detach is discarded
        (use :meth:`reattach_client` to resume one instead).
        """
        if name in self._clients:
            raise ValueError(f"client already attached: {name!r}")
        self._clients.append(name)
        session = ClientSession(
            name, self.trace, deque(maxlen=self.oplog_capacity)
        )
        session.rebase(self.sim.now)
        self._sessions[name] = session
        return BootstrapState.capture(self.replica)

    def detach_client(self, name: str) -> None:
        """Stop broadcasting to a departed client.

        The client's session is *retained*: it records how far the
        broadcast stream to this client had progressed, so a later
        :meth:`reattach_client` can resync the gap.
        """
        if name in self._clients:
            self._clients.remove(name)
            self._sessions[name].detach_seq = len(self.trace) - 1

    def reattach_client(self, name: str, received_count: int) -> ResyncResult:
        """Resume a detached client's session and resync its copy.

        Args:
            name: the client's endpoint name.
            received_count: how many broadcast messages the client has
                received from the server in the current sync epoch —
                its acknowledgement of the prefix it holds.

        The server replays the client's stream (see
        :class:`ClientSession`) from its first unacknowledged record on,
        in seq order, through the normal FIFO link.  When the retained
        trace suffix no longer covers the gap, the client instead gets a
        fresh :class:`BootstrapState` and both sides reset their
        counters.

        Unacknowledged messages are treated as *dead*: reattach assumes
        no traffic toward the client is still in flight, which holds
        because faults purge the link when the outage begins and a
        gracefully detached client reattaches only after the network
        drains.

        Raises:
            ValueError: unknown session, client still attached, or an
                impossible ``received_count``.
        """
        session = self._sessions.get(name)
        if session is None:
            raise ValueError(f"no session for client {name!r}; attach first")
        if session.attached:
            raise ValueError(f"client {name!r} is already attached")
        if received_count < 0 or received_count > session.sent_count:
            raise ValueError(
                f"client {name!r} acknowledged {received_count} messages "
                f"but only {session.sent_count} were sent"
            )
        replay = self._incremental_replay(session, received_count)
        # Echoes withheld while detached join the sent range.
        session.withheld_sent += sum(
            1 for seq in session.withheld if seq > session.detach_seq
        )
        session.detach_seq = None
        self._clients.append(name)
        if replay is None:
            session.rebase(self.sim.now)
            session.resyncs_snapshot += 1
            if self.obs.enabled:
                self.obs.inc(f"{self._obs_ns}.resyncs_snapshot")
                self.obs.event(
                    f"{self._obs_ns}.resync", client=name, kind="snapshot"
                )
            return ResyncResult(
                kind="snapshot", bootstrap=BootstrapState.capture(self.replica)
            )
        session.resyncs_incremental += 1
        if self.obs.enabled:
            self.obs.inc(f"{self._obs_ns}.resyncs_incremental")
            self.obs.inc(f"{self._obs_ns}.resync_replayed", len(replay))
            self.obs.event(
                f"{self._obs_ns}.resync",
                client=name,
                kind="incremental",
                replayed=len(replay),
            )
        for record in replay:
            self.network.send(self.broadcast_source, name, record.message)
        return ResyncResult(kind="incremental", replayed=len(replay))

    def _incremental_replay(
        self, session: ClientSession, received_count: int
    ) -> list[TraceRecord] | None:
        """The client's stream records in ``trace[start:]``, where
        ``start`` is its first unacknowledged record — or None when that
        lies before the retained trace suffix (snapshot needed).  A
        replay cut short by another outage leaves the client a longer
        prefix of the same stream, so nothing is applied twice."""
        first = len(self.trace) - self.oplog_capacity
        withheld = set(session.withheld)
        unacked = session.sent_count - received_count
        start = session.detach_seq + 1
        while unacked and start > first:
            start -= 1
            if start not in withheld:
                unacked -= 1
        if unacked or start < first:
            return None
        return [
            record
            for record in islice(self.trace, start, None)
            if record.seq not in withheld
        ]

    def bind_faults(
        self, injector: Any, clients: dict[str, Any] | None = None
    ) -> None:
        """Wire the outage choreography of every worker endpoint in
        *injector*'s plan (see :func:`bind_worker_faults`)."""
        bind_worker_faults(
            injector, clients, self.detach_client, self._reconnect_worker
        )

    def _reconnect_worker(self, client: Any) -> None:
        """Outage-end reattach: resume the retained session."""
        client.reconnect(self)

    def session(self, name: str) -> ClientSession | None:
        """The retained session for *name*, if any (observability)."""
        return self._sessions.get(name)

    @property
    def clients(self) -> tuple[str, ...]:
        return tuple(self._clients)

    # -- message plumbing -------------------------------------------------------

    def on_message(self, source: str, payload: Message) -> None:
        """Network entry point: a worker client's message arrives.

        The message is queued; inside a simulator run the queue drains
        in batches at the end of the current instant (all deliveries of
        one instant join one drain), otherwise — direct calls from
        tests or drivers — it drains synchronously before returning.
        Either way every message is applied, traced, and broadcast at
        the simulated instant it arrived, in arrival order.
        """
        self._pending.append((source, payload))
        self._schedule_drain()

    def ingest(self, source: str, messages: Iterator[Message] | list[Message]) -> None:
        """Bulk entry point: queue a run of messages from one source.

        Used by drivers and benchmarks that feed the server directly
        (no network hop); drains under the same batching rules as
        :meth:`on_message`.
        """
        pending = self._pending
        for message in messages:
            pending.append((source, message))
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._drain_scheduled or self._draining:
            return
        if self.sim.running:
            self._drain_scheduled = True
            self.sim.defer(self._drain)
        else:
            self._drain()

    def _drain(self) -> None:
        self._drain_scheduled = False
        if self._draining:
            return
        self._draining = True
        try:
            self._drain_pending()
        finally:
            self._draining = False

    def _drain_pending(self) -> None:
        """Apply queued messages in batches of up to :attr:`max_batch`.

        Each batch runs through :meth:`CandidateTable.apply_batch`,
        which stops early after any message that changed the probable
        set or the final table; PRI repair and the completion check then
        run at exactly the per-message point the sequential code would
        have run them (and are skipped for the — typical — messages
        that cannot affect them).
        """
        pending = self._pending
        if not pending:
            return
        obs = self.obs
        table = self.replica.table
        max_batch = self.max_batch
        popleft = pending.popleft
        apply_and_trace = self._apply_and_trace
        broadcast_record = self._broadcast_record
        while pending:
            batch = [
                message
                for _, message in islice(pending, min(len(pending), max_batch))
            ]
            probable_before = table.probable_epoch
            final_before = table.final_epoch
            error: Exception | None = None
            try:
                applied = table.apply_batch(batch)
            except BatchApplyError as exc:
                applied = exc.applied
                error = exc.cause
            self.replica.messages_processed += applied
            if obs.enabled:
                obs.inc(self._batches_metric)
                obs.observe(self._batch_size_metric, applied)
            for _ in range(applied):
                source, message = popleft()
                record = apply_and_trace(message, worker_id=source)
                broadcast_record(record, exclude=source)
            if error is not None:
                # The failing message mutated nothing; drop it and
                # surface the failure (matching the sequential path,
                # where it raised out of the delivery event).
                pending.popleft()
                raise error
            if self.central is not None:
                cc_ran = False
                if table.probable_epoch != probable_before:
                    # The colocated Central Client reads the shared
                    # master table; it may emit repairs (broadcast via
                    # _central_send).
                    self.central.refresh()
                    cc_ran = True
                if cc_ran or table.final_epoch != final_before:
                    self._check_completion()
        if self.durable is not None and self.durable.checkpoint_due:
            self._take_checkpoint()

    def _central_send(self, message: Message) -> None:
        """CC generated a message; it is already applied to the shared
        master table by CC's replica."""
        self.replica.messages_processed += 1
        record = self._apply_and_trace(message, CENTRAL_CLIENT_ID)
        self._broadcast_record(record, exclude=None)
        # No completion check here: CC sends arrive mid-repair; the
        # drain loop (or start()) checks afterwards.

    def _broadcast_record(
        self, record: TraceRecord, exclude: str | None
    ) -> None:
        """Fan one applied message out to every client but *exclude*,
        whose session (attached or detached) notes the withheld echo.

        Nothing is encoded: every recipient gets the record's one message
        object, immutable as crowdlint's ESC001 proves, so safe to share.
        """
        if exclude is not None:
            session = self._sessions.get(exclude)
            if session is not None:
                session.withhold(record.seq)
        targets = [c for c in self._clients if c != exclude]
        if not targets:
            return
        self.network.broadcast(self.broadcast_source, targets, record.message)
        if self.obs.enabled:
            self.obs.inc(self._broadcasts_metric, len(targets))

    def _apply_and_trace(self, message: Message, worker_id: str) -> TraceRecord:
        """Trace one applied message.  On a plain backend the whole
        trace is one dense commit sequence, so each operation commits
        at origin coordinate ``(0, seq)``."""
        return self._trace(message, worker_id, 0, len(self.trace))

    def _trace(
        self, message: Message, worker_id: str, shard_id: int, lseq: int
    ) -> TraceRecord:
        """Build one applied message's record (its message is the wire
        payload broadcast to every client), :meth:`_log` it, and notify
        listeners.  The table application itself happened in
        :meth:`CandidateTable.apply_batch` (or in CC's replica for
        central messages) just before this call."""
        record = TraceRecord(
            seq=len(self.trace),
            timestamp=self.sim.now,
            worker_id=worker_id,
            message=message,
            shard_id=shard_id,
            lseq=lseq,
        )
        self._log(record)
        if worker_id != CENTRAL_CLIENT_ID:
            for listener in self._trace_listeners:
                listener(record)
        return record

    def _log(self, record: TraceRecord, *, replayed: bool = False) -> None:
        """The one append path of an applied operation.

        The record joins the trace; then, unless it is being *replayed*
        from the WAL at recovery (already logged, and covered by the
        recovered stream cut), it is write-ahead-logged (when durability
        is on) and noted on the change stream.  The WAL append happens
        before the record becomes visible to any consumer — before the
        broadcast fan-out and before the end-of-drain exchange flush —
        the invariant crash recovery counts on: anything a peer or
        client ever saw is in the log.
        """
        self.trace.append(record)
        if replayed:
            return
        if self.durable is not None:
            self.durable.append(
                WalRecord(
                    shard_id=record.shard_id,
                    lseq=record.lseq,
                    worker_id=record.worker_id,
                    timestamp=record.timestamp,
                    message=record.message,
                )
            )
        self.changes.note(record)

    # -- durability ------------------------------------------------------------

    def _take_checkpoint(self) -> None:
        """Checkpoint at a drain boundary — the only instants at which
        the table provably equals the traced prefix, so the captured
        state corresponds exactly to the captured cut."""
        assert self.durable is not None
        state, cut = self.snapshot_cut()
        self.durable.save_checkpoint(
            encode_checkpoint(state, cut, self._central_section())
        )
        if self.obs.enabled:
            self.obs.inc(f"{self._obs_ns}.checkpoints")
            self.obs.event(f"{self._obs_ns}.checkpoint", position=cut.position)

    def _central_section(self) -> dict[str, Any] | None:
        """The Central Client's constraint state for the checkpoint:
        the possibly-reduced current template plus the dropped rows
        (recovery must not resurrect a dropped constraint)."""
        if self.central is None:
            return None
        return {
            "template": Template(self.central.template_rows).to_dict(),
            "dropped": Template(self.central.dropped_rows).to_dict(),
        }

    # -- change-data-capture -------------------------------------------------

    def subscribe(
        self,
        name: str = "consumer",
        *,
        from_cut: Cut | None = None,
        capacity: int | None = None,
    ) -> Subscription:
        """Attach a CDC consumer to this server's change stream (see
        :meth:`repro.cdc.subscription.ChangeStream.subscribe`)."""
        return self.changes.subscribe(name, from_cut=from_cut, capacity=capacity)

    def snapshot_cut(self) -> tuple[BootstrapState, Cut]:
        """An atomic ``(state, cut)`` pair: the master state and the
        change-stream position it corresponds to.  Atomic because the
        simulator is single-threaded and this method applies nothing —
        it is *the* primitive behind the subscription snapshot fallback
        and mid-run replica bootstrap."""
        return BootstrapState.capture(self.replica), self.changes.cut()

    # -- results ------------------------------------------------------------------

    def final_rows(self) -> list[Row]:
        """The master's current final table rows."""
        return self.replica.table.final_rows()

    def worker_trace(self) -> list[TraceRecord]:
        """Trace records from worker clients only (CC excluded) — the
        set M of section 5.2."""
        return [
            record for record in self.trace
            if record.worker_id != CENTRAL_CLIENT_ID
        ]

    def current_template(self) -> Template:
        """The possibly-reduced template CC is currently maintaining.

        Raises:
            RuntimeError: on a server that does not host the Central
                Client (a secondary shard); ask the primary instead.
        """
        if self.central is None:
            raise RuntimeError(
                f"{self.endpoint!r} does not host the Central Client"
            )
        return Template(self.central.template_rows)

    def _check_completion(self) -> None:
        if self.completed or self._completion is None:
            return
        if self._completion.satisfied():
            self.completed = True
            self.completion_time = self.sim.now
            if self.obs.enabled:
                self.obs.event(
                    f"{self._obs_ns}.completed",
                    final_rows=len(self.final_rows()),
                )
            if self.on_complete is not None:
                self.on_complete()


def bind_worker_faults(
    injector: Any,
    clients: dict[str, Any] | None,
    detach: Callable[[str], None],
    reconnect: Callable[[Any], None],
) -> None:
    """Bind the outage choreography of every faulted endpoint of
    *injector*'s plan: window start detaches the session (*detach*) and
    breaks the client, window end reattaches it (*reconnect*), and
    purged sends go back to the client's outbox.

    Handlers look the client up in *clients* when the window fires, so
    a registry that grows as workers arrive (``CollectionSession.clients``)
    stays current; a window that opens before its client exists, or on
    an endpoint that is not a client, is a no-op.  Both halves skip a
    client whose connection is already in the target state: a crash
    window on its home shard may have broken it first, and the restart
    may rejoin it before its own outage ends.
    """
    registry: dict[str, Any] = {} if clients is None else clients

    def on_disconnect(name: str) -> None:
        client = registry.get(name)
        if client is not None and client.connected:
            detach(name)
            client.disconnect()

    def on_reconnect(name: str) -> None:
        client = registry.get(name)
        if client is not None and not client.connected:
            reconnect(client)

    def on_requeue(name: str, messages: list) -> None:
        client = registry.get(name)
        if client is not None:
            client.requeue_unsent(messages)

    for name in injector.plan.faulted_endpoints():
        injector.bind(
            name,
            on_disconnect=partial(on_disconnect, name),
            on_reconnect=partial(on_reconnect, name),
            on_requeue=partial(on_requeue, name),
        )
