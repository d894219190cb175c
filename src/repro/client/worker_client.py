"""Headless worker client.

The browser UI of Figure 1 boils down, model-wise, to:

- a local copy of the candidate table, updated by server broadcasts;
- fill / upvote / downvote actions translating to primitive operations;
- a per-client randomized row order ("to encourage workers to fill in
  different parts of the table");
- vote bookkeeping (section 3.4): at most one vote per row per worker,
  directly or indirectly; at most one upvote per primary key; the last
  value completing a row auto-upvotes it without extra payment; an
  optional cap on total votes per row.

Extensions from section 8 implemented here: the worker-level ``modify``
action (downvote + fresh row + fills) and ``undo`` for votes.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.core.messages import (
    InsertMessage,
    Message,
    ReplaceMessage,
    UndoDownvoteMessage,
    UndoUpvoteMessage,
)
from repro.core.replica import OperationError, Replica
from repro.core.row import Row
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.net import Network
from repro.server.backend import SERVER_NAME, BootstrapState


class VotePolicyError(OperationError):
    """The data-entry interface refuses a vote (section 3.4 policies)."""


class WorkerClient:
    """One worker's connection to CrowdFill.

    Args:
        worker_id: globally-unique worker identifier; also the network
            endpoint name and the row-identifier prefix.
        schema / scoring: as configured for the collection.
        network: simulated network (must have the server registered).
        vote_cap: optional maximum u+d per row before the interface
            hides the vote buttons.
        allow_modify: enable the extension "modify" action, which may
            generate insert messages from this client.
        streams: named entropy source; the client's row-order
            randomization draws from the ``"order-<worker_id>"`` stream.
            Keyword-only.
    """

    def __init__(
        self,
        worker_id: str,
        schema: Schema,
        scoring: ScoringFunction,
        network: Network,
        vote_cap: int | None = None,
        allow_modify: bool = False,
        *,
        streams: Any | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.schema = schema
        self.replica = Replica(worker_id, schema, scoring)
        self.network = network
        if streams is not None:
            self.rng = streams.stream(f"order-{worker_id}")
        else:
            self.rng = random.Random(0)
        self.vote_cap = vote_cap
        self.allow_modify = allow_modify
        self._voted_row_ids: set[str] = set()
        self._upvoted_keys: set[tuple] = set()
        self._vote_stack: list[Message] = []  # for undo
        self._row_order_keys: dict[str, float] = {}
        self._successor: dict[str, str] = {}  # replaced row -> its heir
        self._listeners: list[Callable[[Message], None]] = []
        self.actions_performed = 0
        self._connected = True
        #: Connected → disconnected transitions (outages and crashes).
        self.disconnects = 0
        self._outbox: list[Message] = []
        self.messages_received = 0
        self.resync_kinds: list[str] = []
        network.register(worker_id, self)

    # -- wiring ------------------------------------------------------------------

    def bootstrap(self, state: BootstrapState) -> None:
        """Load the master snapshot handed out by ``attach_client``."""
        state.restore_into(self.replica)
        for row_id in self.replica.table.row_ids():
            self._row_order_keys[row_id] = self.rng.random()

    def add_listener(self, listener: Callable[[Message], None]) -> None:
        """Observe every remotely-received message (UI refresh hook)."""
        self._listeners.append(listener)

    def on_message(self, source: str, payload: Message) -> None:
        """Network entry point: a broadcast from the server."""
        self.messages_received += 1
        self.replica.receive(payload)
        if isinstance(payload, ReplaceMessage):
            self._note_replacement(payload.old_id, payload.new_id)
            self._assign_order_key(payload.new_id)
        elif isinstance(payload, InsertMessage):
            self._assign_order_key(payload.row_id)
        for listener in self._listeners:
            listener(payload)

    # -- connection lifecycle ----------------------------------------------------

    @property
    def connected(self) -> bool:
        """False while the client's server connection is broken."""
        return self._connected

    @property
    def pending_ops(self) -> int:
        """Operations performed offline, awaiting replay on reconnect."""
        return len(self._outbox)

    def disconnect(self) -> None:
        """The connection broke: buffer sends until :meth:`reconnect`.

        Local operations keep working against the local copy — the
        worker can keep typing into a stale table, exactly like a
        browser that lost its socket.
        """
        if not self._connected:
            return
        self._connected = False
        self.disconnects += 1

    def requeue_unsent(self, messages: list[Message]) -> None:
        """Hand back messages purged from the wire mid-flight.

        They were sent (and applied locally) *before* anything buffered
        offline, so they go to the front of the outbox.
        """
        self._outbox[:0] = messages

    def reconnect(self, backend) -> str:
        """Reattach to *backend* and replay buffered operations.

        Runs the resync protocol: reports this client's received-message
        count, loads the bootstrap snapshot if the server's retained trace
        could not cover the gap, then flushes the offline outbox through the
        normal send path so pending fills/votes merge via the ordinary
        operation model.  Returns the resync kind (``"incremental"`` or
        ``"snapshot"``).
        """
        if self._connected:
            raise OperationError(
                f"client {self.worker_id!r} is already connected"
            )
        result = backend.reattach_client(self.worker_id, self.messages_received)
        if result.kind == "snapshot":
            self.messages_received = 0
            self._restore_from_snapshot(result.bootstrap)
        self._connected = True
        self.resync_kinds.append(result.kind)
        outbox, self._outbox = self._outbox, []
        for message in outbox:
            self._send(message)
        return result.kind

    def rejoin(self, backend) -> None:
        """Reattach to a backend that *lost this client's session* —
        the server crashed and came back with amnesia.

        :meth:`reconnect` resumes a retained session; after a server
        crash there is nothing to resume, so the client attaches fresh
        (``attach_client``), restores the recovered master's bootstrap
        snapshot, and flushes its offline outbox through the normal
        send path — the crash-recovery counterpart of the snapshot
        resync.

        Raises:
            OperationError: the client believes it is still connected.
        """
        if self._connected:
            raise OperationError(
                f"client {self.worker_id!r} is already connected"
            )
        state = backend.attach_client(self.worker_id)
        self.messages_received = 0
        self._restore_from_snapshot(state)
        self._connected = True
        self.resync_kinds.append("rejoin")
        outbox, self._outbox = self._outbox, []
        for message in outbox:
            self._send(message)

    def _restore_from_snapshot(self, state: BootstrapState) -> None:
        """Replace the local copy with the master's snapshot, then
        re-apply the offline outbox locally — the snapshot cannot
        contain operations the server never received."""
        self.replica.reset()
        state.restore_into(self.replica)
        for message in self._outbox:
            self.replica.receive(message)
        self._assign_order_keys()

    def _note_replacement(self, old_id: str, new_id: str) -> None:
        self._successor[old_id] = new_id
        # The visual row stays in place in the UI; keep its order key.
        if old_id in self._row_order_keys:
            self._row_order_keys.setdefault(new_id, self._row_order_keys[old_id])

    def resolve_row(self, row_id: str) -> str:
        """Follow replacements to the current heir of *row_id*.

        The browser UI updates rows in place while a worker is typing:
        an action begun against a row that a concurrent fill replaced
        lands on the replacement.  This resolution models that.
        """
        seen = {row_id}
        current = row_id
        while current in self._successor:
            current = self._successor[current]
            if current in seen:  # defensive; lineage is acyclic
                break
            seen.add(current)
        return current

    def _send(self, message: Message) -> None:
        if not self._connected:
            self._outbox.append(message)
            return
        self.network.send(self.worker_id, SERVER_NAME, message)

    def _assign_order_key(self, row_id: str) -> None:
        """Key a row a received message created, if it is still unkeyed.

        A received message creates at most one row, and no local path
        leaves a row unkeyed (``fill`` keys its new row; ``modify``'s
        inserted row is replaced at once), so this draws exactly what a
        scan of every row would.
        """
        if row_id not in self._row_order_keys and row_id in self.replica.table:
            self._row_order_keys[row_id] = self.rng.random()

    def _assign_order_keys(self) -> None:
        for row_id in self.replica.table.row_ids():
            if row_id not in self._row_order_keys:
                self._row_order_keys[row_id] = self.rng.random()

    # -- the worker's view ----------------------------------------------------------

    def visible_rows(self) -> list[Row]:
        """The local table in this client's randomized presentation order."""
        self._assign_order_keys()
        return sorted(
            self.replica.table.rows(),
            key=lambda row: self._row_order_keys.get(row.row_id, 1.0),
        )

    def row(self, row_id: str) -> Row | None:
        """This client's copy of a row, or None if it has been replaced."""
        return self.replica.table.get(row_id)

    def can_vote(self, row_id: str) -> bool:
        """Would the interface show vote buttons for this row?

        The vote cap exists "to prevent excessive voting" (section
        3.4); a row whose score is still zero is undecided, so the cap
        only applies once the row's fate is settled — otherwise an even
        vote split could freeze a row that one more vote would resolve.
        """
        row = self.replica.table.get(row_id)
        if row is None or row.value.is_empty:
            return False
        if row_id in self._voted_row_ids:
            return False
        if self.vote_cap is not None and (
            row.upvotes + row.downvotes >= self.vote_cap
            and self.replica.table.score(row) != 0
        ):
            return False
        return True

    def can_upvote(self, row_id: str) -> bool:
        """can_vote plus completeness and the one-upvote-per-key rule."""
        if not self.can_vote(row_id):
            return False
        row = self.replica.table.row(row_id)
        if not row.value.is_complete(self.schema.column_names):
            return False
        key = row.value.key(self.schema.key_columns)
        return key not in self._upvoted_keys

    # -- actions -----------------------------------------------------------------------

    def fill(self, row_id: str, column: str, value: Any) -> str:
        """Fill an empty cell; returns the new row identifier.

        When the fill completes the row, the client automatically
        upvotes it (section 3.4) — that upvote carries ``auto=True`` and
        is never compensated separately.

        Raises:
            OperationError: stale row id, filled column, or bad value.
        """
        message = self.replica.fill(row_id, column, value)
        self._send(message)
        self.actions_performed += 1
        self._note_replacement(row_id, message.new_id)
        # The default is drawn on every fill, used or not: the stream's
        # later draws (and so every same-seed replay) depend on it.
        self._row_order_keys[message.new_id] = self._row_order_keys.get(
            row_id, self.rng.random()
        )
        new_row = self.replica.row(message.new_id)
        if new_row.value.is_complete(self.schema.column_names):
            self._auto_upvote(message.new_id)
        return message.new_id

    def upvote(self, row_id: str) -> None:
        """Endorse a complete row, subject to the interface policies.

        Raises:
            VotePolicyError: already voted on this row, already upvoted
                this key, or the row hit the vote cap.
            OperationError: unknown row / incomplete row.
        """
        self._check_vote_policy(row_id)
        row = self.replica.table.get(row_id)
        if row is not None:
            key = row.value.key(self.schema.key_columns)
            if (
                key is not None
                and row.value.is_complete(self.schema.column_names)
                and key in self._upvoted_keys
            ):
                raise VotePolicyError(
                    f"worker {self.worker_id!r} already upvoted a row with "
                    f"key {key}"
                )
        message = self.replica.upvote(row_id)
        self._send(message)
        self.actions_performed += 1
        self._voted_row_ids.add(row_id)
        key = message.value.key(self.schema.key_columns)
        if key is not None:
            self._upvoted_keys.add(key)
        self._vote_stack.append(message)

    def downvote(self, row_id: str) -> None:
        """Refute a partial row, subject to the interface policies."""
        self._check_vote_policy(row_id)
        message = self.replica.downvote(row_id)
        self._send(message)
        self.actions_performed += 1
        self._voted_row_ids.add(row_id)
        self._vote_stack.append(message)

    def _auto_upvote(self, row_id: str) -> None:
        """The automatic upvote triggered by completing a row."""
        if row_id in self._voted_row_ids:
            return
        row = self.replica.row(row_id)
        key = row.value.key(self.schema.key_columns)
        if key in self._upvoted_keys:
            return
        message = self.replica.upvote(row_id, auto=True)
        self._send(message)
        self._voted_row_ids.add(row_id)
        if key is not None:
            self._upvoted_keys.add(key)

    def _check_vote_policy(self, row_id: str) -> None:
        if row_id in self._voted_row_ids:
            raise VotePolicyError(
                f"worker {self.worker_id!r} already voted on row {row_id!r}"
            )
        row = self.replica.table.get(row_id)
        if row is not None and self.vote_cap is not None:
            if (
                row.upvotes + row.downvotes >= self.vote_cap
                and self.replica.table.score(row) != 0
            ):
                raise VotePolicyError(
                    f"row {row_id!r} reached the vote cap of {self.vote_cap}"
                )

    # -- extension actions (section 8) ----------------------------------------------

    def modify(self, row_id: str, column: str, value: Any) -> str:
        """Overwrite a non-empty cell (extension).

        Translates to the paper's suggested series: downvote the wrong
        row, insert a fresh row, and fill it with the corrected values.
        Returns the corrected row's identifier.

        Raises:
            OperationError: when modify is disabled, the row is missing,
                or the column is empty (use :meth:`fill` instead).
        """
        if not self.allow_modify:
            raise OperationError("modify action is not enabled for this client")
        row = self.replica.table.get(row_id)
        if row is None:
            raise OperationError(f"no row {row_id!r}")
        if column not in row.value.filled_columns():
            raise OperationError(
                f"column {column!r} is empty; modify overwrites values"
            )
        corrected = dict(row.value)
        corrected[column] = value
        self.schema.validate_assignment(corrected)
        if row_id not in self._voted_row_ids:
            self.downvote(row_id)
        insert_message = self.replica.insert()
        self._send(insert_message)
        self.actions_performed += 1
        new_id = insert_message.row_id
        for column_name in self.schema.column_names:
            if column_name in corrected:
                new_id = self.fill(new_id, column_name, corrected[column_name])
        return new_id

    def undo_last_vote(self) -> None:
        """Retract this worker's most recent (manual) vote (extension).

        Raises:
            OperationError: when there is nothing to undo.
        """
        if not self._vote_stack:
            raise OperationError("no vote to undo")
        last = self._vote_stack.pop()
        if hasattr(last, "auto") and getattr(last, "auto"):
            raise OperationError("automatic completion upvotes cannot be undone")
        if last.to_dict()["type"] == "upvote":
            undo: Message = UndoUpvoteMessage(value=last.value)
            key = last.value.key(self.schema.key_columns)
            if key is not None:
                self._upvoted_keys.discard(key)
        else:
            undo = UndoDownvoteMessage(value=last.value)
        undo.apply(self.replica.table)
        self._send(undo)
        self.actions_performed += 1
        # The worker may vote again on rows carrying this value.
        for row in self.replica.table.rows_with_value(last.value):
            self._voted_row_ids.discard(row.row_id)

    # -- state inspection -------------------------------------------------------------

    def snapshot(self) -> frozenset:
        """Hashable snapshot of this client's table copy."""
        return self.replica.snapshot()

    def votes_cast(self) -> int:
        """Number of rows this worker has voted on (incl. auto-upvotes)."""
        return len(self._voted_row_ids)
