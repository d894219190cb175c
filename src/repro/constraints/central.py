"""The Central Client (paper section 4.2).

Only one client may insert rows into the candidate table: the Central
Client CC, colocated with the back-end server.  Its job is to keep the
Probable Rows Invariant (PRI):

    each template row t corresponds to a unique probable row r with
    r ⊇ t (values constraints) / r compatible with t (predicates
    extension — see :meth:`TemplateRow.connects`).

CC maintains an incremental maximum bipartite matching between template
rows and probable rows.  When a change to the probable set drops the
matching below |T|, CC first searches for an augmenting path; only when
none exists does it insert a new row carrying the free template row's
values.  When even that row would not be probable (its value was
downvoted into a negative score, or its complete key is already owned
by a higher-scoring probable row), CC shuffles the matching to free a
different template row; as a last resort it drops the template row
(configurably raising instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

from repro.constraints.matching import IncrementalMatching
from repro.constraints.probable import hypothetical_row_probable, probable_rows
from repro.constraints.template import Template, TemplateRow
from repro.core.messages import Message
from repro.core.replica import Replica
from repro.core.row import Row
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.core.table import CandidateTable

CENTRAL_CLIENT_ID = "__central__"
"""Worker identifier carried by CC's messages; excluded from payment."""


class UnsatisfiableTemplateError(RuntimeError):
    """Raised (when configured) if a template row cannot stay satisfiable."""

    def __init__(self, row: TemplateRow) -> None:
        super().__init__(
            f"template row {row.label!r} can no longer be satisfied: "
            f"{row}"
        )
        self.template_row = row


@dataclass
class PriEvent:
    """One observable PRI-maintenance action (for tests and experiments)."""

    kind: Literal["augment", "insert", "shuffle", "drop"]
    template_label: str
    detail: str = ""
    time: float = 0.0


@dataclass
class PriStats:
    """Counters over the Central Client's lifetime."""

    refreshes: int = 0
    augmentations: int = 0
    inserts: int = 0
    shuffles: int = 0
    drops: int = 0
    events: list[PriEvent] = field(default_factory=list)


class CentralClient:
    """Maintains the PRI by inserting rows via its own replica.

    CC behaves exactly like a worker client from the model's point of
    view: it applies operations to its local copy and emits the
    corresponding messages through *send* (wired to the back-end
    server).  The server forwards every other client's messages to CC
    via :meth:`on_message`.

    Args:
        schema: the collected table's schema.
        scoring: the vote-aggregation function.
        template: constraint template (cardinality already absorbed).
        send: callback delivering CC's messages to the server.
        on_unsatisfiable: ``"drop"`` removes a hopeless template row and
            continues (the paper's current system); ``"error"`` raises
            :class:`UnsatisfiableTemplateError`.
        clock: returns the current simulated time (for event records).
        obs: optional :class:`repro.obs.Observability` receiving
            refresh/augmentation/insert/shuffle/drop counters, PRI
            events, and a matching-size gauge.  Keyword-only; defaults to the no-op.
        table: an existing candidate table to operate on directly
            instead of keeping a private copy — the back-end server
            passes its master table, making CC's replica a view of the
            master (one application per message instead of two).  In
            this shared mode the owner applies incoming messages before
            calling :meth:`on_message` / :meth:`refresh`, and the
            owner's table observability scope stays in place.
    """

    def __init__(
        self,
        schema: Schema,
        scoring: ScoringFunction,
        template: Template,
        send: Callable[[Message], None],
        on_unsatisfiable: Literal["drop", "error"] = "drop",
        clock: Callable[[], float] | None = None,
        *,
        obs: object | None = None,
        table: "CandidateTable | None" = None,
    ) -> None:
        from repro.obs import resolve

        self.obs = resolve(obs)  # type: ignore[arg-type]
        self.schema = schema
        self.shares_table = table is not None
        self.replica = Replica("CC", schema, scoring, table=table)
        if not self.shares_table:
            self.replica.table.set_observability(self.obs, scope="cc")
        self.template_rows: list[TemplateRow] = list(template.rows)
        self.dropped_rows: list[TemplateRow] = []
        self.on_unsatisfiable = on_unsatisfiable
        self._send = send
        self._clock = clock or (lambda: 0.0)
        self.matching = IncrementalMatching(row.label for row in self.template_rows)
        self.stats = PriStats()
        #: Rows probable at the last drain; the matching's rights lag
        #: them by the pending changes below.
        self._known_probable: set[str] = set()
        self._pending_added: set[str] = set()
        self._pending_removed: set[str] = set()
        self._probable_token = self.replica.table.register_probable_consumer()
        self._initialized = False

    # -- lifecycle -----------------------------------------------------------

    def initialize(self) -> None:
        """Populate the candidate table with the template rows.

        Each template row becomes one inserted row pre-filled with its
        equality values; complete template rows are upvoted as if a
        worker had completed them (section 4.2).
        """
        if self._initialized:
            raise RuntimeError("central client already initialized")
        self._initialized = True
        for template_row in self.template_rows:
            row_id = self._insert_row_for(template_row)
            row = self.replica.row(row_id)
            if row.value.is_complete(self.schema.column_names):
                self._send(self.replica.upvote(row_id, auto=True))
        self.refresh()

    def on_message(self, message: Message) -> None:
        """Process a message forwarded by the server, then repair the PRI.

        In shared-table mode the owner already applied the message to
        the shared table, so only the PRI repair runs here.
        """
        if not self.shares_table:
            self.replica.receive(message)
        self.refresh()

    # -- PRI maintenance -------------------------------------------------------

    def refresh(self) -> None:
        """Re-derive the probable set and repair the matching/PRI."""
        if not self._initialized:
            return
        self.stats.refreshes += 1
        augments_before = self.matching.augment_count
        try:
            guard = 0
            while True:
                guard += 1
                if guard > 10 * (len(self.template_rows) + 2):
                    raise RuntimeError("PRI repair did not converge")
                self._sync_probable_set()
                self.matching.maximize()
                free = self.matching.free_lefts()
                if not free:
                    return
                self._handle_free_row(str(free[0]))
        finally:
            delta = self.matching.augment_count - augments_before
            self.stats.augmentations += delta
            obs = self.obs
            if obs.enabled:
                obs.inc("cc.refreshes")
                if delta:
                    obs.inc("cc.augmentations", delta)
                obs.gauge("cc.matching_size", len(self.matching.pairs()))

    def pri_holds(self) -> bool:
        """Is the PRI currently satisfied (on CC's copy of the table)?"""
        return self.matching.saturated

    def correspondence(self) -> dict[str, str]:
        """The current template-label → probable-row-id matching."""
        return {str(k): str(v) for k, v in self.matching.pairs().items()}

    def probable_now(self) -> list[Row]:
        """Probable rows of CC's current table copy."""
        return probable_rows(self.replica.table)

    # -- internals ---------------------------------------------------------------

    def _template_row(self, label: str) -> TemplateRow:
        for row in self.template_rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def _sync_probable_set(self) -> None:
        """Drain the table's probable-set delta; feed it to the matching
        once it can matter.

        Row values never change (fills replace rows), so surviving
        probable rows keep their edges; only additions and removals need
        processing — and the table journals exactly those, so the cost
        is O(|membership changes|), not O(|probable set|).  A ``full``
        delta (first drain, or journal overflow) falls back to the
        original whole-set diff against the rows known probable.

        The changes are buffered, coalesced per row, and applied to the
        matching only when it has a free template row or a buffered
        removal is a matched row.  Otherwise no augmenting path can
        appear — the matching is saturated and keeps every pair — so
        applying later gives the same matching as applying now, since
        the matching reads its edges in sorted order.  A buffered row
        that stops being probable before then is never scanned.
        """
        table = self.replica.table
        added_rows, removed_ids, full = table.drain_probable_delta(
            self._probable_token
        )
        known = self._known_probable
        if full:
            current = {row.row_id: row for row in table.probable_rows()}
            removed = known - current.keys()
            added = current.keys() - known
        else:
            removed = [row_id for row_id in removed_ids if row_id in known]
            added = [row.row_id for row in added_rows if row.row_id not in known]
        matching = self.matching
        pending_added = self._pending_added
        pending_removed = self._pending_removed
        flush = not matching.saturated
        for row_id in removed:
            known.discard(row_id)
            if row_id in pending_added:
                pending_added.discard(row_id)
            else:
                pending_removed.add(row_id)
                if matching.matched_left(row_id) is not None:
                    flush = True
        for row_id in added:
            known.add(row_id)
            if row_id in pending_removed:
                pending_removed.discard(row_id)
            else:
                pending_added.add(row_id)
        if flush:
            self._apply_pending()

    def _apply_pending(self) -> None:
        """Apply the buffered probable-set changes to the matching.

        Every buffered addition is probable now, so still in the table.
        """
        matching = self.matching
        table = self.replica.table
        for row_id in sorted(self._pending_removed):
            matching.remove_right(row_id)
        for row_id in sorted(self._pending_added):
            value = table.row(row_id).value
            neighbors = [
                t.label for t in self.template_rows if t.connects(value)
            ]
            matching.add_right(row_id, neighbors)
        self._pending_removed.clear()
        self._pending_added.clear()

    def _handle_free_row(self, label: str) -> None:
        """A template row stayed free after augmentation: insert or shuffle."""
        template_row = self._template_row(label)
        candidate_value = template_row.equality_values()
        if hypothetical_row_probable(self.replica.table, candidate_value):
            row_id = self._insert_row_for(template_row)
            self._record("insert", label, f"row {row_id}")
            return
        # Shuffle: maybe another template row can give up its probable row.
        for other in self.template_rows:
            if other.label == label:
                continue
            if self.matching.matched_right(other.label) is None:
                continue
            other_value = other.equality_values()
            if not hypothetical_row_probable(self.replica.table, other_value):
                continue
            if self.matching.try_free_instead(label, other.label):
                row_id = self._insert_row_for(other)
                self._record("shuffle", label, f"freed {other.label}, row {row_id}")
                return
        # Last resort: drop the template row (or error out).
        if self.on_unsatisfiable == "error":
            raise UnsatisfiableTemplateError(template_row)
        self.template_rows = [
            row for row in self.template_rows if row.label != label
        ]
        self.dropped_rows.append(template_row)
        self.matching.remove_left(label)
        self._record("drop", label, str(template_row))

    def _insert_row_for(self, template_row: TemplateRow) -> str:
        """Insert a row pre-filled with the template row's equality values.

        Returns the identifier of the resulting (possibly partial) row.
        """
        insert_message = self.replica.insert()
        self._send(insert_message)
        self.stats.inserts += 1
        if self.obs.enabled:
            self.obs.inc("cc.inserts")
        row_id = insert_message.row_id
        for column in self.schema.column_names:
            predicate = template_row.predicate_for(column)
            if predicate is not None and predicate.is_equality:
                replace_message = self.replica.fill(
                    row_id, column, predicate.operand
                )
                self._send(replace_message)
                row_id = replace_message.new_id
        return row_id

    def _record(self, kind: str, label: str, detail: str) -> None:
        if kind == "insert":
            pass  # insert count tracked in _insert_row_for
        elif kind == "shuffle":
            self.stats.shuffles += 1
        elif kind == "drop":
            self.stats.drops += 1
        self.stats.events.append(
            PriEvent(kind=kind, template_label=label, detail=detail,
                     time=self._clock())
        )
        if self.obs.enabled:
            if kind == "shuffle":
                self.obs.inc("cc.shuffles")
            elif kind == "drop":
                self.obs.inc("cc.drops")
            self.obs.event(
                "cc.pri", kind=kind, template_label=label, detail=detail
            )
