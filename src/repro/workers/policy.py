"""Worker decision policies.

A policy inspects the worker's *view* — the client's randomized local
copy of the candidate table — and picks one action, exactly as a human
contributor picks their next click.  The good-faith
:class:`DiligentPolicy` votes on rows it can assess and fills cells it
knows, preferring nearly-complete rows; it avoids starting entities
already present in the table (the transparency advantage the paper's
introduction highlights).  :class:`SpammerPolicy` and
:class:`CopierPolicy` model the adversarial behaviours discussed in
paper section 8.
"""

from __future__ import annotations

import random
import string
from typing import Any, Protocol, runtime_checkable

from repro.client import WorkerClient
from repro.core.row import Row, RowValue
from repro.core.schema import DataType, Schema
from repro.datasets.ground_truth import GroundTruth
from repro.workers.actions import (
    Action,
    DownvoteAction,
    FillAction,
    IdleAction,
    UpvoteAction,
)
from repro.workers.errors import corrupt_value
from repro.workers.profile import WorkerProfile


@runtime_checkable
class WorkerPolicy(Protocol):
    """Chooses the worker's next action from the current view."""

    def choose(self, client: WorkerClient, rng: random.Random) -> Action:
        """Pick one action (possibly :class:`IdleAction`)."""
        ...


class DiligentPolicy:
    """A good-faith worker backed by partial knowledge of the truth.

    Args:
        knowledge: the subset of the ground truth this worker knows.
        profile: behavioural knobs (accuracy, vote affinity, ...).
        reference: the full eligible-population truth the worker can
            consult externally — the paper's task concerned soccer
            players "whose information is readily available" online, so
            a worker confronted with an unfamiliar name can check it.
            ``profile.suspect_unknown_prob`` is the probability the
            worker bothers to look a row up.  None disables lookups.
    """

    def __init__(
        self,
        knowledge: GroundTruth,
        profile: WorkerProfile,
        reference: GroundTruth | None = None,
    ) -> None:
        self.knowledge = knowledge
        self.profile = profile
        self.reference = reference
        self._focus_row_id: str | None = None
        # A human assesses a row once and sticks to the verdict; without
        # this memo an idle worker re-rolls its judgement-error dice
        # every cycle and a 5% error rate compounds into certainty.
        self._verdicts: dict[str, str] = {}
        # Per-value caches.  A RowValue is immutable and so is the
        # worker's knowledge, so what a value means to this worker is
        # worked out once: the known entities consistent with it (with
        # their precomputed keys), and the value's completed key and
        # started-entity signatures for the decision-wide key sets.
        self._consistent: dict[RowValue, list[tuple[tuple, RowValue]]] = {}
        self._key_facts: dict[
            RowValue, tuple[tuple | None, tuple[tuple, ...]]
        ] = {}

    def choose(self, client: WorkerClient, rng: random.Random) -> Action:
        rows = client.visible_rows()
        vote_first = rng.random() < self.profile.vote_affinity
        scans = (
            (self._choose_vote, self._choose_fill)
            if vote_first
            else (self._choose_fill, self._choose_vote)
        )
        for scan in scans:
            action = scan(client, rows, rng)
            if action is not None:
                return action
        return IdleAction()

    def fill_action_for(
        self, client: WorkerClient, row: Row, rng: random.Random
    ) -> FillAction | None:
        """A fill this worker could perform on *row*, or None.

        Public entry point used by :class:`GuidedPolicy` to direct the
        worker's knowledge at a specific recommended row.
        """
        return self._fill_for_row(
            client.schema, row, rng, _FillDecision(self, client)
        )

    def note_fill(self, client: WorkerClient, new_row_id: str) -> None:
        """Called after a successful fill: keep working this row until
        it is complete (humans finish the entry they started, and a
        worker never conflicts with itself)."""
        row = client.row(new_row_id)
        if row is not None and not row.value.is_complete(
            client.schema.column_names
        ):
            self._focus_row_id = new_row_id
        else:
            self._focus_row_id = None

    # -- voting ------------------------------------------------------------

    def _choose_vote(
        self, client: WorkerClient, rows: list[Row], rng: random.Random
    ) -> Action | None:
        if self.profile.vote_affinity == 0:
            return None  # this worker never votes (the paper's 3rd worker)
        schema = client.schema
        for row in rows:
            if not client.can_vote(row.row_id):
                continue
            # Endorsements go where they are still needed: a row whose
            # score is already positive is accepted, and upvoting it
            # further is wasted effort a worker can see in the UI.
            score = client.replica.table.score(row)
            verdict = self._verdicts.get(row.row_id)
            if verdict is not None and score <= 0 and rng.random() < 0.05:
                # A row lingering at a non-positive score is going
                # nowhere; occasionally a worker takes a second look.
                # (Re-examination is rare and limited to stuck rows so
                # judgement noise cannot compound against settled ones.)
                verdict = None
            if verdict is None:
                verdict = self._judge(schema, row.value, rng)
                if verdict in ("correct", "wrong"):
                    self._verdicts[row.row_id] = verdict
            if verdict == "correct":
                if (
                    score <= 0
                    and row.value.is_complete(schema.column_names)
                    and client.can_upvote(row.row_id)
                ):
                    return UpvoteAction(row.row_id)
            elif verdict == "wrong":
                return DownvoteAction(row.row_id)
        return None

    def _judge(
        self, schema: Schema, value: RowValue, rng: random.Random
    ) -> str:
        """'correct', 'wrong', or 'unsure' about a row's current value."""
        key = value.key(schema.key_columns)
        if key is not None:
            known = self.knowledge.by_key(key)
            if known is None and self.reference is not None:
                # An unfamiliar name with a complete key: the worker may
                # look it up externally.  A miss there is a fabricated
                # entity and gets refuted confidently.
                if rng.random() < self.profile.suspect_unknown_prob:
                    known = self.reference.by_key(key)
                    if known is None:
                        return "wrong"
            if known is not None:
                truly_ok = known.subsumes(value)
                judged_ok = (
                    truly_ok
                    if rng.random() < self.profile.judgement_accuracy
                    else not truly_ok
                )
                return "correct" if judged_ok else "wrong"
            return "unsure"
        # Partial key: refutable only via an external consistency check
        # (e.g. "no Brazilian forward has 212 caps").
        if (
            not value.is_empty
            and self.reference is not None
            and rng.random() < self.profile.suspect_unknown_prob * 0.5
            and not self.reference.is_consistent(value)
            and not self.knowledge.is_consistent(value)
        ):
            return "wrong"
        return "unsure"

    # -- filling ------------------------------------------------------------

    def _choose_fill(
        self, client: WorkerClient, rows: list[Row], rng: random.Random
    ) -> Action | None:
        schema = client.schema
        columns = schema.column_names
        decision = _FillDecision(self, client)

        # First choice: continue the row this worker is already filling.
        # Each worker working "their" row is what keeps concurrent
        # workers from colliding on the same cell.
        if self._focus_row_id is not None:
            focus = client.row(self._focus_row_id)
            if focus is not None and not focus.value.is_complete(columns):
                action = self._fill_for_row(schema, focus, rng, decision)
                if action is not None:
                    return action
            self._focus_row_id = None

        # Otherwise scan in this client's randomized presentation order:
        # rows that already pin an entity the worker knows come first
        # (they are closest to paying off), then rows needing a fresh
        # entity (empty rows or template-constrained ones).
        identified: list[FillAction] = []
        fresh: list[FillAction] = []
        fallback: FillAction | None = None
        for row in rows:
            if row.value.is_complete(columns):
                continue
            action = self._fill_for_row(schema, row, rng, decision)
            if action is None:
                continue
            key = row.value.key(schema.key_columns)
            if key is not None and key in decision.key_sets()[0]:
                fallback = fallback or action
                continue
            pins_entity = not row.value.filled_columns().isdisjoint(
                schema.key_columns
            )
            if pins_entity:
                identified.append(action)
            else:
                fresh.append(action)
            if identified:
                break  # first identified row in random order wins
        if identified:
            return identified[0]
        if fresh:
            return fresh[0]
        return fallback

    def _fill_for_row(
        self,
        schema: Schema,
        row: Row,
        rng: random.Random,
        decision: "_FillDecision",
    ) -> FillAction | None:
        consistent = self._consistent_with(row.value)
        if not consistent:
            return None  # cannot help with this row
        if len(consistent) == 1 and not row.value.filled_columns().isdisjoint(
            schema.key_columns
        ):
            entity = consistent[0][1]
        else:
            # The row does not pin a unique entity yet (empty row, only
            # non-key constraints, or an ambiguous key like a city name
            # that exists in several countries): prefer a known entity
            # nobody has started, but fall back to any consistent,
            # not-yet-completed one — an ambiguous row someone began
            # must still be completable, or it wedges its template slot.
            completed_keys, started = decision.key_sets()
            unstarted = decision.unstarted.get(row.value)
            if unstarted is None:
                unstarted = decision.unstarted[row.value] = [
                    candidate
                    for key, candidate in consistent
                    if key not in started and key not in completed_keys
                ]
            if unstarted:
                entity = rng.choice(unstarted)
            elif not row.value.is_empty:
                viable = [
                    candidate
                    for key, candidate in consistent
                    if key not in completed_keys
                ]
                if not viable:
                    return None
                entity = rng.choice(viable)
            else:
                return None
        column = self._next_column(schema, row.value)
        if column is None:
            return None
        true_value = entity[column]
        if rng.random() < self.profile.fill_accuracy:
            value: Any = true_value
        else:
            value = corrupt_value(rng, schema.column(column), true_value)
        return FillAction(row.row_id, column, value)

    def _next_column(self, schema: Schema, value: RowValue) -> str | None:
        """Key columns first (they identify the entity), then the rest."""
        missing = value.missing_columns(schema.column_names)
        for column in schema.key_columns:
            if column in missing:
                return column
        return missing[0] if missing else None

    def _consistent_with(self, value: RowValue) -> list[tuple[tuple, RowValue]]:
        """(key, entity) for the known entities consistent with *value*."""
        consistent = self._consistent.get(value)
        if consistent is None:
            consistent = self._consistent[value] = (
                self.knowledge.lookup_consistent_keyed(value)
            )
        return consistent

    def _key_sets(self, client: WorkerClient) -> tuple[set[tuple], set[tuple]]:
        """(keys of complete rows, started-entity signatures) of the
        client's table.

        An entity counts as "started" when some row's filled key
        columns all match it — workers avoid duplicating an in-progress
        entity, the transparency advantage of table-filling.  Both sets
        are unions of per-value facts, each computed once per value.
        """
        schema = client.schema
        completed: set[tuple] = set()
        started: set[tuple] = set()
        facts_of = self._key_facts
        table = client.replica.table
        for row in table.rows():
            facts = facts_of.get(row.value)
            if facts is None:
                facts = facts_of[row.value] = self._value_key_facts(
                    schema, row.value
                )
            completed_key, signatures = facts
            if completed_key is not None:
                completed.add(completed_key)
            if signatures:
                started.update(signatures)
        if len(facts_of) > 1.25 * len(table):
            # Replaced rows leave the table: drop what their values
            # cached, so the caches grow with the table, not its history.
            present = {row.value: facts_of[row.value] for row in table.rows()}
            self._key_facts = present
            self._consistent = {
                value: consistent
                for value, consistent in self._consistent.items()
                if value in present
            }
        return completed, started

    def _value_key_facts(
        self, schema: Schema, value: RowValue
    ) -> tuple[tuple | None, tuple[tuple, ...]]:
        """*value*'s key when the value is complete (else None), and the
        keys of the known entities its filled key columns match."""
        completed_key = (
            value.key(schema.key_columns)
            if value.is_complete(schema.column_names)
            else None
        )
        filled = value.filled_columns()
        key_filled = [c for c in schema.key_columns if c in filled]
        if not key_filled:
            return completed_key, ()
        partial = RowValue({c: value[c] for c in key_filled})
        return completed_key, tuple(
            key for key, _ in self._consistent_with(partial)
        )


class _FillDecision:
    """One fill decision's view of the client table.

    The table does not change within a decision, so its completed and
    started key sets are built at most once — and only if a row needs
    them (continuing a row that pins its entity does not) — and rows
    sharing a value (every empty row, say) share one ``unstarted`` list.
    """

    __slots__ = ("_policy", "_client", "_key_sets", "unstarted")

    def __init__(self, policy: DiligentPolicy, client: WorkerClient) -> None:
        self._policy = policy
        self._client = client
        self._key_sets: tuple[set[tuple], set[tuple]] | None = None
        self.unstarted: dict[RowValue, list[RowValue]] = {}

    def key_sets(self) -> tuple[set[tuple], set[tuple]]:
        """(keys of complete rows, started-entity signatures)."""
        if self._key_sets is None:
            self._key_sets = self._policy._key_sets(self._client)
        return self._key_sets


class GuidedPolicy:
    """A diligent worker that follows the server's cell recommendations.

    Wraps a :class:`DiligentPolicy`: each cycle it first asks the
    recommender (see :mod:`repro.server.recommender`) where help is
    most needed; if the worker can actually contribute to the
    recommended row it does so, otherwise it falls back to its own
    judgement.  This is the section 8 "guide workers to fill in
    different parts of the table" strategy.
    """

    def __init__(self, inner: DiligentPolicy, recommender, worker_id: str) -> None:
        self.inner = inner
        self.recommender = recommender
        self.worker_id = worker_id

    def choose(self, client: WorkerClient, rng: random.Random) -> Action:
        recommendation = self.recommender.recommend_for(self.worker_id)
        if recommendation is not None:
            action = self._try_recommended(client, rng, recommendation)
            if action is not None:
                return action
        return self.inner.choose(client, rng)

    def note_fill(self, client: WorkerClient, new_row_id: str) -> None:
        self.inner.note_fill(client, new_row_id)

    def _try_recommended(
        self, client: WorkerClient, rng: random.Random, recommendation
    ) -> Action | None:
        row_id = client.resolve_row(recommendation.row_id)
        row = client.row(row_id)
        if row is None or row.value.is_complete(client.schema.column_names):
            return None
        action = self.inner.fill_action_for(client, row, rng)
        if action is None:
            # Cannot help with this row (unknown entity): hand the row
            # back so the server can advise someone who can.
            self.recommender.decline(self.worker_id)
        return action


class SpammerPolicy:
    """Enters fast, random garbage (paper section 8's spammer threat).

    Never votes; picks any empty cell and fabricates a type-valid value.
    """

    def choose(self, client: WorkerClient, rng: random.Random) -> Action:
        schema = client.schema
        for row in client.visible_rows():
            missing = row.value.missing_columns(schema.column_names)
            if not missing:
                continue
            column = rng.choice(missing)
            return FillAction(row.row_id, column, self._garbage(schema, column, rng))
        return IdleAction()

    def _garbage(self, schema: Schema, column_name: str, rng: random.Random) -> Any:
        column = schema.column(column_name)
        if column.domain is not None:
            return rng.choice(sorted(column.domain, key=repr))
        if column.dtype is DataType.INT:
            return rng.randint(0, 250)
        if column.dtype is DataType.FLOAT:
            return rng.uniform(0, 250)
        if column.dtype is DataType.BOOL:
            return rng.random() < 0.5
        if column.dtype is DataType.DATE:
            return f"{rng.randint(1950, 2010)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        length = rng.randint(4, 10)
        return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


class CopierPolicy:
    """Blind-upvotes others' complete rows to steal vote credit
    (paper section 8's credit-copying threat).  Falls back to idling."""

    def choose(self, client: WorkerClient, rng: random.Random) -> Action:
        for row in client.visible_rows():
            if client.can_upvote(row.row_id):
                return UpvoteAction(row.row_id)
        return IdleAction(retry_after=6.0)
