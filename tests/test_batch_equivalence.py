"""Batched application and columnar votes are invisible optimizations.

Three layers of evidence, each against an independent oracle:

- ``CandidateTable.apply_batch`` over a random message stream must be
  indistinguishable — state snapshots, vote histories, probable/final
  views, epoch counters, and probable-journal deltas — from applying
  the same messages one at a time.
- ``VoteColumns`` (dense arrays over interned value ids) must tally
  exactly like the dict-of-dicts bookkeeping it replaced, including the
  subset-sum that drives downvote inheritance (Lemma 3's d(r)).
- A ``BackendServer`` with ``max_batch=64`` must emit the same trace
  and broadcast stream as one with ``max_batch=1`` fed the identical
  message sequence.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import WorkerClient
from repro.constraints import Template
from repro.core import CandidateTable, RowValue, ThresholdScoring
from repro.core.intern import ValueInterner
from repro.core.messages import (
    DownvoteMessage,
    ReplaceMessage,
    UndoDownvoteMessage,
    UndoUpvoteMessage,
    UpvoteMessage,
)
from repro.core.schema import Column, DataType, Schema, soccer_player_schema
from repro.core.votes import VoteColumns
from repro.net import ConstantLatency, Network
from repro.server import BackendServer
from repro.sim import RngStreams, Simulator

SCHEMA = Schema(
    name="P",
    columns=(Column("k", DataType.INT), Column("v", DataType.INT)),
    primary_key=("k",),
)
SCORING = ThresholdScoring(2)

# -- strategies ----------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["replace", "upvote", "downvote", "undo_upvote", "undo_downvote"]
        ),
        st.integers(0, 7),  # row pick (mod current size)
        st.integers(0, 2),  # k
        st.integers(0, 2),  # v
    ),
    max_size=60,
)

batch_sizes = st.integers(1, 8)


def _build_messages(sequence):
    """Turn an abstract op list into a concrete, always-valid message
    stream by resolving ids and undo preconditions against a scratch
    table applied sequentially (the same order both tables replay)."""
    scratch = CandidateTable(SCHEMA, SCORING)
    messages = []
    counter = 0
    for kind, pick, k_val, v_val in sequence:
        value = RowValue({"k": k_val, "v": v_val})
        partial = RowValue({"k": k_val}) if pick % 2 else value
        if kind == "replace":
            counter += 1
            row_ids = scratch.row_ids()
            old = row_ids[pick % len(row_ids)] if row_ids else "ghost"
            old_value = (
                scratch.row(old).value if old in scratch else RowValue()
            )
            missing = old_value.missing_columns(("k", "v"))
            if not missing:
                continue
            column = missing[0]
            filled = k_val if column == "k" else v_val
            message = ReplaceMessage(
                old_id=old,
                new_id=f"r{counter}",
                value=old_value.with_value(column, filled),
                column=column,
                filled_value=filled,
            )
        elif kind == "upvote":
            message = UpvoteMessage(value=value)
        elif kind == "downvote":
            message = DownvoteMessage(value=partial)
        elif kind == "undo_upvote":
            if not scratch.upvote_history.get(value, 0):
                continue
            message = UndoUpvoteMessage(value=value)
        else:
            if not scratch.downvote_history.get(partial, 0):
                continue
            message = UndoDownvoteMessage(value=partial)
        message.apply(scratch)
        messages.append(message)
    return messages


def _observe(table):
    """Everything a consumer can see, as one comparable tuple."""
    return (
        table.snapshot(),
        table.history_snapshot(),
        sorted(row.row_id for row in table.probable_rows()),
        [(row.row_id, dict(row.value)) for row in table.final_rows()],
        table.probable_epoch,
        table.final_epoch,
    )


def _drain_ids(table, token):
    added, removed, full = table.drain_probable_delta(token)
    return [row.row_id for row in added], list(removed), full


def _assert_batch_equivalent(sequence, batch):
    messages = _build_messages(sequence)
    sequential = CandidateTable(SCHEMA, SCORING)
    batched = CandidateTable(SCHEMA, SCORING)
    seq_token = sequential.register_probable_consumer()
    bat_token = batched.register_probable_consumer()
    assert _drain_ids(sequential, seq_token) == _drain_ids(
        batched, bat_token
    )  # both start with a full resync

    remaining = list(messages)
    while remaining:
        window = remaining[:batch]
        applied = batched.apply_batch(window)
        assert 1 <= applied <= len(window)
        # Replay exactly the applied prefix one message at a time,
        # refreshing (via a view query) after each — the cadence
        # apply_batch promises to be indistinguishable from.
        seq_added, seq_removed = [], []
        for message in remaining[:applied]:
            message.apply(sequential)
            sequential.probable_rows()
            added, removed, full = _drain_ids(sequential, seq_token)
            assert not full
            seq_added.extend(added)
            seq_removed.extend(removed)
        bat_added, bat_removed, bat_full = _drain_ids(batched, bat_token)
        assert not bat_full
        # At most the window's last message moved membership, so the
        # concatenated per-message deltas equal the window's delta.
        assert (seq_added, seq_removed) == (bat_added, bat_removed)
        assert _observe(sequential) == _observe(batched)
        remaining = remaining[applied:]

    assert _observe(sequential) == _observe(batched)
    sequential.check_vote_invariants()
    batched.check_vote_invariants()


@settings(max_examples=60, deadline=None)
@given(ops, batch_sizes)
def test_apply_batch_matches_sequential_application(sequence, batch):
    _assert_batch_equivalent(sequence, batch)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(ops, batch_sizes)
def test_apply_batch_matches_sequential_application_heavy(sequence, batch):
    _assert_batch_equivalent(sequence, batch)


@settings(max_examples=40, deadline=None)
@given(ops)
def test_apply_batch_full_stream_no_stops(sequence):
    """Without stop_on_view_change, one call applies everything and the
    terminal state still matches the sequential replay."""
    messages = _build_messages(sequence)
    sequential = CandidateTable(SCHEMA, SCORING)
    for message in messages:
        message.apply(sequential)
    batched = CandidateTable(SCHEMA, SCORING)
    remaining = list(messages)
    while remaining:
        applied = batched.apply_batch(remaining, stop_on_view_change=False)
        assert applied == len(remaining)
        remaining = remaining[applied:]
    assert sequential.snapshot() == batched.snapshot()
    assert sequential.history_snapshot() == batched.history_snapshot()
    assert sorted(r.row_id for r in sequential.probable_rows()) == sorted(
        r.row_id for r in batched.probable_rows()
    )
    assert [r.value for r in sequential.final_rows()] == [
        r.value for r in batched.final_rows()
    ]


# -- VoteColumns vs the dict-of-dicts oracle ------------------------------

vote_values = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 2),
    max_size=3,
).map(RowValue)

vote_ops = st.lists(
    st.tuples(
        st.sampled_from(["up", "down", "undo_up", "undo_down"]),
        vote_values,
    ),
    max_size=50,
)


# Values over a two-valued "p" column beside the wider a/b/c columns:
# downvoted values pile onto the p cells, so anchor counts collide and tie.
anchored_vote_ops = st.lists(
    st.tuples(
        st.sampled_from(["up", "down", "undo_up", "undo_down"]),
        st.fixed_dictionaries(
            {},
            optional={
                "a": st.integers(0, 4),
                "b": st.integers(0, 2),
                "c": st.integers(0, 2),
                "p": st.sampled_from(["FW", "DF"]),
            },
        ).map(RowValue),
    ),
    max_size=80,
)


@settings(max_examples=100, deadline=None)
@given(anchored_vote_ops, st.randoms(use_true_random=False))
def test_vote_columns_match_dict_oracle(sequence, rng):
    interner = ValueInterner()
    votes = VoteColumns(interner)
    oracle_up: dict[RowValue, int] = {}
    oracle_down: dict[RowValue, int] = {}
    for kind, value in sequence:
        vid = interner.intern(value)
        if kind == "up":
            votes.up_add(vid)
            oracle_up[value] = oracle_up.get(value, 0) + 1
        elif kind == "down":
            votes.down_add(vid)
            oracle_down[value] = oracle_down.get(value, 0) + 1
        elif kind == "undo_up":
            if not oracle_up.get(value, 0):
                continue
            votes.up_add(vid, -1)
            oracle_up[value] -= 1
        else:
            if not oracle_down.get(value, 0):
                continue
            votes.down_add(vid, -1)
            oracle_down[value] -= 1
    for value, count in oracle_up.items():
        assert votes.up_count(interner.intern(value)) == count
    for value, count in oracle_down.items():
        assert votes.down_count(interner.intern(value)) == count
    # Bootstrap and checkpoint restore rebuild DH through down_set, in
    # the snapshot's order, so a restored copy may anchor differently.
    restored_interner = ValueInterner()
    restored = VoteColumns(restored_interner)
    entries = list(oracle_down.items())
    rng.shuffle(entries)
    for value, count in entries:
        restored.down_set(restored_interner.intern(value), count)
    # Lemma 3's d(r): the anchored subset-sum equals brute-force
    # subsumption over the whole downvote history, on both copies.
    queries = {value for _, value in sequence} | {RowValue()}
    for query in queries:
        brute = sum(
            count
            for value, count in oracle_down.items()
            if query.subsumes(value)
        )
        assert votes.subset_sum(interner.intern(query)) == brute
        assert restored.subset_sum(restored_interner.intern(query)) == brute


def _growth_dh(size: int) -> tuple[ValueInterner, VoteColumns]:
    """A DH of *size* named values (unique name, one of 4 positions, one
    of 7 nationalities), with a low-cardinality value every tenth."""
    positions = ["GK", "DF", "MF", "FW"]
    low = [
        RowValue(cells)
        for p in positions
        for n in range(7)
        for cells in ({"position": p}, {"nat": n}, {"position": p, "nat": n})
    ]
    interner = ValueInterner()
    votes = VoteColumns(interner)
    for i in range(size):
        position, nat = positions[i % 4], i % 7
        cells = {"name": f"n{i}", "position": position, "nat": nat}
        if i % 3 == 0:
            del cells["nat"]
        elif i % 3 == 1:
            del cells["position"]
        votes.down_add(interner.intern(RowValue(cells)))
        if i % 10 == 0:
            votes.down_add(interner.intern(low[(i // 10) % len(low)]))
    return interner, votes


def test_subset_sum_examines_constant_entries_as_dh_doubles(monkeypatch):
    """Growth witness: the entries a subset sum examines (one
    ``cell_set`` call each, past the query's own) stay flat as DH
    doubles (about 7 per query at both sizes), where walking every
    cell's full posting list grows with DH (262 -> 512)."""
    calls = [0]
    original = ValueInterner.cell_set

    def counting(self, vid):
        calls[0] += 1
        return original(self, vid)

    examined = []
    for size in (1000, 2000):
        interner, votes = _growth_dh(size)
        queries = [
            RowValue({"name": f"n{i}", "position": p, "nat": i % 7})
            for i in range(0, size + 100, 10)
            for p in ("DF", "FW")
        ]
        vids = [interner.intern(query) for query in queries]
        calls[0] = 0
        monkeypatch.setattr(ValueInterner, "cell_set", counting)
        for vid in vids:
            votes.subset_sum(vid)
        monkeypatch.setattr(ValueInterner, "cell_set", original)
        examined.append((calls[0] - len(vids)) / len(vids))
    assert all(per_query < 10 for per_query in examined), examined


@settings(max_examples=60, deadline=None)
@given(vote_ops)
def test_history_views_equal_oracle_mappings(sequence):
    """The MutableMapping facade over VoteColumns behaves like the old
    dicts: first-write iteration order, zero entries retained."""
    table = CandidateTable(SCHEMA, SCORING)
    oracle_up: dict[RowValue, int] = {}
    oracle_down: dict[RowValue, int] = {}
    for kind, value in sequence:
        if kind == "up":
            table.upvote_history[value] = (
                table.upvote_history.get(value, 0) + 1
            )
            oracle_up[value] = oracle_up.get(value, 0) + 1
        elif kind == "down":
            table.downvote_history[value] = (
                table.downvote_history.get(value, 0) + 1
            )
            oracle_down[value] = oracle_down.get(value, 0) + 1
        elif kind == "undo_up":
            if not oracle_up.get(value, 0):
                continue
            table.upvote_history[value] -= 1
            oracle_up[value] -= 1
        else:
            if not oracle_down.get(value, 0):
                continue
            table.downvote_history[value] -= 1
            oracle_down[value] -= 1
    assert dict(table.upvote_history) == oracle_up
    assert dict(table.downvote_history) == oracle_down
    assert list(table.upvote_history) == list(oracle_up)
    assert list(table.downvote_history) == list(oracle_down)


# -- server level: max_batch=1 vs max_batch=64 ----------------------------


def _soccer_stream(n_rows=30, votes=200):
    """A seeded replace-then-vote stream (same shape as the benches)."""
    rng = random.Random(11)
    messages = [
        ReplaceMessage(
            old_id=f"old{i}",
            new_id=f"r{i}",
            value=RowValue({
                "name": f"Player {i}",
                "nationality": f"Country {i % 5}",
                "position": ["GK", "DF", "MF", "FW"][i % 4],
                "caps": 80 + i % 20,
                "goals": i % 40,
            }),
            column="name",
            filled_value=f"Player {i}",
        )
        for i in range(n_rows)
    ]
    up_counts: dict[int, int] = {}
    for _ in range(votes):
        i = rng.randrange(n_rows)
        value = RowValue({
            "name": f"Player {i}",
            "nationality": f"Country {i % 5}",
            "position": ["GK", "DF", "MF", "FW"][i % 4],
            "caps": 80 + i % 20,
            "goals": i % 40,
        })
        roll = rng.random()
        if roll < 0.45:
            messages.append(UpvoteMessage(value=value))
            up_counts[i] = up_counts.get(i, 0) + 1
        elif roll < 0.9:
            messages.append(
                DownvoteMessage(value=RowValue({"name": f"Player {i}"}))
            )
        elif up_counts.get(i, 0):
            messages.append(UndoUpvoteMessage(value=value))
            up_counts[i] -= 1
        else:
            messages.append(UpvoteMessage(value=value))
            up_counts[i] = up_counts.get(i, 0) + 1
    return messages


def test_server_batched_drain_matches_per_message_drain():
    """max_batch=64 and max_batch=1 servers fed the same stream agree on
    the trace, the master replica, and the serialized broadcast bytes."""
    outcomes = []
    for max_batch in (1, 64):
        sim = Simulator()
        network = Network(
            sim,
            default_latency=ConstantLatency(0.01),
            streams=RngStreams(0),
        )
        template = Template.from_values(
            [{"name": f"Target {k}"} for k in range(3)]
        )
        schema = soccer_player_schema()
        backend = BackendServer(
            sim, network, schema, SCORING, template, max_batch=max_batch
        )
        observer = WorkerClient(
            "observer", schema, SCORING, network, streams=RngStreams(1)
        )
        observer.bootstrap(backend.attach_client("observer"))
        seen = []
        observer.add_listener(seen.append)
        backend.start()
        sim.run()
        backend.ingest("w1", _soccer_stream())
        sim.run()
        wire = json.dumps(
            [message.to_dict() for message in seen], sort_keys=True
        )
        outcomes.append(
            (
                [
                    (rec.seq, rec.timestamp, rec.worker_id, rec.message)
                    for rec in backend.trace
                ],
                backend.replica.snapshot(),
                observer.snapshot(),
                wire,
                [dict(row.value) for row in backend.final_rows()],
            )
        )
    assert outcomes[0] == outcomes[1]
