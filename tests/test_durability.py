"""Unit tests for repro.durability: the WAL record codec, the
newline-framed durable log (including torn tails and mid-log
corruption), and cut-addressed checkpoints."""

import json

import pytest

from repro.cdc.events import Cut
from repro.core.messages import (
    InsertMessage,
    ReplaceMessage,
    UpvoteMessage,
)
from repro.core.row import RowValue
from repro.durability import (
    DurabilityConfig,
    DurableLog,
    DurableStore,
    WalCorruptionError,
    WalPosition,
    WalRecord,
    decode_checkpoint,
    encode_checkpoint,
    wal_record_from_dict,
)
from repro.server.backend import BootstrapState


def make_record(lseq=0, shard_id=0, worker="w0", timestamp=1.5):
    return WalRecord(
        shard_id=shard_id,
        lseq=lseq,
        worker_id=worker,
        timestamp=timestamp,
        message=ReplaceMessage(
            old_id=f"r{lseq}",
            new_id=f"r{lseq + 1}",
            value=RowValue({"name": "Xavi", "team": "Barcelona"}),
            column="team",
            filled_value="Barcelona",
        ),
    )


# -- WalRecord codec ---------------------------------------------------------


def test_wal_record_round_trips_and_builds_fresh_objects():
    record = make_record()
    document = json.loads(json.dumps(record.to_dict()))
    rebuilt = wal_record_from_dict(document)
    assert rebuilt == record
    assert rebuilt.message is not record.message


def test_wal_record_round_trips_every_message_kind():
    messages = [
        InsertMessage(row_id="r1"),
        UpvoteMessage(value=RowValue({"name": "Xavi"}), auto=True),
    ]
    for message in messages:
        record = WalRecord(
            shard_id=2, lseq=7, worker_id="w3", timestamp=9.25,
            message=message,
        )
        assert wal_record_from_dict(record.to_dict()) == record


# -- DurableLog --------------------------------------------------------------


def test_log_replay_returns_records_in_append_order():
    log = DurableLog()
    records = [make_record(lseq=i) for i in range(5)]
    for record in records:
        log.append(record)
    replayed, torn = log.replay()
    assert replayed == records
    assert torn == 0
    assert log.records_appended == 5


def test_log_discards_torn_tail_silently():
    log = DurableLog()
    log.append(make_record(lseq=0))
    size_one = log.size_bytes
    log.append(make_record(lseq=1))
    # Tear the second record mid-write: everything after its first byte.
    log.truncate_tail(log.size_bytes - size_one - 1)
    replayed, torn = log.replay()
    assert [r.lseq for r in replayed] == [0]
    assert torn > 0


def test_log_tearing_the_whole_last_record_is_a_clean_log():
    log = DurableLog()
    log.append(make_record(lseq=0))
    size_one = log.size_bytes
    log.append(make_record(lseq=1))
    log.truncate_tail(log.size_bytes - size_one)  # exactly at the frame
    replayed, torn = log.replay()
    assert [r.lseq for r in replayed] == [0]
    assert torn == 0


def test_truncate_tail_uncounts_the_records_it_tears():
    """Tearing into a record's terminating newline takes it out of
    ``records_appended``, which stays the number of records replayed."""
    log = DurableLog()
    log.append(make_record(lseq=0))
    log.append(make_record(lseq=1))
    log.truncate_tail(5)
    replayed, torn = log.replay()
    assert [r.lseq for r in replayed] == [0]
    assert torn > 0
    assert log.records_appended == 1


def test_truncate_tail_validates_bounds():
    log = DurableLog()
    log.append(make_record())
    with pytest.raises(ValueError):
        log.truncate_tail(-1)
    with pytest.raises(ValueError):
        log.truncate_tail(log.size_bytes + 1)
    log.truncate_tail(0)  # no-op tear is fine
    assert log.replay()[0] != []


def test_mid_log_corruption_raises():
    log = DurableLog()
    log.append(make_record(lseq=0))
    log.append(make_record(lseq=1))
    # Flip bytes inside the *terminated* first record: this is damage,
    # not a torn write, and recovery must refuse to guess.
    log._buf[5:9] = b"\xff\xff\xff\xff"
    with pytest.raises(WalCorruptionError):
        log.replay()


def test_empty_log_replays_to_nothing():
    assert DurableLog().replay() == ([], 0)


# -- positions ---------------------------------------------------------------


def test_positions_replay_in_order_with_full_records():
    log = DurableLog()
    entries = [
        make_record(lseq=0),
        WalPosition(shard_id=1, lseq=0, timestamp=2.125),
        make_record(lseq=1),
        WalPosition(shard_id=3, lseq=7, timestamp=0.1 + 0.2),
    ]
    for entry in entries:
        log.append(entry)
    assert log.replay() == (entries, 0)
    assert log.records_appended == 4


def test_a_position_is_a_few_bytes_and_keeps_its_timestamp_exactly():
    log = DurableLog()
    log.append(WalPosition(2, 41, 0.1 + 0.2))
    log.append(WalPosition(2, 42, 7))
    assert bytes(log._buf) == b"2 41 0.30000000000000004\n2 42 7\n"
    [first, second], _ = log.replay()
    assert first.timestamp == 0.1 + 0.2
    assert type(second.timestamp) is int


def test_commits_are_the_full_records_in_order_decoded_fresh():
    log = DurableLog()
    log.append(make_record(lseq=0))
    log.append(WalPosition(1, 0, 2.0))
    log.append(make_record(lseq=1))
    commits = list(log.commits())
    assert commits == [make_record(lseq=0), make_record(lseq=1)]
    assert commits[0].message is not next(log.commits()).message


def test_a_torn_position_is_discarded_like_any_tail():
    log = DurableLog()
    log.append(make_record(lseq=0))
    log.append(WalPosition(1, 5, 3.5))
    log.truncate_tail(3)
    replayed, torn = log.replay()
    assert [type(r) for r in replayed] == [WalRecord]
    assert torn > 0 and log.records_appended == 1
    assert [r.lseq for r in log.commits()] == [0]


def test_a_corrupt_position_raises():
    log = DurableLog()
    log.append(WalPosition(1, 5, 3.5))
    log.append(make_record(lseq=0))
    log._buf[0:1] = b"x"
    with pytest.raises(WalCorruptionError, match="WAL record 0"):
        log.replay()


# -- DurabilityConfig / DurableStore -----------------------------------------


def test_config_validates_interval():
    with pytest.raises(ValueError):
        DurabilityConfig(checkpoint_interval=0)
    assert DurabilityConfig().checkpoint_interval == 256


def test_store_checkpoint_cadence():
    store = DurableStore(DurabilityConfig(checkpoint_interval=3))
    assert not store.checkpoint_due
    for i in range(3):
        store.append(make_record(lseq=i))
    assert store.checkpoint_due
    store.save_checkpoint({"version": 1, "marker": "a"})
    assert not store.checkpoint_due
    assert store.checkpoints_taken == 1
    assert store.records_since_checkpoint == 0
    # The log itself is never truncated by a checkpoint.
    assert store.log.records_appended == 3


def _due_points(store, records):
    """Append *records* WAL records, checkpointing whenever one comes
    due (as a drain boundary after every record would); return the
    appended counts at which checkpoints were taken."""
    points = []
    for lseq in range(records):
        store.append(make_record(lseq=lseq))
        if store.checkpoint_due:
            store.save_checkpoint({"version": 1})
            points.append(store.log.records_appended)
    return points


def test_store_checkpoint_cadence_is_geometric():
    """A checkpoint comes due once the suffix since the last one
    reaches max(interval, records the last one covered): at interval 3
    that is at 3, 6, 12 and 24 appended records."""
    store = DurableStore(DurabilityConfig(checkpoint_interval=3))
    assert _due_points(store, 47) == [3, 6, 12, 24]
    assert store.records_covered == 24
    assert store.records_since_checkpoint == 23
    assert not store.checkpoint_due
    store.append(make_record(lseq=47))
    assert store.checkpoint_due


def test_store_checkpoint_count_is_logarithmic():
    """10,000 records at the default interval of 256 take exactly six
    checkpoints (256, 512, ..., 8192), not 39."""
    store = DurableStore(DurabilityConfig(checkpoint_interval=256))
    assert _due_points(store, 10_000) == [256, 512, 1024, 2048, 4096, 8192]
    assert store.checkpoints_taken == 6


def test_store_seeded_checkpoint_keeps_the_minimum_gap():
    """A checkpoint saved before any append (a seeded follower's
    baseline) covers nothing, so the next one is due at the interval."""
    store = DurableStore(DurabilityConfig(checkpoint_interval=4))
    store.save_checkpoint({"version": 1})
    assert store.records_covered == 0
    assert _due_points(store, 9) == [4, 8]


def test_store_checkpoint_cadence_after_a_tear():
    """A record torn off the WAL no longer counts toward the next
    checkpoint: the suffix since the last one is what the log holds."""
    store = DurableStore(DurabilityConfig(checkpoint_interval=3))
    assert _due_points(store, 3) == [3]
    store.append(make_record(lseq=3))
    before = store.log.size_bytes
    store.append(make_record(lseq=4))
    assert store.records_since_checkpoint == 2
    store.log.truncate_tail(store.log.size_bytes - before)
    assert store.records_since_checkpoint == 1
    store.append(make_record(lseq=4))
    assert not store.checkpoint_due
    store.append(make_record(lseq=5))
    assert store.checkpoint_due


def test_store_load_checkpoint_builds_fresh_document():
    store = DurableStore()
    assert store.load_checkpoint() is None
    assert not store.has_checkpoint
    document = {"version": 1, "state": {"rows": [["r1", {"a": 1}, 2, 0]]}}
    store.save_checkpoint(document)
    loaded = store.load_checkpoint()
    assert loaded == document
    assert loaded is not document
    assert store.load_checkpoint() is not loaded


# -- Checkpoint codec --------------------------------------------------------


def make_state():
    return BootstrapState(
        rows=[
            ("r1", {"name": "Xavi", "team": "Barcelona"}, 2, 0),
            ("r2", {"name": "Iniesta"}, 1, 1),
        ],
        upvote_history=[({"name": "Xavi", "team": "Barcelona"}, 2)],
        downvote_history=[({"name": "Iniesta"}, 1)],
        superseded=["r0"],
    )


def test_checkpoint_round_trip():
    cut = Cut(position=3, counts=((0, 2), (1, 1)))
    central = {"current": [["r1", 0]], "dropped": []}
    document = json.loads(
        json.dumps(encode_checkpoint(make_state(), cut, central))
    )
    state, decoded_cut, decoded_central = decode_checkpoint(document)
    assert state == make_state()
    assert decoded_cut == cut
    assert decoded_central == central


def test_checkpoint_without_central_round_trips():
    cut = Cut(position=0, counts=())
    state, decoded_cut, central = decode_checkpoint(
        encode_checkpoint(make_state(), cut)
    )
    assert state == make_state()
    assert decoded_cut == cut
    assert central is None


def test_checkpoint_rejects_unknown_version():
    document = encode_checkpoint(make_state(), Cut(position=0, counts=()))
    document["version"] = 99
    with pytest.raises(WalCorruptionError):
        decode_checkpoint(document)


def test_checkpoint_rejects_missing_keys():
    document = encode_checkpoint(make_state(), Cut(position=0, counts=()))
    del document["state"]
    with pytest.raises(WalCorruptionError):
        decode_checkpoint(document)


# -- one-pass capture and encode ----------------------------------------------


def _table_with_undone_votes_and_superseded_ids():
    from repro.core import CandidateTable, ThresholdScoring
    from repro.core.messages import (
        DownvoteMessage,
        UndoDownvoteMessage,
        UndoUpvoteMessage,
    )
    from repro.core.schema import soccer_player_schema

    table = CandidateTable(soccer_player_schema(), ThresholdScoring(2))
    xavi = RowValue({"name": "Xavi"})
    xavi_es = RowValue({"name": "Xavi", "nationality": "Spain"})
    iniesta = RowValue({"name": "Iniesta"})
    messi = RowValue({"name": "Messi"})
    for message in [
        InsertMessage(row_id="r1"),
        InsertMessage(row_id="r2"),
        InsertMessage(row_id="r3"),
        ReplaceMessage("r1", "r1a", xavi, "name", "Xavi"),
        ReplaceMessage("r1a", "r1b", xavi_es, "nationality", "Spain"),
        ReplaceMessage("r2", "r2a", iniesta, "name", "Iniesta"),
        UpvoteMessage(value=iniesta),
        UpvoteMessage(value=xavi_es),
        UpvoteMessage(value=xavi_es),
        UndoUpvoteMessage(value=iniesta),
        DownvoteMessage(value=messi),
        DownvoteMessage(value=iniesta),
        UndoDownvoteMessage(value=messi),
    ]:
        message.apply(table)
    # Undone votes stay in the histories at count 0.
    assert table.upvote_history[iniesta] == 0
    assert table.downvote_history[messi] == 0
    assert table.superseded == {"r1", "r1a", "r2"}
    return table


def _capture_by_mapping_protocol(table):
    """The capture as written before the one-pass walk: values copied
    through the generic Mapping protocol, histories read via items()."""
    return BootstrapState(
        rows=[
            (row.row_id, dict(row.value), row.upvotes, row.downvotes)
            for row in table.rows()
        ],
        upvote_history=[
            (dict(value), count)
            for value, count in table.upvote_history.items()
            if count
        ],
        downvote_history=[
            (dict(value), count)
            for value, count in table.downvote_history.items()
            if count
        ],
        superseded=sorted(table.superseded),
    )


def _encode_by_copy(state, cut, central=None):
    """The checkpoint encoder as written before it stopped copying."""
    return {
        "version": 1,
        "cut": cut.to_dict(),
        "state": {
            "rows": [
                [row_id, dict(value), upvotes, downvotes]
                for row_id, value, upvotes, downvotes in state.rows
            ],
            "upvote_history": [
                [dict(value), count] for value, count in state.upvote_history
            ],
            "downvote_history": [
                [dict(value), count] for value, count in state.downvote_history
            ],
            "superseded": list(state.superseded),
        },
        "central": central,
    }


def _checkpoint_bytes(document):
    store = DurableStore()
    store.save_checkpoint(document)
    return store._checkpoint


def test_capture_matches_the_mapping_protocol_capture():
    from types import SimpleNamespace

    table = _table_with_undone_votes_and_superseded_ids()
    replica = SimpleNamespace(table=table)
    state = BootstrapState.capture(replica)
    assert state == _capture_by_mapping_protocol(table)
    # Order matters too (the checkpoint bytes list entries in it).
    assert [v for v, _ in state.upvote_history] == [
        dict(v) for v, c in table.upvote_history.items() if c
    ]
    assert len(state.upvote_history) < len(table.upvote_history)
    assert len(state.downvote_history) < len(table.downvote_history)
    assert state.superseded == ["r1", "r1a", "r2"]


def test_nonzero_items_skips_undone_votes_in_first_write_order():
    table = _table_with_undone_votes_and_superseded_ids()
    for history in (table.upvote_history, table.downvote_history):
        assert list(history.nonzero_items()) == [
            (value, count) for value, count in history.items() if count
        ]


def test_checkpoint_bytes_match_the_copying_encoder():
    from types import SimpleNamespace

    table = _table_with_undone_votes_and_superseded_ids()
    state = BootstrapState.capture(SimpleNamespace(table=table))
    cut = Cut(position=13, counts=((0, 9), (1, 4)))
    central = {"template": [], "dropped": []}
    for args in ((state, cut, central), (state, cut, None), (make_state(), cut, None)):
        assert _checkpoint_bytes(encode_checkpoint(*args)) == _checkpoint_bytes(
            _encode_by_copy(*args)
        )
