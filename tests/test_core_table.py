"""Unit tests for the candidate table: message application, vote
histories, and final-table derivation — including the paper's section
2.2 running example."""

import pytest

from repro.core import (
    CandidateTable,
    Column,
    DataType,
    RowValue,
    Schema,
    ThresholdScoring,
)
from repro.core.schema import soccer_player_schema


@pytest.fixture
def table():
    return CandidateTable(soccer_player_schema(), ThresholdScoring(2))


def full(name, nationality, position, caps, goals):
    return RowValue(
        {
            "name": name,
            "nationality": nationality,
            "position": position,
            "caps": caps,
            "goals": goals,
        }
    )


def test_apply_insert_creates_empty_row(table):
    row = table.apply_insert("r1")
    assert row.value.is_empty
    assert row.upvotes == 0 and row.downvotes == 0
    assert "r1" in table


def test_duplicate_insert_rejected(table):
    table.apply_insert("r1")
    with pytest.raises(ValueError):
        table.apply_insert("r1")


def test_apply_replace_removes_old_and_adds_new(table):
    table.apply_insert("r1")
    table.apply_replace("r1", "r2", RowValue({"name": "Messi"}))
    assert "r1" not in table
    assert table.row("r2").value == RowValue({"name": "Messi"})


def test_apply_replace_tolerates_missing_old_row(table):
    """Concurrent replaces: the old row may already be gone."""
    table.apply_replace("ghost", "r2", RowValue({"name": "Messi"}))
    assert "r2" in table


def test_apply_replace_duplicate_new_id_rejected(table):
    table.apply_insert("r1")
    with pytest.raises(ValueError):
        table.apply_replace("ghost", "r1", RowValue({"name": "X"}))


def test_upvote_increments_all_equal_rows(table):
    value = full("Messi", "Argentina", "FW", 83, 37)
    table.apply_replace("a", "r1", value)
    table.apply_replace("b", "r2", value)
    bumped = table.apply_upvote(value)
    assert bumped == 2
    assert table.row("r1").upvotes == 1
    assert table.row("r2").upvotes == 1
    assert table.upvote_history[value] == 1


def test_downvote_hits_supersets(table):
    table.apply_replace("a", "r1", RowValue({"nationality": "Brazil"}))
    table.apply_replace(
        "b", "r2", RowValue({"nationality": "Brazil", "position": "FW"})
    )
    table.apply_replace("c", "r3", RowValue({"nationality": "Spain"}))
    bumped = table.apply_downvote(RowValue({"nationality": "Brazil"}))
    assert bumped == 2
    assert table.row("r1").downvotes == 1
    assert table.row("r2").downvotes == 1
    assert table.row("r3").downvotes == 0


def test_replace_inherits_upvotes_for_complete_value(table):
    """UH makes vote/replace interleavings order-insensitive."""
    value = full("Messi", "Argentina", "FW", 83, 37)
    table.apply_upvote(value)  # vote arrives before any row has the value
    table.apply_upvote(value)
    partial = value.without_column("goals")
    table.apply_replace("a", "r1", partial)
    assert table.row("r1").upvotes == 0  # incomplete: no inherited upvotes
    table.apply_replace("r1", "r2", value)
    assert table.row("r2").upvotes == 2  # complete: inherits UH[value]


def test_replace_inherits_downvotes_from_subsets(table):
    table.apply_downvote(RowValue({"nationality": "Brazil"}))
    table.apply_downvote(RowValue({"name": "Neymar", "nationality": "Brazil"}))
    table.apply_downvote(RowValue({"nationality": "Spain"}))
    table.apply_replace(
        "a", "r1", RowValue({"name": "Neymar", "nationality": "Brazil"})
    )
    assert table.row("r1").downvotes == 2


def test_downvote_history_delete_then_rewrite_counts_once(table):
    """A deleted DH entry that is written again is still counted once by
    the subset sum: deleting it from the mapping does not unpost it."""
    history = table.downvote_history
    history[RowValue({"nationality": "y"})] = 1
    history[RowValue({"name": "x"})] = 1
    del history[RowValue({"name": "x"})]
    history[RowValue({"name": "z", "nationality": "y"})] = 1
    history[RowValue({"name": "x"})] = 2
    query = RowValue({"name": "x", "nationality": "y"})
    assert table.downvotes_subsumed_by(query) == 3


def test_vote_invariants_hold_after_mixed_messages(table):
    value = full("Messi", "Argentina", "FW", 83, 37)
    table.apply_downvote(RowValue({"name": "Messi"}))
    table.apply_replace("a", "r1", RowValue({"name": "Messi"}))
    table.apply_replace("r1", "r2", value.without_column("goals"))
    table.apply_replace("r2", "r3", value)
    table.apply_upvote(value)
    table.check_vote_invariants()


def test_undo_upvote(table):
    value = full("Messi", "Argentina", "FW", 83, 37)
    table.apply_replace("a", "r1", value)
    table.apply_upvote(value)
    assert table.row("r1").upvotes == 1
    table.apply_undo_upvote(value)
    assert table.row("r1").upvotes == 0
    assert table.upvote_history[value] == 0
    table.check_vote_invariants()


def test_undo_upvote_without_history_rejected(table):
    with pytest.raises(ValueError):
        table.apply_undo_upvote(RowValue({"name": "X"}))


def test_undo_downvote(table):
    table.apply_replace("a", "r1", RowValue({"nationality": "Brazil"}))
    table.apply_downvote(RowValue({"nationality": "Brazil"}))
    table.apply_undo_downvote(RowValue({"nationality": "Brazil"}))
    assert table.row("r1").downvotes == 0
    table.check_vote_invariants()


def test_paper_running_example_final_table(table):
    """Section 2.2: the example candidate table yields exactly
    {Messi, Ronaldinho-MF, Casillas}."""
    rows = [
        ("r1", full("Lionel Messi", "Argentina", "FW", 83, 37), 2, 0),
        ("r2", full("Ronaldinho", "Brazil", "MF", 97, 33), 3, 0),
        ("r3", full("Ronaldinho", "Brazil", "FW", 97, 33), 2, 1),
        ("r4", full("Iker Casillas", "Spain", "GK", 150, 0), 2, 0),
        ("r5", full("David Beckham", "England", "MF", 115, 17), 1, 1),
        ("r6", RowValue({"name": "Neymar", "nationality": "Brazil",
                         "position": "FW"}), 0, 1),
        ("r7", RowValue({"name": "Zinedine Zidane", "nationality": "France",
                         "position": "DF"}), 0, 0),
        ("r8", RowValue(), 0, 0),
        ("r9", RowValue(), 0, 0),
        ("r10", RowValue(), 0, 0),
    ]
    for row_id, value, up, down in rows:
        table.load_row(row_id, value, up, down)

    final = table.final_table()
    assert final == [
        full("Lionel Messi", "Argentina", "FW", 83, 37),
        full("Ronaldinho", "Brazil", "MF", 97, 33),  # beats FW copy (3 > 1)
        full("Iker Casillas", "Spain", "GK", 150, 0),
    ]
    # Beckham is omitted: f(1, 1) = 0 is not positive.
    assert all(dict(v)["name"] != "David Beckham" for v in final)


def test_final_table_tie_breaks_deterministically(table):
    a = full("X", "Y", "FW", 80, 10)
    b = full("X", "Y", "MF", 80, 10)
    table.load_row("r2", b, 2, 0)
    table.load_row("r1", a, 2, 0)
    final_rows = table.final_rows()
    assert len(final_rows) == 1
    assert final_rows[0].row_id == "r1"  # smallest identifier wins ties


def test_final_table_empty_without_votes(table):
    table.load_row("r1", full("X", "Y", "FW", 80, 10), 0, 0)
    assert table.final_table() == []


def test_negative_rows_excluded(table):
    table.load_row("r1", full("X", "Y", "FW", 80, 10), 0, 2)
    assert table.final_table() == []


def test_snapshot_equality_semantics(table):
    other = CandidateTable(soccer_player_schema(), ThresholdScoring(2))
    for target in (table, other):
        target.apply_insert("r1")
        target.apply_replace("r1", "r2", RowValue({"name": "Messi"}))
    assert table.snapshot() == other.snapshot()
    other.apply_downvote(RowValue({"name": "Messi"}))
    assert table.snapshot() != other.snapshot()


def test_history_snapshot_ignores_zero_counts(table):
    value = full("X", "Y", "FW", 80, 10)
    table.apply_upvote(value)
    table.apply_undo_upvote(value)
    up, down = table.history_snapshot()
    assert up == frozenset() and down == frozenset()


def test_render_contains_headers_and_values(table):
    table.apply_replace("a", "r1", RowValue({"name": "Messi"}))
    text = table.render()
    assert "name" in text and "Messi" in text and "score" in text


def test_to_records(table):
    table.apply_replace("a", "r1", RowValue({"name": "Messi"}))
    records = table.to_records()
    assert records[0]["value"] == {"name": "Messi"}
    assert records[0]["score"] == 0


def test_rows_with_value_and_subsuming(table):
    table.apply_replace("a", "r1", RowValue({"name": "X"}))
    table.apply_replace("b", "r2", RowValue({"name": "X", "caps": 80}))
    assert len(table.rows_with_value(RowValue({"name": "X"}))) == 1
    assert len(table.rows_subsuming(RowValue({"name": "X"}))) == 2


def test_lookups_do_not_depend_on_apply_order():
    """Two copies that apply the same lineages in different orders (two
    linear extensions, as two shards would) answer every index lookup
    with the same row ids in the same order."""
    schema = Schema(
        name="Mini",
        columns=(Column("name", DataType.STRING), Column("caps", DataType.INT)),
        primary_key=("name",),
    )
    value = RowValue({"name": "X"})

    def build(order):
        table = CandidateTable(schema, ThresholdScoring(2))
        for lineage in order:
            table.apply_insert(f"{lineage}#1")
            table.apply_replace(f"{lineage}#1", f"{lineage}#2", value)
        return table

    def lookups(table):
        return [
            [row.row_id for row in rows]
            for rows in (
                table.rows_with_value(value),
                table.rows_subsuming(value),
                table.rows_in_group(("X",)),
            )
        ]

    ab, ba = lookups(build("ab")), lookups(build("ba"))
    assert ab == ba == [["a#2", "b#2"]] * 3
