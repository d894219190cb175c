"""Unit tests for live compensation estimation (section 5.3)."""

import pytest

from repro.constraints import Template
from repro.core import (
    DefaultScoring,
    DownvoteMessage,
    Replica,
    RowValue,
    ThresholdScoring,
    TraceRecord,
    UpvoteMessage,
)
from repro.core.schema import soccer_player_schema
from repro.pay import AllocationScheme, CompensationEstimator

SCHEMA = soccer_player_schema()
FULL = {
    "name": "Messi", "nationality": "Argentina",
    "position": "FW", "caps": 83, "goals": 37,
}


def make_estimator(scheme=AllocationScheme.UNIFORM, template=None, budget=12.0):
    template = template or Template.cardinality(2)
    return CompensationEstimator(
        SCHEMA, template, ThresholdScoring(2), budget, scheme=scheme
    )


class Feed:
    """Drives an estimator with a synchronized master table."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.master = Replica("server", SCHEMA, ThresholdScoring(2))
        self.cc = Replica("CC", SCHEMA, ThresholdScoring(2))
        self._seq = 0

    def cc_insert(self):
        message = self.cc.insert()
        self.master.receive(message)
        return message.row_id

    def feed(self, worker, message, at):
        self._seq += 1
        self.master.receive(message)
        record = TraceRecord(seq=self._seq, timestamp=at,
                             worker_id=worker, message=message)
        return self.estimator.on_record(record, self.master.table)

    def fill(self, worker, row_id, column, value, at):
        replica = Replica(f"{worker}x{self._seq}", SCHEMA, ThresholdScoring(2))
        row = self.master.table.row(row_id)
        replica.table.load_row(row_id, row.value, 0, 0)
        message = replica.fill(row_id, column, value)
        amount = self.feed(worker, message, at)
        return message.new_id, amount


def test_u_min_for_threshold_scoring():
    assert make_estimator().u_min == 2


def test_u_min_for_default_scoring():
    estimator = CompensationEstimator(
        SCHEMA, Template.cardinality(2), DefaultScoring(), 10.0
    )
    assert estimator.u_min == 1


def test_expected_cells_cardinality_template():
    estimator = make_estimator()
    assert all(v == 2 for v in estimator.expected_cells.values())


def test_expected_cells_exclude_pinned_template_values():
    template = Template.from_values(
        [{"nationality": "Brazil"}, {}], cardinality=2
    )
    estimator = make_estimator(template=template)
    assert estimator.expected_cells["nationality"] == 1
    assert estimator.expected_cells["name"] == 2


def test_uniform_estimate_matches_closed_form():
    """With |C|=2*5 cells expected, u_min=2 so |U| starts at 2, |D|=0:
    first fill's estimate is B / (|C| + |U|)."""
    estimator = make_estimator(budget=12.0)
    feed = Feed(estimator)
    row = feed.cc_insert()
    _, amount = feed.fill("w1", row, "name", "Messi", 1.0)
    expected = 12.0 / (5 * 2 + (2 - 1) * 2)
    assert amount == pytest.approx(expected)


def test_repeat_value_estimate_gets_split_share():
    estimator = make_estimator()
    feed = Feed(estimator)
    row_a = feed.cc_insert()
    row_b = feed.cc_insert()
    _, first = feed.fill("w1", row_a, "position", "FW", 1.0)
    _, second = feed.fill("w2", row_b, "position", "FW", 2.0)
    assert second == pytest.approx(first * 0.5)  # non-key h = 0.5


def test_repeat_key_value_estimate_gets_key_split():
    estimator = make_estimator()
    feed = Feed(estimator)
    row_a = feed.cc_insert()
    row_b = feed.cc_insert()
    _, first = feed.fill("w1", row_a, "name", "Messi", 1.0)
    _, second = feed.fill("w2", row_b, "name", "Messi", 2.0)
    assert second == pytest.approx(first * 0.25)


def test_auto_upvote_estimated_zero():
    estimator = make_estimator()
    feed = Feed(estimator)
    row = feed.cc_insert()
    for i, (column, value) in enumerate(FULL.items()):
        row, _ = feed.fill("w1", row, column, value, float(i + 1))
    amount = feed.feed(
        "w1", UpvoteMessage(value=RowValue(FULL), auto=True), 6.0
    )
    assert amount == 0.0


def test_manual_vote_estimates_positive():
    estimator = make_estimator()
    feed = Feed(estimator)
    row = feed.cc_insert()
    for i, (column, value) in enumerate(FULL.items()):
        row, _ = feed.fill("w1", row, column, value, float(i + 1))
    up = feed.feed("w2", UpvoteMessage(value=RowValue(FULL)), 7.0)
    down = feed.feed("w3", DownvoteMessage(value=RowValue({"name": "Zzz"})), 8.0)
    assert up > 0
    assert down > 0


def test_raw_and_corrected_totals():
    estimator = make_estimator()
    feed = Feed(estimator)
    row = feed.cc_insert()
    amounts = []
    for i, (column, value) in enumerate(FULL.items()):
        row, amount = feed.fill("w1", row, column, value, float(i + 1))
        amounts.append(amount)
    assert estimator.raw_total("w1") == pytest.approx(sum(amounts))
    seqs = {r.seq for r in estimator.records[:2]}
    partial = estimator.corrected_total("w1", seqs)
    assert partial == pytest.approx(sum(amounts[:2]))
    assert estimator.raw_total("ghost") == 0.0


def test_timeline_is_cumulative():
    estimator = make_estimator()
    feed = Feed(estimator)
    row = feed.cc_insert()
    for i, (column, value) in enumerate(FULL.items()):
        row, _ = feed.fill("w1", row, column, value, float(i + 1))
    timeline = estimator.timeline_for("w1")
    totals = [v for _, v in timeline]
    assert totals == sorted(totals)
    assert totals[-1] == pytest.approx(estimator.raw_total("w1"))


def test_column_weights_adapt_to_observed_times():
    """Name fills take 30s, others 5s: after enough samples the name
    estimate exceeds the position estimate."""
    estimator = make_estimator(scheme=AllocationScheme.COLUMN_WEIGHTED)
    feed = Feed(estimator)
    at = 0.0
    name_amounts, position_amounts = [], []
    for i in range(3):
        row = feed.cc_insert()
        values = {**FULL, "name": f"P{i}", "caps": 80 + i}
        for column in SCHEMA.column_names:
            at += 30.0 if column == "name" else 5.0
            row, amount = feed.fill("w1", row, column, values[column], at)
            if column == "name":
                name_amounts.append(amount)
            elif column == "position" and i == 0:
                position_amounts.append(amount)
    assert name_amounts[-1] > position_amounts[0]


def test_d_estimate_counts_only_consistent_downvotes():
    from repro.constraints.probable import probable_rows

    estimator = make_estimator()
    feed = Feed(estimator)
    row = feed.cc_insert()
    row, _ = feed.fill("w1", row, "nationality", "Brazil", 1.0)
    # Downvote of a still-probable row's value: inconsistent with the
    # probable set -> not counted toward |D|.
    feed.feed(
        "w2", DownvoteMessage(value=RowValue({"nationality": "Brazil"})), 2.0
    )
    probable = probable_rows(feed.master.table)
    assert estimator._estimate_d(probable) == 0
    # A downvote no probable row subsumes counts.
    feed.feed("w3", DownvoteMessage(value=RowValue({"name": "Zzz"})), 3.0)
    probable = probable_rows(feed.master.table)
    assert estimator._estimate_d(probable) == 1


def test_dual_scheme_key_weight_adjustment_none_without_slowdown():
    estimator = make_estimator(scheme=AllocationScheme.DUAL_WEIGHTED)
    feed = Feed(estimator)
    at = 0.0
    amounts = []
    for i in range(3):
        row = feed.cc_insert()
        values = {**FULL, "name": f"P{i}", "caps": 80 + i}
        for column in SCHEMA.column_names:
            at += 10.0
            row, amount = feed.fill("w1", row, column, values[column], at)
            if column == "name":
                amounts.append(amount)
    # Constant cadence: z stays 0, no position spread between key fills
    # beyond weight-learning drift.
    assert estimator._estimated_z("name") == 0.0


def rescan_d(downvotes, probable):
    """|D| by the original full rescan: every downvote seen, against
    every probable row.  The oracle for the streamed count."""
    count = 0
    for value in downvotes:
        if not any(row.value.subsumes(value) for row in probable):
            count += 1
    return count


def test_streamed_d_tracks_repeats_and_lost_cover():
    """A value downvoted twice counts twice, and losing the only
    probable row that covered it uncovers every one of its downvotes."""
    from repro.constraints.probable import probable_rows

    estimator = make_estimator()
    feed = Feed(estimator)
    row = feed.cc_insert()
    row, _ = feed.fill("w1", row, "nationality", "Brazil", 1.0)
    brazil = RowValue({"nationality": "Brazil"})
    seen = []

    def downvote(worker, value, at):
        seen.append(value)
        feed.feed(worker, DownvoteMessage(value=value), at)
        probable = probable_rows(feed.master.table)
        assert estimator._uncovered_downvotes == rescan_d(seen, probable)
        return estimator._uncovered_downvotes

    # The Brazil row is probable and covers the first downvote.
    assert downvote("w2", brazil, 2.0) == 0
    # The second downvote pushes the row's score negative: the only
    # probable row covering the value leaves the probable set.
    assert downvote("w3", brazil, 3.0) == 2
    assert not feed.master.table.is_row_probable(row)
    assert downvote("w4", RowValue({"name": "Zzz"}), 4.0) == 3
    assert downvote("w5", RowValue({"position": "FW"}), 5.0) == 4
    # A new probable row subsuming {position: FW} covers that downvote.
    fresh = feed.cc_insert()
    fresh, _ = feed.fill("w6", fresh, "position", "FW", 6.0)
    assert feed.master.table.is_row_probable(fresh)
    assert estimator._uncovered_downvotes == 3
    assert rescan_d(seen, probable_rows(feed.master.table)) == 3


def test_streamed_d_rebuilds_for_a_new_table():
    """Streaming from another table object starts a fresh cursor whose
    first (full) drain rebuilds the cover counts from that table."""
    from repro.constraints.probable import probable_rows

    estimator = make_estimator()
    feed = Feed(estimator)
    row = feed.cc_insert()
    row, _ = feed.fill("w1", row, "nationality", "Brazil", 1.0)
    feed.feed("w2", DownvoteMessage(value=RowValue({"name": "Zzz"})), 2.0)
    assert estimator._uncovered_downvotes == 1
    other = Replica("other", SCHEMA, ThresholdScoring(2))
    record = TraceRecord(
        seq=99, timestamp=3.0, worker_id="w3",
        message=DownvoteMessage(value=RowValue({"nationality": "Chile"})),
    )
    estimator.on_record(record, other.table)
    # No probable rows at all in the other table: both downvotes count.
    assert probable_rows(other.table) == []
    assert estimator._uncovered_downvotes == 2
    # Reading estimates for a table that is not streamed rescans it.
    up, down = estimator.current_vote_estimates(feed.master.table)
    assert up > 0 and down > 0


@pytest.mark.parametrize("seed", range(5))
def test_streamed_d_equals_rescan_at_every_record(monkeypatch, seed):
    """At every streamed record of a whole collection, the streamed |D|
    equals the original rescan of every downvote against the master
    table's probable rows."""
    from repro.constraints.probable import probable_rows
    from repro.experiments.harness import CrowdFillExperiment, ExperimentConfig

    original = CompensationEstimator.on_record
    seen = []
    checked = []

    def on_record(self, record, table):
        if isinstance(record.message, DownvoteMessage):
            seen.append(record.message.value)
        amount = original(self, record, table)
        expected = rescan_d(seen, probable_rows(table))
        assert self._uncovered_downvotes == expected, record.seq
        checked.append(expected)
        return amount

    monkeypatch.setattr(CompensationEstimator, "on_record", on_record)
    CrowdFillExperiment(ExperimentConfig(seed=seed)).run()
    assert checked and seen
