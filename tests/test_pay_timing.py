"""Tests for the worker ledger (section 5.2's per-worker trace facts)."""

import pytest

from repro.core import ReplaceMessage, RowValue, TraceRecord, UpvoteMessage
from repro.experiments import harness
from repro.experiments.harness import CrowdFillExperiment, ExperimentConfig
from repro.net import FaultPlan, ShardCrashWindow
from repro.pay.timing import WorkerLedger, freeze
from repro.server.recommender import CellRecommender
from repro.server.shard import shard_endpoint


def fill(seq, t, worker, column, value):
    message = ReplaceMessage(
        old_id=f"r{seq}", new_id=f"r{seq}'", value=RowValue({}),
        column=column, filled_value=value,
    )
    return TraceRecord(seq=seq, timestamp=t, worker_id=worker, message=message)


def upvote(seq, t, worker, auto=False):
    message = UpvoteMessage(value=RowValue({"name": "X"}), auto=auto)
    return TraceRecord(seq=seq, timestamp=t, worker_id=worker, message=message)


class TestWorkerLedger:
    def test_auto_upvote_neither_yields_a_time_nor_advances_the_clock(self):
        ledger = WorkerLedger()
        assert ledger.note(fill(0, 10.0, "w0", "name", "A")) is None
        assert ledger.note(upvote(1, 25.0, "w0", auto=True)) is None
        assert ledger.note(fill(2, 40.0, "w0", "caps", 80)) == 30.0
        assert ledger.generation_time == {2: 30.0}
        assert ledger.last_action == {"w0": 40.0}

    def test_first_and_last_action_times(self):
        ledger = WorkerLedger.of([
            upvote(0, 5.0, "w1"),
            fill(1, 7.0, "w0", "name", "A"),
            upvote(2, 9.0, "w1"),
            fill(3, 12.0, "w0", "caps", 80),
            upvote(4, 50.0, "w0", auto=True),
        ])
        assert ledger.first_action == {"w1": 5.0, "w0": 7.0}
        assert ledger.last_action == {"w1": 9.0, "w0": 12.0}
        assert ledger.generation_time == {2: 4.0, 3: 5.0}

    def test_first_entry_and_rank_per_column(self):
        records = [
            fill(0, 1.0, "w0", "name", "A"),
            fill(1, 2.0, "w1", "name", "B"),
            fill(2, 3.0, "w1", "name", "A"),
            fill(3, 4.0, "w0", "caps", 80),
            fill(4, 5.0, "w0", "name", "C"),
        ]
        ledger = WorkerLedger.of(records)
        assert ledger.first_entry == {
            ("name", "A"): records[0],
            ("name", "B"): records[1],
            ("caps", 80): records[3],
            ("name", "C"): records[4],
        }
        assert ledger.entry_rank == {
            "name": {"A": 1, "B": 2, "C": 3},
            "caps": {80: 1},
        }

    def test_unhashable_value_is_frozen(self):
        first = fill(0, 1.0, "w0", "name", ["A", "B"])
        ledger = WorkerLedger.of([first, fill(1, 2.0, "w1", "name", ["A", "B"])])
        key = freeze(["A", "B"])
        assert key == "['A', 'B']"
        assert ledger.first_entry == {("name", key): first}
        assert ledger.entry_rank == {"name": {key: 1}}


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"shards": 2},
        {
            "shards": 2,
            "fault_plan": FaultPlan(
                crashes=(ShardCrashWindow(shard_endpoint(0), 120.0, 200.0),)
            ),
        },
        {
            "shards": 2,
            "fault_plan": FaultPlan(
                crashes=(ShardCrashWindow(shard_endpoint(1), 120.0, 200.0),)
            ),
        },
    ],
    ids=["classic", "shards2", "shards2-crash-shard0", "shards2-crash-shard1"],
)
def test_streamed_ledger_equals_batch_ledger(overrides):
    """The estimator's ledger, fed record by record by the trace
    listener, equals the ledger folded from the finished trace."""
    result = CrowdFillExperiment(ExperimentConfig(seed=3, **overrides)).run()
    streamed = result.estimator.ledger
    batch = WorkerLedger.of(result.trace)
    assert result.trace
    assert streamed.generation_time == batch.generation_time
    assert streamed.first_action == batch.first_action
    assert streamed.last_action == batch.last_action
    assert streamed.first_entry == batch.first_entry
    assert streamed.entry_rank == batch.entry_rank


class _CountingBackend:
    """The backend as the recommender sees it, counting every trace
    record handed to the recommender (returned or streamed)."""

    def __init__(self, backend, counter):
        self._backend = backend
        self._counter = counter

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def worker_trace(self):
        records = self._backend.worker_trace()
        self._counter[0] += len(records)
        return records

    def add_trace_listener(self, listener):
        def counted(record):
            self._counter[0] += 1
            listener(record)

        self._backend.add_trace_listener(counted)


def _recommender_records_read(monkeypatch, target_rows):
    counter = [0]
    monkeypatch.setattr(
        harness,
        "CellRecommender",
        lambda backend: CellRecommender(_CountingBackend(backend, counter)),
    )
    config = ExperimentConfig(
        seed=3, num_workers=5, target_rows=target_rows, use_recommender=True
    )
    assert CrowdFillExperiment(config).run().completed
    return counter[0]


def test_recommender_reads_each_record_a_bounded_number_of_times(monkeypatch):
    """Doubling the table at most ~doubles the trace records the
    recommender reads: it folds each record once instead of rescanning
    the whole worker trace on every skill lookup (quadratic)."""
    small = _recommender_records_read(monkeypatch, 20)
    large = _recommender_records_read(monkeypatch, 40)
    assert small > 0
    assert large / small <= 2.5
