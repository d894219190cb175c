"""Seeded operation streams for the ingest workloads.

The stream stands in for the browsers of a deployed collection: each
endpoint is one worker whose client has already made its decisions, so
the stream holds only the message kinds a ``WorkerClient`` emits:

- fill: a replace that fills the next empty cell of one of the worker's
  open rows, followed by the automatic upvote when it completes the row;
- upvote: an endorsement of a row some worker completed earlier;
- superset downvote: a downvote of a row's value, mostly a partial one,
  which counts against every row containing it;
- modify: an insert of a fresh row plus the replace that fills its key
  cell (the insert-and-fill half of the client's modify action).

Operations are grouped into ticks.  Every tick, :data:`PER_TICK`
distinct endpoints each perform one action (one or two messages), and
ticks are :data:`SPACING_S` simulated seconds apart, so a tick's
messages reach the server in the same instant and form one drain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.messages import (
    DownvoteMessage,
    InsertMessage,
    Message,
    ReplaceMessage,
    UpvoteMessage,
)
from repro.core.row import RowValue

COLUMNS = ("name", "nationality", "position", "caps", "goals")
POSITIONS = ("GK", "DF", "MF", "FW")
#: Endpoints (workers) sending the stream, endpoints acting per tick,
#: simulated seconds between ticks, and players in the seeded universe.
ENDPOINTS = 16
PER_TICK = 4
SPACING_S = 0.1
PLAYERS = 600
MAX_OPEN_ROWS = 3

#: The action mix, measured on the worker messages of six
#: ``crowd-session`` collections (collection seeds 0-4 and 7, 20 workers,
#: 60 rows; see ``perfbench/README.md``): of 4 406 worker actions, 3 308
#: were cell fills (75.1 %), 481 manual upvotes (10.9 %) and 617
#: downvotes (14.0 %), 520 of them (84.3 %) of partial rows; 483 of the
#: fills (14.6 %) started a row the Central Client had inserted, and 70
#: fills (2.1 %) contradicted the ground truth.
WRITE_SHARE = 0.751
UPVOTE_SHARE = 0.109
PARTIAL_DOWNVOTE_SHARE = 0.843
ROW_START_SHARE = 0.146
WRONG_SHARE = 0.021

#: Template rows whose keys no generated operation ever fills, so the
#: collection can never complete and the completion check runs on every
#: probable-set change for the whole stream.
PINNED_TARGETS = tuple(
    {"name": f"Target {k}", "nationality": f"Nowhere {k}"} for k in range(5)
)


@dataclass(frozen=True)
class OpStream:
    """A generated stream: ticks of ``(endpoint, message)`` sends."""

    endpoints: tuple[str, ...]
    ticks: tuple[tuple[float, tuple[tuple[str, Message], ...]], ...]

    @property
    def ops(self) -> int:
        return sum(len(sends) for _, sends in self.ticks)

    def by_endpoint(self) -> dict[str, list[Message]]:
        """Each endpoint's messages in send order."""
        out: dict[str, list[Message]] = {name: [] for name in self.endpoints}
        for _, sends in self.ticks:
            for source, message in sends:
                out[source].append(message)
        return out

    @property
    def horizon(self) -> float:
        return self.ticks[-1][0] if self.ticks else 0.0


def _players(rng: random.Random, count: int) -> list[dict[str, Any]]:
    return [
        {
            "name": f"Player {i}",
            "nationality": f"Country {rng.randrange(24)}",
            "position": rng.choice(POSITIONS),
            "caps": rng.randint(80, 99),
            "goals": rng.randint(0, 40),
        }
        for i in range(count)
    ]


class _Worker:
    def __init__(self, name: str) -> None:
        self.name = name
        self.next_id = 0
        self.open: list[tuple[str, dict[str, Any], int]] = []

    def fresh_id(self) -> str:
        self.next_id += 1
        return f"{self.name}#{self.next_id}"


def generate(seed: int, ops: int) -> OpStream:
    """At least *ops* messages from :data:`ENDPOINTS` workers, seeded by
    *seed*."""
    rng = random.Random(seed)
    truth = _players(rng, PLAYERS)
    workers = [_Worker(f"w{k}") for k in range(ENDPOINTS)]
    completed: list[RowValue] = []
    partial: list[RowValue] = []
    ticks: list[tuple[float, tuple[tuple[str, Message], ...]]] = []
    total = 0
    turn = 0
    while total < ops:
        sends: list[tuple[str, Message]] = []
        for k in range(PER_TICK):
            worker = workers[(turn * PER_TICK + k) % ENDPOINTS]
            for message in _action(rng, worker, truth, completed, partial):
                sends.append((worker.name, message))
        ticks.append((turn * SPACING_S, tuple(sends)))
        total += len(sends)
        turn += 1
    return OpStream(tuple(w.name for w in workers), tuple(ticks))


def _action(
    rng: random.Random,
    worker: _Worker,
    truth: list[dict[str, Any]],
    completed: list[RowValue],
    partial: list[RowValue],
) -> list[Message]:
    roll = rng.random()
    if roll < WRITE_SHARE or not completed:
        starts = rng.random() < ROW_START_SHARE
        if not worker.open or (starts and len(worker.open) < MAX_OPEN_ROWS):
            return _modify(rng, worker, truth, partial)
        return _fill(rng, worker, truth, completed, partial)
    if roll < WRITE_SHARE + UPVOTE_SHARE:
        return [UpvoteMessage(value=rng.choice(completed))]
    return [_superset_downvote(rng, completed, partial)]


def _modify(
    rng: random.Random,
    worker: _Worker,
    truth: list[dict[str, Any]],
    partial: list[RowValue],
) -> list[Message]:
    player = rng.randrange(len(truth))
    row_id = worker.fresh_id()
    filled = worker.fresh_id()
    name = truth[player]["name"]
    value = {"name": name}
    worker.open.append((filled, value, player))
    partial.append(RowValue(value))
    return [
        InsertMessage(row_id=row_id),
        ReplaceMessage(
            old_id=row_id,
            new_id=filled,
            value=RowValue(value),
            column="name",
            filled_value=name,
        ),
    ]


def _fill(
    rng: random.Random,
    worker: _Worker,
    truth: list[dict[str, Any]],
    completed: list[RowValue],
    partial: list[RowValue],
) -> list[Message]:
    slot = rng.randrange(len(worker.open))
    row_id, value, player = worker.open[slot]
    column = next(c for c in COLUMNS if c not in value)
    cell = truth[player][column]
    if rng.random() < WRONG_SHARE:
        # A wrong entry: the same key collects disagreeing rows.
        cell = _wrong(rng, column, cell)
    value = {**value, column: cell}
    new_id = worker.fresh_id()
    messages: list[Message] = [
        ReplaceMessage(
            old_id=row_id,
            new_id=new_id,
            value=RowValue(value),
            column=column,
            filled_value=cell,
        )
    ]
    if len(value) == len(COLUMNS):
        del worker.open[slot]
        completed.append(RowValue(value))
        messages.append(UpvoteMessage(value=RowValue(value), auto=True))
    else:
        worker.open[slot] = (new_id, value, player)
        partial.append(RowValue(value))
    return messages


def _wrong(rng: random.Random, column: str, cell: Any) -> Any:
    if column == "position":
        return rng.choice([p for p in POSITIONS if p != cell])
    if column == "nationality":
        return f"Country {rng.randrange(24, 30)}"
    return cell + rng.randint(1, 5)


def _superset_downvote(
    rng: random.Random, completed: list[RowValue], partial: list[RowValue]
) -> DownvoteMessage:
    if partial and rng.random() < PARTIAL_DOWNVOTE_SHARE:
        return DownvoteMessage(value=rng.choice(partial))
    return DownvoteMessage(value=rng.choice(completed))
