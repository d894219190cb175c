"""Unit tests for worker behaviour policies and error injection."""

import random

from repro.client import WorkerClient
from repro.constraints import Template
from repro.core import ThresholdScoring
from repro.core.schema import Column, DataType, soccer_player_schema
from repro.datasets import GroundTruth, SoccerPlayerUniverse
from repro.net import ConstantLatency, Network
from repro.server import BackendServer
from repro.sim import RngStreams, Simulator
from repro.workers import (
    CopierPolicy,
    DiligentPolicy,
    DownvoteAction,
    FillAction,
    IdleAction,
    SpammerPolicy,
    UpvoteAction,
    WorkerProfile,
)
from repro.workers.errors import corrupt_value

SCORING = ThresholdScoring(2)


def make_world(template=None, num_clients=1):
    sim = Simulator()
    network = Network(sim, default_latency=ConstantLatency(0.01),
                      streams=RngStreams(0))
    schema = soccer_player_schema()
    backend = BackendServer(
        sim, network, schema, SCORING, template or Template.cardinality(3)
    )
    clients = []
    for i in range(num_clients):
        client = WorkerClient(f"w{i}", schema, SCORING, network,
                              streams=RngStreams(i))
        client.bootstrap(backend.attach_client(client.worker_id))
        clients.append(client)
    backend.start()
    sim.run()
    return sim, backend, clients


def make_knowledge(size=40, seed=1):
    universe = SoccerPlayerUniverse(seed=seed, size=size, include_dob=False)
    return universe.ground_truth()


def run_action(sim, client, action):
    if isinstance(action, FillAction):
        client.fill(action.row_id, action.column, action.value)
    elif isinstance(action, UpvoteAction):
        client.upvote(action.row_id)
    elif isinstance(action, DownvoteAction):
        client.downvote(action.row_id)
    sim.run()


class TestDiligentPolicy:
    def test_fills_known_value_on_empty_table(self):
        sim, backend, (client,) = make_world()
        truth = make_knowledge()
        policy = DiligentPolicy(truth, WorkerProfile(fill_accuracy=1.0))
        action = policy.choose(client, random.Random(0))
        assert isinstance(action, FillAction)
        # The chosen value belongs to some true row.
        assert any(
            dict(row).get(action.column) == action.value for row in truth.rows
        )

    def test_completes_table_single_handedly(self):
        """A perfectly accurate worker drives an entire 2-row collection
        to completed rows (minus the external upvotes)."""
        sim, backend, (client,) = make_world(Template.cardinality(2))
        truth = make_knowledge()
        policy = DiligentPolicy(
            truth, WorkerProfile(fill_accuracy=1.0, vote_affinity=0.0)
        )
        rng = random.Random(0)
        for _ in range(60):
            action = policy.choose(client, rng)
            if isinstance(action, IdleAction):
                break
            run_action(sim, client, action)
            if isinstance(action, FillAction):
                policy.note_fill(client, client.replica.table.row_ids()[-1])
        complete = [
            r for r in backend.replica.table.rows()
            if r.value.is_complete(client.schema.column_names)
        ]
        assert len(complete) >= 2

    def test_never_voting_profile_never_votes(self):
        sim, backend, (client,) = make_world()
        truth = make_knowledge()
        policy = DiligentPolicy(
            truth, WorkerProfile(vote_affinity=0.0, fill_accuracy=1.0)
        )
        rng = random.Random(1)
        for _ in range(40):
            action = policy.choose(client, rng)
            if isinstance(action, IdleAction):
                break
            assert not isinstance(action, (UpvoteAction, DownvoteAction))
            run_action(sim, client, action)

    def test_avoids_duplicating_started_entities(self):
        sim, backend, (client,) = make_world(Template.cardinality(2))
        truth = make_knowledge(size=5)
        policy = DiligentPolicy(truth, WorkerProfile(fill_accuracy=1.0))
        rng = random.Random(0)
        # Fill one key into the first empty row.
        first = policy.choose(client, rng)
        assert isinstance(first, FillAction)
        run_action(sim, client, first)
        policy.note_fill(client, client.replica.table.row_ids()[-1])
        # Force the policy off its focus row; a fresh-entity pick for
        # the second row must not reuse the started entity's name.
        policy._focus_row_id = None
        second = policy.choose(client, rng)
        if isinstance(second, FillAction) and second.column == "name":
            assert second.value != first.value

    def test_upvotes_correct_complete_row(self):
        sim, backend, clients = make_world(num_clients=2)
        truth = make_knowledge()
        entity = truth.rows[0]
        # Worker 0 completes a true row.
        row_id = clients[0].replica.table.row_ids()[0]
        for column in clients[0].schema.column_names:
            row_id = clients[0].fill(row_id, column, entity[column])
        sim.run()
        policy = DiligentPolicy(
            truth,
            WorkerProfile(vote_affinity=1.0, judgement_accuracy=1.0),
        )
        action = policy.choose(clients[1], random.Random(0))
        assert isinstance(action, UpvoteAction)
        assert clients[1].row(action.row_id).value == entity

    def test_downvotes_wrong_complete_row(self):
        sim, backend, clients = make_world(num_clients=2)
        truth = make_knowledge()
        entity = dict(truth.rows[0])
        entity["caps"] = entity["caps"] + 7  # wrong value
        row_id = clients[0].replica.table.row_ids()[0]
        for column in clients[0].schema.column_names:
            row_id = clients[0].fill(row_id, column, entity[column])
        sim.run()
        policy = DiligentPolicy(
            truth,
            WorkerProfile(vote_affinity=1.0, judgement_accuracy=1.0),
        )
        action = policy.choose(clients[1], random.Random(0))
        assert isinstance(action, DownvoteAction)

    def test_reference_lookup_refutes_fabricated_entity(self):
        sim, backend, clients = make_world(num_clients=2)
        truth = make_knowledge()
        fake = {
            "name": "Totally Madeup", "nationality": "Nowhere",
            "position": "FW", "caps": 90, "goals": 10,
        }
        row_id = clients[0].replica.table.row_ids()[0]
        for column in clients[0].schema.column_names:
            row_id = clients[0].fill(row_id, column, fake[column])
        sim.run()
        empty_knowledge = GroundTruth(truth.schema, [])
        policy = DiligentPolicy(
            empty_knowledge,
            WorkerProfile(vote_affinity=1.0, suspect_unknown_prob=1.0),
            reference=truth,
        )
        action = policy.choose(clients[1], random.Random(0))
        assert isinstance(action, DownvoteAction)

    def test_no_reference_no_knowledge_idles_on_votes(self):
        sim, backend, clients = make_world(num_clients=2)
        truth = make_knowledge()
        entity = truth.rows[0]
        row_id = clients[0].replica.table.row_ids()[0]
        for column in clients[0].schema.column_names:
            row_id = clients[0].fill(row_id, column, entity[column])
        sim.run()
        empty_knowledge = GroundTruth(truth.schema, [])
        policy = DiligentPolicy(
            empty_knowledge,
            WorkerProfile(vote_affinity=1.0, suspect_unknown_prob=1.0),
            reference=None,
        )
        action = policy.choose(clients[1], random.Random(0))
        assert isinstance(action, IdleAction)

    def test_does_not_upvote_already_accepted_rows(self):
        sim, backend, clients = make_world(num_clients=3)
        truth = make_knowledge()
        entity = truth.rows[0]
        row_id = clients[0].replica.table.row_ids()[0]
        for column in clients[0].schema.column_names:
            row_id = clients[0].fill(row_id, column, entity[column])
        sim.run()
        clients[1].upvote(row_id)  # score now positive (2 ups)
        sim.run()
        policy = DiligentPolicy(
            truth, WorkerProfile(vote_affinity=1.0, judgement_accuracy=1.0,
                                 knowledge_fraction=1.0)
        )
        action = policy.choose(clients[2], random.Random(0))
        assert not isinstance(action, UpvoteAction)


class TestAdversarialPolicies:
    def test_spammer_fills_garbage_fast(self):
        sim, backend, (client,) = make_world()
        policy = SpammerPolicy()
        action = policy.choose(client, random.Random(0))
        assert isinstance(action, FillAction)
        # The garbage value is type-valid (the client accepts it).
        client.schema.validate_value(action.column, action.value)

    def test_spammer_idles_when_table_complete(self):
        sim, backend, (client,) = make_world(Template.cardinality(1))
        truth = make_knowledge()
        entity = truth.rows[0]
        row_id = client.replica.table.row_ids()[0]
        for column in client.schema.column_names:
            row_id = client.fill(row_id, column, entity[column])
        sim.run()
        action = SpammerPolicy().choose(client, random.Random(0))
        assert isinstance(action, IdleAction)

    def test_copier_upvotes_any_complete_row(self):
        sim, backend, clients = make_world(num_clients=2)
        truth = make_knowledge()
        entity = truth.rows[0]
        row_id = clients[0].replica.table.row_ids()[0]
        for column in clients[0].schema.column_names:
            row_id = clients[0].fill(row_id, column, entity[column])
        sim.run()
        action = CopierPolicy().choose(clients[1], random.Random(0))
        assert isinstance(action, UpvoteAction)

    def test_copier_idles_without_votable_rows(self):
        sim, backend, (client,) = make_world()
        action = CopierPolicy().choose(client, random.Random(0))
        assert isinstance(action, IdleAction)


class TestErrorInjection:
    def test_corrupt_differs_and_validates(self):
        schema = soccer_player_schema()
        rng = random.Random(0)
        for column_name, value in [
            ("name", "Lionel Messi"),
            ("nationality", "Brazil"),
            ("position", "FW"),
            ("caps", 83),
            ("goals", 0),
        ]:
            column = schema.column(column_name)
            for _ in range(20):
                corrupted = corrupt_value(rng, column, value)
                assert corrupted != value
                column.validate(corrupted)

    def test_corrupt_date(self):
        column = Column("dob", DataType.DATE)
        rng = random.Random(0)
        corrupted = corrupt_value(rng, column, "1987-06-24")
        assert corrupted != "1987-06-24"
        column.validate(corrupted)

    def test_corrupt_bool_and_float(self):
        rng = random.Random(0)
        assert corrupt_value(rng, Column("b", DataType.BOOL), True) is False
        out = corrupt_value(rng, Column("f", DataType.FLOAT), 1.5)
        assert out != 1.5

    def test_single_member_domain_falls_back(self):
        column = Column("only", domain=frozenset({"x"}))
        assert corrupt_value(random.Random(0), column, "x") == "x"


def _key_calls_per_decision(monkeypatch, universe_size):
    """Mean ``RowValue.key`` calls made inside ``DiligentPolicy.choose``
    per decision, over one whole collection."""
    from repro.core.row import RowValue
    from repro.experiments.harness import CrowdFillExperiment, ExperimentConfig

    original_key = RowValue.key
    original_choose = DiligentPolicy.choose
    counts = {"calls": 0, "decisions": 0, "inside": False}

    def key(self, key_columns):
        if counts["inside"]:
            counts["calls"] += 1
        return original_key(self, key_columns)

    def choose(self, client, rng):
        counts["decisions"] += 1
        counts["inside"] = True
        try:
            return original_choose(self, client, rng)
        finally:
            counts["inside"] = False

    with monkeypatch.context() as patch:
        patch.setattr(RowValue, "key", key)
        patch.setattr(DiligentPolicy, "choose", choose)
        config = ExperimentConfig(
            seed=3, num_workers=10, target_rows=30, universe_size=universe_size
        )
        CrowdFillExperiment(config).run()
    assert counts["decisions"] > 0
    return counts["calls"] / counts["decisions"]


def test_decision_key_work_does_not_grow_with_knowledge(monkeypatch):
    """A worker's decision derives keys for the table's rows, never for
    every entity it knows: quadrupling the universe (and so each
    worker's knowledge) leaves the per-decision key work flat."""
    small = _key_calls_per_decision(monkeypatch, 300)
    large = _key_calls_per_decision(monkeypatch, 1200)
    assert large <= 1.25 * small, (small, large)
