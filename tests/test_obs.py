"""The observability layer: registry, tracer, sampler, determinism.

The two properties that make ``repro.obs`` safe to leave wired into
every subsystem are exercised here:

* determinism — same-seed runs export byte-identical metrics and trace
  JSON (telemetry is keyed on sim-time only, never a wall clock);
* isolation — snapshots are deep copies, so they never alias live
  replica state.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import CrowdFillExperiment, ExperimentConfig
from repro.obs import (
    NULL_OBS,
    NULL_SPAN,
    Histogram,
    MetricsRegistry,
    NullObservability,
    Observability,
    SnapshotSampler,
    SpanTracer,
    dump_json,
    resolve,
)
from repro.sim import Simulator


# -- metrics ----------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a.events")
        registry.inc("a.events", 4)
        assert registry.counter_value("a.events") == 5
        assert registry.counter_value("never.touched") == 0

    def test_gauge_keeps_last_value_and_time(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth", 3, time=1.0)
        registry.gauge("queue.depth", 7, time=2.5)
        assert registry.gauge_value("queue.depth") == 7
        exported = registry.to_dict()["gauges"]["queue.depth"]
        assert exported == {"value": 7, "time": 2.5, "updates": 2}

    def test_histogram_log2_buckets(self):
        histogram = Histogram()
        for value in (0.75, 1.5, 3.0, 3.9):
            histogram.observe(value)
        # frexp exponent: 0.75 -> 0, 1.5 -> 1, 3.0/3.9 -> 2.
        assert histogram.buckets == {0: 1, 1: 1, 2: 2}
        assert histogram.count == 4
        assert histogram.min == 0.75 and histogram.max == 3.9
        assert histogram.mean == pytest.approx(9.15 / 4)

    def test_histogram_run_of_equal_values_matches_single_observations(self):
        values = [(0.1, 3), (0.7, 1), (0.1, 5), (0.0, 2)]
        runs, singles = Histogram(), Histogram()
        for value, n in values:
            runs.observe(value, n)
            for _ in range(n):
                singles.observe(value)
        # 0.1 is inexact in binary: the total is the same float only if
        # a run adds the value once per observation.
        assert runs.to_dict() == singles.to_dict()
        assert runs.total.hex() == singles.total.hex()

    def test_histogram_sentinel_bucket_for_nonpositive(self):
        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(-2.0)
        assert histogram.buckets == {-1024: 2}

    def test_empty_histogram_exports_null_bounds(self):
        assert Histogram().to_dict()["min"] is None
        assert math.isinf(Histogram().min)

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.observe("x", 1.0)
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x", 1.0, time=0.0)

    def test_read_through_counter_reads_at_export(self):
        registry = MetricsRegistry()
        source = {"n": 0}
        registry.read_through("net.messages_sent", lambda: source["n"])
        # Absent while it reads 0, like a counter never incremented.
        assert "net.messages_sent" not in registry.to_dict()["counters"]
        source["n"] = 3
        assert registry.counter_value("net.messages_sent") == 3
        assert registry.to_dict()["counters"] == {"net.messages_sent": 3}

    def test_read_through_name_cannot_be_reused_as_another_kind(self):
        registry = MetricsRegistry()
        registry.read_through("x", lambda: 1)
        for reuse in (
            lambda: registry.inc("x"),
            lambda: registry.gauge("x", 1.0, time=0.0),
            lambda: registry.observe("x", 1.0),
        ):
            with pytest.raises(ValueError, match="read-through counter"):
                reuse()
        with pytest.raises(ValueError, match="already has a reader"):
            registry.read_through("x", lambda: 2)
        registry.inc("y")
        with pytest.raises(ValueError, match="already registered"):
            registry.read_through("y", lambda: 1)

    def test_export_sorts_names(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        assert list(registry.to_dict()["counters"]) == ["a", "b"]


# -- tracing ----------------------------------------------------------


class TestSpanTracer:
    def test_span_records_on_close_with_monotone_seq(self):
        clock = {"now": 1.0}
        tracer = SpanTracer(lambda: clock["now"])
        with tracer.span("op", worker="w1") as span:
            clock["now"] = 2.0
            span.set(rows=3)
        tracer.event("tick")
        records = tracer.records()
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0] == {
            "seq": 0,
            "name": "op",
            "start": 1.0,
            "end": 2.0,
            "attrs": {"worker": "w1", "rows": 3},
        }
        # Point events are instantaneous.
        assert records[1]["start"] == records[1]["end"] == 2.0

    def test_double_close_records_once(self):
        tracer = SpanTracer(lambda: 0.0)
        span = tracer.span("op")
        span.close()
        span.close()
        assert len(tracer.records()) == 1

    def test_ring_buffer_evicts_oldest_and_reports_it(self):
        tracer = SpanTracer(lambda: 0.0, capacity=3)
        for index in range(5):
            tracer.event(f"e{index}")
        data = tracer.to_dict()
        assert [r["name"] for r in data["spans"]] == ["e2", "e3", "e4"]
        assert data["recorded"] == 5
        assert data["evicted"] == 2

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.set(anything=1)
        span.close()  # no error, records nothing anywhere


# -- the facade and the no-op -----------------------------------------


class TestObservabilityFacade:
    def test_resolve_convention(self):
        assert resolve(None) is NULL_OBS
        assert resolve(False) is NULL_OBS
        enabled = resolve(True)
        assert isinstance(enabled, Observability) and enabled.enabled
        assert resolve(enabled) is enabled

    def test_null_obs_is_fully_inert(self):
        obs = NullObservability()
        assert not obs.enabled
        obs.inc("x")
        obs.gauge("x", 1.0)
        obs.observe("x", 1.0)
        obs.event("x")
        # Unguarded on purpose: the point is that the null sink absorbs
        # even an allocating call.
        obs.add_snapshot({"time": 0.0})  # crowdlint: disable=OBS001
        assert obs.span("x") is NULL_SPAN
        assert obs.snapshots == []
        assert NULL_OBS.snapshots == []  # the shared instance too

    def test_clock_binding_stamps_gauges_and_spans(self):
        obs = Observability()
        clock = {"now": 5.0}
        obs.bind_clock(lambda: clock["now"])
        obs.gauge("g", 1.0)
        obs.event("e")
        assert obs.now == 5.0
        assert obs.metrics.to_dict()["gauges"]["g"]["time"] == 5.0
        assert obs.tracer.records()[0]["start"] == 5.0

    def test_exports_are_canonical_json(self):
        obs = Observability()
        obs.inc("z")
        obs.inc("a")
        text = obs.metrics_json()
        assert text == dump_json(obs.export())
        assert text.index('"a"') < text.index('"z"')
        assert obs.export()["schema_version"] == 1
        assert obs.export_trace()["schema_version"] == 1

    def test_write_files(self, tmp_path):
        obs = Observability()
        obs.inc("n")
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        obs.write_metrics(metrics_path)
        obs.write_trace(trace_path)
        assert metrics_path.read_text() == obs.metrics_json() + "\n"
        assert trace_path.read_text() == obs.trace_json() + "\n"


# -- snapshot sampling ------------------------------------------------


class TestSnapshotSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval"):
            SnapshotSampler(Observability(), Simulator(), interval=0)

    def test_samples_are_deep_copies(self):
        obs = Observability()
        sim = Simulator()
        live = {"totals": {"w1": 1.0}}
        sampler = SnapshotSampler(obs, sim, interval=1.0)
        sampler.add_source("payout", lambda: live["totals"])
        sampler.sample_now()
        live["totals"]["w1"] = 99.0
        assert obs.snapshots[0]["payout"] == {"w1": 1.0}
        # ... and mutating the snapshot cannot touch the live dict.
        obs.snapshots[0]["payout"]["w1"] = -1.0
        assert live["totals"]["w1"] == 99.0

    def test_periodic_ticks_stop_when_workload_drains(self):
        obs = Observability()
        sim = Simulator(obs=obs)
        obs.bind_clock(lambda: sim.now)
        fired = []
        for at in (1.0, 12.0):
            sim.schedule(at, lambda at=at: fired.append(at))
        sampler = SnapshotSampler(obs, sim, interval=5.0)
        sampler.add_source("fired", lambda: len(fired))
        sampler.start()
        sim.run()  # must terminate: the sampler re-arms only while busy
        assert fired == [1.0, 12.0]
        times = [row["time"] for row in obs.snapshots]
        assert times == [0.0, 5.0, 10.0, 15.0]
        assert obs.snapshots[-1]["fired"] == 2


# -- end-to-end determinism and isolation -----------------------------


def _small_run():
    from repro.core.scoring import ThresholdScoring
    from repro.experiments.harness import make_policy, resolve_domain
    from repro.session import CollectionSession, WorkerSpec

    config = ExperimentConfig(seed=42, num_workers=3, target_rows=5)
    schema, _, truth_band = resolve_domain(config)
    profiles = config.resolved_profiles()
    session = CollectionSession(
        seed=config.seed,
        schema=schema,
        scoring=ThresholdScoring(config.min_votes),
        target_rows=config.target_rows,
        obs=True,
        snapshot_interval=30.0,
    )
    session.attach_estimator(config.budget)
    specs = [
        WorkerSpec(
            worker_id=f"worker-{index}",
            policy=lambda wid, i=index: make_policy(
                "diligent", truth_band, profiles[i], session.streams, wid
            ),
            profile=profiles[index],
            vote_cap=config.vote_cap,
        )
        for index in range(config.num_workers)
    ]
    session.recruit(specs, mean_interarrival=config.mean_interarrival)
    session.run(until=config.max_sim_time)
    return session


@pytest.mark.slow
def test_same_seed_runs_export_byte_identical_telemetry():
    first = _small_run()
    second = _small_run()
    assert first.obs.metrics_json() == second.obs.metrics_json()
    assert first.obs.trace_json() == second.obs.trace_json()


@pytest.mark.slow
def test_experiment_obs_handle_and_disabled_default():
    config = ExperimentConfig(seed=42, num_workers=3, target_rows=5)
    plain = CrowdFillExperiment(config).run()
    assert not plain.obs.enabled  # off by default, shared no-op
    experiment = CrowdFillExperiment(config, obs=True)
    observed = experiment.run()
    assert observed.obs.enabled
    # Observability must not perturb the collection itself.
    assert observed.messages_sent == plain.messages_sent
    assert observed.final_values == plain.final_values
    metrics = observed.obs.metrics
    assert metrics.counter_value("net.messages_sent") == plain.messages_sent
    # Every worker op in the trace was applied (the counter also counts
    # the Central Client's ops, which the worker trace omits).
    applied = metrics.counter_value("server.messages_applied")
    assert applied >= len(observed.trace) > 0
    assert metrics.counter_value("sim.events_fired") > 0
    assert observed.obs.snapshots  # periodic sampling ran
    trace = observed.obs.export_trace()
    assert trace["recorded"] > 0
    # Mirrored counters read the program's own records at export.
    session = experiment.session
    stats = session.network.stats
    assert metrics.counter_value("net.messages_delivered") == (
        stats.messages_delivered
    )
    assert metrics.counter_value("net.messages_dropped") == (
        stats.messages_dropped
    )
    assert applied == len(session.backend.trace)
    # A fault-free run drops nothing, so the counter is never created.
    assert "net.messages_dropped" not in observed.obs.export()["counters"]


@pytest.mark.slow
def test_lifecycle_events_survive_the_ring():
    """The ring holds lifecycle events only, so a sharded, durable run
    with a primary crash fits a small ring whole: the crash and the
    recovery are still there at the end (per-message and per-op
    records, which would evict them, live in the program's own logs)."""
    from repro.net import FaultPlan, ShardCrashWindow

    plan = FaultPlan(crashes=(ShardCrashWindow("shard-0", 120.0, 200.0),))
    obs = Observability(trace_capacity=256)
    result = CrowdFillExperiment(
        ExperimentConfig(seed=3, shards=2, fault_plan=plan), obs=obs
    ).run()
    assert result.completed
    trace = obs.export_trace()
    assert trace["evicted"] == 0
    names = [record["name"] for record in trace["spans"]]
    assert "shard-0.crash" in names and "shard-0.recover" in names


@pytest.mark.slow
def test_snapshots_never_alias_live_state():
    session = _small_run()
    backend = session.backend
    assert backend is not None and backend.completed
    snapshots = session.obs.snapshots
    assert snapshots
    final_before = [dict(row.value) for row in backend.final_rows()]
    # Corrupting every recorded snapshot must leave the live system
    # (replica tables, estimator, ledger) untouched.
    for row in snapshots:
        for key in list(row):
            row[key] = "poisoned"
    assert [dict(row.value) for row in backend.final_rows()] == final_before
    assert session.estimator is not None
    assert session.estimator.estimated_totals()  # still intact floats
    for amount in session.estimator.estimated_totals().values():
        assert isinstance(amount, float)
