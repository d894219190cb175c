"""Self-tests of the benchmark's span recorder, patching and inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import collections
import gc
import itertools
import json
from pathlib import Path

import pytest

import hostspeed
import layers
import stream
import workloads
from repro.net.network import Network
from repro.obs import Observability
from repro.obs.tracing import Span
from repro.server.backend import SERVER_NAME
from repro.session import CollectionSession
from run import END_TO_END_UNITS, setup, timings
from spans import Patcher, SpanRecorder, spanned


def recorder_at(*times: float) -> SpanRecorder:
    """A recorder whose clock reads *times* in order."""
    ticks = iter(times)
    return SpanRecorder(clock=lambda: next(ticks))


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # e [12, 13] is a second root.
    rec = recorder_at(0, 1, 2, 3, 4, 5, 9, 10, 12, 13)
    ids = {name: rec.name_id(name) for name in "abcde"}
    a = rec.open(ids["a"])
    b = rec.open(ids["b"])
    c = rec.open(ids["c"])
    rec.close(c)
    rec.close(b)
    d = rec.open(ids["d"])
    rec.close(d)
    rec.close(a)
    e = rec.open(ids["e"])
    rec.close(e)

    assert list(rec.spans()) == [
        ("a", 0, 10, -1),
        ("b", 1, 4, 0),
        ("c", 2, 3, 1),
        ("d", 5, 9, 0),
        ("e", 12, 13, -1),
    ]
    assert rec.self_times() == {"a": 3, "b": 2, "c": 1, "d": 4, "e": 1}
    assert rec.root_time() == 11
    assert rec.durations("b") == [3]
    assert rec.count("a") == 1


def test_self_time_of_a_span_nested_in_its_own_name():
    rec = recorder_at(0, 2, 5, 10)
    outer = rec.open(rec.name_id("x"))
    inner = rec.open(rec.name_id("x"))
    rec.close(inner)
    rec.close(outer)
    # The inner span's time counts once, not twice.
    assert rec.self_times() == {"x": 10}


def test_spans_must_close_in_nesting_order():
    rec = recorder_at(0, 1, 2)
    outer = rec.open(rec.name_id("a"))
    rec.open(rec.name_id("b"))
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_spanned_records_a_span_even_when_the_call_raises():
    rec = recorder_at(0, 1)

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        spanned(rec, "boom", boom)()
    assert list(rec.spans()) == [("boom", 0, 1, -1)]


def test_patcher_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    child_g = vars(Child)["g"]
    with Patcher() as patcher:
        patcher.patch(Child, "f", lambda fn: lambda self: "patched " + fn(self))
        patcher.patch(Child, "g", lambda fn: lambda self: "patched " + fn(self))
        assert Child().f() == "patched base"
        assert Child().g() == "patched child"
    assert "f" not in vars(Child)
    assert vars(Child)["g"] is child_g
    assert Child().f() == "base"


def _patchable_classes() -> list[type]:
    owners = {owner for owner, _, _ in layers.SPANNED}
    owners.update(
        value
        for value in vars(layers).values()
        if isinstance(value, type) and value.__module__.startswith("repro.")
    )
    owners.update({Network, Span, Observability, CollectionSession})
    return sorted(owners, key=lambda cls: cls.__qualname__)


@pytest.fixture
def small_jobs(monkeypatch):
    monkeypatch.setattr(workloads, "CROWD_WORKERS", 5)
    monkeypatch.setattr(workloads, "CROWD_ROWS", 8)
    monkeypatch.setattr(workloads, "LIVE_OPS", 400)
    monkeypatch.setattr(workloads, "SHARDED_OPS", 300)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_job_restores_every_patched_entry_point(small_jobs, name):
    classes = _patchable_classes()
    before = {cls: dict(vars(cls)) for cls in classes}
    job = workloads.WORKLOADS[name](1, True)
    assert job.errors == []
    assert job.layers is not None
    assert set(job.layers) | {"trace.overhead_s"} == set(layers.PER_LAYER_UNITS)
    for cls in classes:
        assert dict(vars(cls)) == before[cls], cls.__qualname__


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_and_traced_jobs_agree(small_jobs, name):
    plain = workloads.WORKLOADS[name](2, False)
    traced = workloads.WORKLOADS[name](2, True)
    assert plain.errors == [] and traced.errors == []
    assert plain.fingerprint == traced.fingerprint
    assert plain.ops == traced.ops > 0
    assert plain.failed == 0 and plain.attempted > 0
    assert len(plain.drains_s) == len(traced.drains_s) > 0


def test_a_different_seed_changes_the_stream_and_the_fingerprint(small_jobs):
    assert stream.generate(1, 400) == stream.generate(1, 400)
    assert stream.generate(1, 400).ticks != stream.generate(2, 400).ticks
    first = workloads.live_ingest(1, False).fingerprint
    assert workloads.live_ingest(1, False).fingerprint == first
    assert workloads.live_ingest(2, False).fingerprint != first
    crowd = workloads.crowd_session(1, False).fingerprint
    assert workloads.crowd_session(2, False).fingerprint != crowd


def test_stream_holds_only_client_message_kinds():
    ops = stream.generate(5, 2000)
    kinds = {
        type(message).__name__
        for _, sends in ops.ticks
        for _, message in sends
    }
    assert kinds == {
        "InsertMessage", "ReplaceMessage", "UpvoteMessage", "DownvoteMessage"
    }
    assert ops.ops >= 2000
    for _, sends in ops.ticks:
        sources = [source for source, _ in sends]
        # one action per endpoint per tick, so FIFO order is send order
        assert len(set(sources)) == len(list(itertools.groupby(sources)))


def test_stream_action_mix_follows_the_measured_shares():
    ops = stream.generate(5, 20000)
    kinds = collections.Counter(
        type(message).__name__
        for _, sends in ops.ticks
        for _, message in sends
        if not getattr(message, "auto", False)
    )
    actions = (
        kinds["ReplaceMessage"] + kinds["UpvoteMessage"] + kinds["DownvoteMessage"]
    )
    assert kinds["ReplaceMessage"] / actions == pytest.approx(
        stream.WRITE_SHARE, abs=0.02
    )
    assert kinds["UpvoteMessage"] / actions == pytest.approx(
        stream.UPVOTE_SHARE, abs=0.02
    )


def test_host_probe_runs_without_the_collector_and_restores_it():
    calls = []
    gc.callbacks.append(lambda phase, info: calls.append(phase))
    try:
        samples: list[float] = []
        hostspeed.sample(samples)
    finally:
        gc.callbacks.pop()
    assert calls == [] and gc.isenabled()
    assert len(samples) == hostspeed.SAMPLES


def test_timings_average_a_pass_and_take_the_median_over_passes():
    def job(run_s: float, ops: int, drain_s: float) -> workloads.Job:
        return workloads.Job(run_s=run_s, ops=ops, drains_s=[drain_s])

    jobs = [job(1.0, 10, 0.001), job(1.0, 10, 0.001), job(4.0, 40, 0.004),
            job(6.0, 30, 0.006), job(6.0, 30, 0.006), job(6.0, 30, 0.006)]
    got = timings(jobs, [1.0, 1.0, 1.0, 0.5, 0.5, 0.5], per_pass=3)
    assert got["run_s"] == pytest.approx(2.5)  # passes: 2.0 and 3.0
    assert got["ops_per_s"] == pytest.approx(10.0)
    assert got["commit_ms_p50"] == pytest.approx(2.5)
    assert got["commit_ms_p95"] == pytest.approx(2.5)


def test_setup_scales_the_import_by_the_first_job_and_each_job_by_its_own():
    jobs = [workloads.Job(setup_s=s) for s in (0.1, 0.4, 0.3)]
    assert setup(0.2, jobs, [2.0, 0.5, 1.0]) == pytest.approx(0.4 + 0.2)


def test_crowd_panel_is_fixed_by_the_seed():
    assert workloads.panel("crowd-session", 3) == [15, 16, 17, 18, 19]
    assert workloads.panel("live-ingest", 3) == [3]


def test_reconciliation_reports_a_send_the_trace_missed():
    ops, sim, network, backend, sinks = workloads._ingest_rig(
        3, 50, workloads.NULL_OBS, None
    )
    backend.start()
    sim.run()
    send = network.send  # bound before tracing: bypasses the wrapper
    trace = layers.LayerTrace(workloads.BackendServer)
    ctx = {"network": network, "backend": backend, "obs": workloads.NULL_OBS}
    trace.install(ctx)
    try:
        _, sends = ops.ticks[0]
        for source, message in sends:
            send(source, SERVER_NAME, message)
        sim.run()
    finally:
        trace.remove()
    trace.metrics(ctx, 1.0)
    assert any(
        mismatch.startswith("net.messages_sent") for mismatch in trace.mismatches
    )


def test_benchmark_json_declares_what_the_runs_print():
    declared = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {
        m["name"]: m["unit"] for m in declared["per_layer"]
    } == layers.PER_LAYER_UNITS
