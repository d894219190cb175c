"""Layer-attributed tracing of one benchmark job, from outside ``repro``.

:class:`LayerTrace` wraps the public entry points of each ``src/repro``
layer with spans and counters for the measured phase of one job, then
puts every original back.  Nothing in ``repro`` is edited: class
methods are patched on the class and restored, and the observability
facade is patched on the instance the workload built.

Each layer's counts are then reconciled with the program's own
counters (network stats, trace length, change-stream positions, WAL
record counts, ...): a disagreement fails the run, because metrics
that disagree with the system measure nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any

from repro.cdc.leaderboard import LeaderboardView
from repro.cdc.subscription import ChangeStream, Subscription
from repro.cdc.view import CdcView
from repro.client.worker_client import WorkerClient
from repro.constraints.central import CENTRAL_CLIENT_ID, CentralClient
from repro.core.messages import InsertMessage
from repro.core.table import CandidateTable
from repro.durability.wal import DurableStore
from repro.net.network import Network
from repro.obs.tracing import Span
from repro.pay.estimator import CompensationEstimator
from repro.server.backend import BackendServer
from repro.server.shard import ExchangeBatch, ShardedBackend, ShardServer
from repro.sim.kernel import Simulator
from repro.workers.policy import DiligentPolicy
from repro.workers.simulated import SimulatedWorker

from spans import Patcher, SpanRecorder, median, quantile, spanned

#: Entry points wrapped in a span and nothing else: (owner class,
#: method, span name).  The rest are wrapped in :meth:`LayerTrace.install`
#: because they are also counted.
SPANNED = (
    (DiligentPolicy, "choose", "workers.choose"),
    (SimulatedWorker, "_cycle", "workers.act"),
    (SimulatedWorker, "_execute", "workers.act"),
    (CompensationEstimator, "on_record", "pay.on_record"),
    (LeaderboardView, "refresh", "cdc.consume"),
    (ShardedBackend, "_on_shard_restart", "server.restart"),
)

OBS_METHODS = ("inc", "gauge", "observe", "span", "event")

#: Self-time metric per span name; the layer is the part before the dot.
SELF_TIME_METRICS = {
    "sim": "sim.self_s",
    "net.send": "net.send_s",
    "net.deliver": "net.deliver_s",
    "server.drain": "server.drain_self_s",
    "server.restart": "server.restart_self_s",
    "core.apply_batch": "core.apply_batch_s",
    "constraints.refresh": "constraints.refresh_s",
    "workers.choose": "workers.choose_s",
    "workers.act": "workers.act_s",
    "pay.on_record": "pay.on_record_s",
    "client.remote_apply": "client.remote_apply_s",
    "client.local_action": "client.local_action_s",
    "exchange.flush": "exchange.flush_s",
    "exchange.receive": "exchange.receive_s",
    "durability.wal_append": "durability.wal_append_s",
    "durability.checkpoint": "durability.checkpoint_s",
    "durability.recover": "durability.recover_s",
    "cdc.note": "cdc.note_s",
    "cdc.consume": "cdc.consume_s",
    "obs": "obs.self_s",
}

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    "workers.decisions": "count",
    "workers.choose_ms_p50": "ms",
    "workers.choose_ms_p95": "ms",
    "workers.conflicts": "count",
    "workers.action_ratio": "ratio",
    "pay.records": "count",
    "pay.on_record_ms_p95": "ms",
    "client.remote_applied": "count",
    "client.local_actions": "count",
    "core.apply_batch_calls": "count",
    "server.drains": "count",
    "server.ops_committed": "count",
    "server.ops_per_batch": "ops/batch",
    "server.apply_errors": "count",
    "server.restart_s": "s",
    "constraints.refresh_calls": "count",
    "constraints.pri_inserts": "count",
    "constraints.useful_ratio": "ratio",
    "net.messages_sent": "count",
    "net.messages_delivered": "count",
    "net.messages_dropped": "count",
    "net.bytes_sent": "bytes",
    "sim.events": "count",
    "exchange.batches": "count",
    "exchange.ops": "count",
    "exchange.backlog_max": "ops",
    "durability.wal_appends": "count",
    "durability.wal_bytes_per_op": "bytes/op",
    "durability.checkpoints": "count",
    "durability.records_replayed": "count",
    "cdc.notes": "count",
    "cdc.events_consumed": "count",
    "cdc.resyncs": "count",
    "obs.calls": "count",
    "obs.spans_evicted": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def wire_bytes(payload: Any) -> int:
    """Size of *payload* as compact JSON: messages through their wire
    codec, exchange batches as their field tuple."""
    if isinstance(payload, ExchangeBatch):
        doc: Any = [
            payload.shard_id,
            payload.first_lseq,
            payload.values,
            payload.workers,
            payload.ops,
        ]
    else:
        doc = payload.to_dict()
    return len(json.dumps(doc, separators=(",", ":"), default=str))


def servers(ctx: dict[str, Any]) -> list[Any]:
    """The job's server objects: every shard, or the one backend."""
    backend = ctx["backend"]
    return list(getattr(backend, "shards", [backend]))


def program_counters(ctx: dict[str, Any]) -> Counter:
    """The program's own counters for everything the trace counts."""
    out: Counter = Counter()
    stats = ctx["network"].stats
    out["net.messages_sent"] = stats.messages_sent
    out["net.messages_delivered"] = stats.messages_delivered
    out["net.messages_dropped"] = stats.messages_dropped
    for server in servers(ctx):
        out["cdc.position"] += server.changes.position
        commit_log = getattr(server, "commit_log", None)
        out["server.committed"] += (
            len(commit_log) if commit_log is not None else len(server.trace)
        )
        out["exchange.batches"] += getattr(server, "exchange_batches_sent", 0)
        out["exchange.ops"] += getattr(server, "exchange_ops_sent", 0)
        out["exchange.received"] += getattr(
            server, "exchange_batches_received", 0
        )
        if server.durable is not None:
            log = server.durable.log
            out["durability.wal_appends"] += log.records_appended
            out["durability.wal_bytes"] += log.size_bytes
            out["durability.checkpoints"] += server.durable.checkpoints_taken
            out["durability.recoveries"] += server.durable.recoveries
    for client in ctx.get("clients", {}).values():
        out["client.local_actions"] += client.actions_performed
        out["client.remote_applied"] += client.messages_received
    for worker in ctx.get("workers", {}).values():
        out["workers.conflicts"] += worker.log.conflicts
    estimator = ctx.get("estimator")
    if estimator is not None:
        out["pay.records"] = len(estimator.records)
    for view in ctx.get("views", ()):
        out["cdc.events_applied"] += view.events_applied
        out["cdc.resyncs"] += view.sub.snapshot_fallbacks
    obs = ctx["obs"]
    if obs.enabled:
        out["obs.recorded"] = obs.tracer._recorded
        out["obs.evicted"] = obs.tracer.to_dict()["evicted"]
        out["obs.sim_events"] = obs.metrics.counter_value("sim.events_fired")
        for server in servers(ctx):
            out["obs.batches"] += obs.metrics.counter_value(
                f"{server.endpoint}.batches"
            )
    return out


class LayerTrace:
    """Spans and counts of one job's measured phase.

    Args:
        server_class: the class whose ``_drain`` is the drain the
            simulator dispatches (``ShardServer`` on a sharded backend,
            where it wraps the base drain and the exchange flush).
    """

    def __init__(self, server_class: type) -> None:
        self.server_class = server_class
        self.rec = SpanRecorder()
        self.patcher = Patcher()
        self.n: Counter = Counter()
        self.payloads: list[tuple[Any, int]] = []
        self.centrals: dict[int, tuple[Any, dict[str, int]]] = {}
        self.mismatches: list[str] = []
        self.before: Counter = Counter()

    # -- installing --------------------------------------------------------

    def install(self, ctx: dict[str, Any]) -> None:
        self.before = program_counters(ctx)
        central = ctx["backend"].central
        if central is not None:
            self._track_central(central)
        rec, n, patch = self.rec, self.n, self.patcher.patch
        for owner, attr, name in SPANNED:
            patch(owner, attr, lambda fn, name=name: spanned(rec, name, fn))

        def counted(name: str, key: str, fn: Any, amount: Any = None) -> Any:
            inner = spanned(rec, name, fn)

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = inner(*args, **kwargs)
                n[key] += 1 if amount is None else amount(args, result)
                return result

            return wrapper

        patch(Simulator, "run", lambda fn: counted(
            "sim", "sim.events", fn, lambda args, fired: fired
        ))
        patch(Network, "send", lambda fn: self._send(spanned(rec, "net.send", fn)))
        patch(Network, "broadcast", lambda fn: self._broadcast(
            spanned(rec, "net.send", fn)
        ))
        patch(Network, "_deliver", lambda fn: counted(
            "net.deliver", "net.delivered", fn
        ))
        patch(self.server_class, "_drain", lambda fn: spanned(
            rec, "server.drain", fn
        ))
        patch(self.server_class, "_apply_and_trace", self._apply_and_trace)
        patch(CandidateTable, "apply_batch", lambda fn: counted(
            "core.apply_batch", "core.batch_ops", fn,
            lambda args, applied: applied,
        ))
        patch(CentralClient, "refresh", self._refresh)
        patch(SimulatedWorker, "_retry_after_conflict", lambda fn: counted(
            "workers.act", "workers.retries", fn
        ))
        patch(WorkerClient, "on_message", lambda fn: counted(
            "client.remote_apply", "client.remote_applied", fn
        ))
        for action in ("fill", "upvote", "downvote"):
            patch(WorkerClient, action, lambda fn: counted(
                "client.local_action", "client.local_actions", fn
            ))
        patch(ShardServer, "_receive_exchange", lambda fn: counted(
            "exchange.receive", "exchange.received", fn
        ))
        patch(ShardServer, "_flush_exchange", self._flush)
        patch(DurableStore, "append", lambda fn: counted(
            "durability.wal_append", "durability.wal_appends", fn
        ))
        patch(BackendServer, "_take_checkpoint", lambda fn: counted(
            "durability.checkpoint", "durability.checkpoints", fn
        ))
        patch(ShardServer, "recover", lambda fn: counted(
            "durability.recover", "durability.records_replayed", fn,
            lambda args, replayed: replayed,
        ))
        patch(ChangeStream, "note", lambda fn: counted(
            "cdc.note", "cdc.notes", fn
        ))
        patch(CdcView, "refresh", lambda fn: counted(
            "cdc.consume", "cdc.events_consumed", fn,
            lambda args, applied: applied,
        ))
        patch(Subscription, "resync", lambda fn: counted(
            "cdc.consume", "cdc.resyncs", fn
        ))
        obs = ctx["obs"]
        if obs.enabled:
            for method in OBS_METHODS:
                patch(obs, method, lambda fn, m=method: counted(
                    "obs", f"obs.{m}", fn
                ))
            patch(Span, "set", lambda fn: counted("obs", "obs.set", fn))
            patch(Span, "close", self._span_close)

    def remove(self) -> None:
        self.patcher.restore()

    # -- wrappers that need more than a span and a count --------------------

    def _send(self, inner: Any) -> Any:
        n, payloads = self.n, self.payloads

        def send(net: Any, source: str, destination: str, payload: Any) -> None:
            n["net.sent"] += 1
            payloads.append((payload, 1))
            if isinstance(payload, ExchangeBatch):
                n["exchange.batches"] += 1
                n["exchange.ops"] += len(payload)
            inner(net, source, destination, payload)

        return send

    def _broadcast(self, inner: Any) -> Any:
        n, payloads = self.n, self.payloads

        def broadcast(net: Any, source: str, destinations: list, payload: Any) -> None:
            n["net.sent"] += len(destinations)
            payloads.append((payload, len(destinations)))
            inner(net, source, destinations, payload)

        return broadcast

    def _apply_and_trace(self, fn: Any) -> Any:
        n = self.n

        def apply_and_trace(server: Any, message: Any, worker_id: Any) -> Any:
            record = fn(server, message, worker_id)
            if isinstance(worker_id, str):  # a local commit, not an exchange
                n["server.ops_committed"] += 1
                if worker_id == CENTRAL_CLIENT_ID:
                    if isinstance(message, InsertMessage):
                        n["constraints.cc_inserts"] += 1
                else:
                    n["server.worker_ops"] += 1
            return record

        return apply_and_trace

    def _track_central(self, central: Any) -> None:
        """Remember a Central Client and its counters when first seen (a
        crashed primary's recovery builds a new one mid-phase)."""
        if id(central) not in self.centrals:
            stats = central.stats
            self.centrals[id(central)] = (
                central, {"refreshes": stats.refreshes, "inserts": stats.inserts}
            )

    def _central_delta(self, attr: str) -> int:
        return sum(
            getattr(central.stats, attr) - base[attr]
            for central, base in self.centrals.values()
        )

    def _refresh(self, fn: Any) -> Any:
        inner = spanned(self.rec, "constraints.refresh", fn)
        n, track = self.n, self._track_central

        def refresh(central: Any) -> None:
            track(central)
            stats = central.stats
            before = stats.inserts + stats.shuffles
            inner(central)
            n["constraints.refresh_calls"] += 1
            if stats.inserts + stats.shuffles > before:
                n["constraints.useful"] += 1

        return refresh

    def _flush(self, fn: Any) -> Any:
        inner = spanned(self.rec, "exchange.flush", fn)
        n = self.n

        def flush(shard: Any) -> None:
            backlog = sum(
                len(shard.commit_log) - shard.sent_watermark(peer)
                for peer in shard.peers
            )
            n["exchange.backlog_max"] = max(n["exchange.backlog_max"], backlog)
            inner(shard)

        return flush

    def _span_close(self, fn: Any) -> Any:
        inner = spanned(self.rec, "obs", fn)
        n = self.n

        def close(span: Any) -> None:
            if span.end is None:
                n["obs.recorded_spans"] += 1
            n["obs.close"] += 1
            inner(span)

        return close

    # -- results -------------------------------------------------------------

    def metrics(self, ctx: dict[str, Any], run_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced phase (without the overhead,
        which needs the untraced run)."""
        rec, n = self.rec, self.n
        after = program_counters(ctx)
        delta = after - self.before
        self_times = rec.self_times()
        out: dict[str, float] = {
            metric: self_times.get(name, 0.0)
            for name, metric in SELF_TIME_METRICS.items()
        }
        choose = [d * 1000 for d in rec.durations("workers.choose")]
        drains = rec.count("server.drain")
        batches = rec.count("core.apply_batch")
        refreshes = n["constraints.refresh_calls"]
        committed = n["server.ops_committed"]
        appends = n["durability.wal_appends"]
        out.update({
            "workers.decisions": rec.count("workers.choose"),
            "workers.choose_ms_p50": quantile(choose, 0.5),
            "workers.choose_ms_p95": quantile(choose, 0.95),
            "workers.conflicts": n["workers.retries"],
            "workers.action_ratio": (
                n["server.worker_ops"] / len(choose) if choose else 0.0
            ),
            "pay.records": rec.count("pay.on_record"),
            "pay.on_record_ms_p95": quantile(
                [d * 1000 for d in rec.durations("pay.on_record")], 0.95
            ),
            "client.remote_applied": n["client.remote_applied"],
            "client.local_actions": n["client.local_actions"],
            "core.apply_batch_calls": batches,
            "server.drains": drains,
            "server.ops_committed": committed,
            "server.ops_per_batch": n["core.batch_ops"] / batches if batches else 0.0,
            "server.apply_errors": 0,
            "server.restart_s": sum(rec.durations("server.restart")),
            "constraints.refresh_calls": refreshes,
            "constraints.pri_inserts": self._central_delta("inserts"),
            "constraints.useful_ratio": (
                n["constraints.useful"] / refreshes if refreshes else 0.0
            ),
            "net.messages_sent": n["net.sent"],
            "net.messages_delivered": n["net.delivered"],
            "net.messages_dropped": delta["net.messages_dropped"],
            "net.bytes_sent": sum(
                wire_bytes(payload) * copies for payload, copies in self.payloads
            ),
            "sim.events": n["sim.events"],
            "exchange.batches": n["exchange.batches"],
            "exchange.ops": n["exchange.ops"],
            "exchange.backlog_max": n["exchange.backlog_max"],
            "durability.wal_appends": appends,
            "durability.wal_bytes_per_op": (
                delta["durability.wal_bytes"] / appends if appends else 0.0
            ),
            "durability.checkpoints": n["durability.checkpoints"],
            "durability.records_replayed": n["durability.records_replayed"],
            "cdc.notes": n["cdc.notes"],
            "cdc.events_consumed": n["cdc.events_consumed"],
            "cdc.resyncs": n["cdc.resyncs"],
            "obs.calls": sum(
                n[f"obs.{m}"] for m in (*OBS_METHODS, "set", "close")
            ),
            "obs.spans_evicted": delta["obs.evicted"],
            "trace.unattributed_s": run_s - rec.root_time(),
        })
        self.mismatches = self._reconcile(ctx, out, delta)
        return out

    def _reconcile(
        self, ctx: dict[str, Any], out: dict[str, float], delta: Counter
    ) -> list[str]:
        """Outside counts that must equal the program's own counters."""
        n = self.n
        pairs = [
            ("net.messages_sent", out["net.messages_sent"], delta["net.messages_sent"]),
            ("net.messages_delivered", out["net.messages_delivered"],
             delta["net.messages_delivered"]),
            ("server.ops_committed", out["server.ops_committed"],
             delta["server.committed"]),
            ("cdc.notes", out["cdc.notes"], delta["cdc.position"]),
            ("exchange.batches", out["exchange.batches"], delta["exchange.batches"]),
            ("exchange.ops", out["exchange.ops"], delta["exchange.ops"]),
            ("exchange.receive calls", n["exchange.received"],
             delta["exchange.received"]),
            ("durability.wal_appends", out["durability.wal_appends"],
             delta["durability.wal_appends"]),
            ("durability.checkpoints", out["durability.checkpoints"],
             delta["durability.checkpoints"]),
            ("durability.recover calls", self.rec.count("durability.recover"),
             delta["durability.recoveries"]),
            ("client.local_actions", out["client.local_actions"],
             delta["client.local_actions"]),
            ("client.remote_applied", out["client.remote_applied"],
             delta["client.remote_applied"]),
            ("workers.conflicts", out["workers.conflicts"], delta["workers.conflicts"]),
            ("pay.records", out["pay.records"], delta["pay.records"]),
            ("constraints.refresh_calls", out["constraints.refresh_calls"],
             self._central_delta("refreshes")),
            ("constraints.pri_inserts", out["constraints.pri_inserts"],
             n["constraints.cc_inserts"]),
            ("cdc.events_consumed", out["cdc.events_consumed"],
             delta["cdc.events_applied"]),
            ("cdc.resyncs", out["cdc.resyncs"], delta["cdc.resyncs"]),
        ]
        if ctx["obs"].enabled:
            pairs += [
                ("sim.events", out["sim.events"], delta["obs.sim_events"]),
                ("core.apply_batch_calls", out["core.apply_batch_calls"],
                 delta["obs.batches"]),
                ("obs recorded spans+events",
                 n["obs.recorded_spans"] + n["obs.event"], delta["obs.recorded"]),
            ]
        return [
            f"{name}: traced {ours} != program {theirs}"
            for name, ours, theirs in pairs
            if ours != theirs
        ]


def summarize(
    traced: list[dict[str, float]], overheads: list[float]
) -> dict[str, float]:
    """Median of each per-layer metric over the traced jobs, plus the
    median traced-minus-untraced run time of same-seed job pairs as
    ``trace.overhead_s``."""
    out = {
        name: median([metrics[name] for metrics in traced])
        for name in traced[0]
    }
    out["trace.overhead_s"] = median(overheads)
    return out
