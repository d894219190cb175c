"""Seedable link-level fault injection for the simulated network.

The convergence theorem (paper section 2.4) assumes reliable, in-order
delivery.  This module is the controlled way to *violate* that
assumption so the rest of the system — sessions, trace-suffix resync, offline
buffering — can be shown to restore it.

Fault model (connection-breaking):

- Faults are expressed as *windows* of simulated time attached to
  endpoints (disconnects, server-side partitions) or links (latency
  spikes).
- A disconnect or partition window **breaks the endpoint's
  connection**: at window start every in-flight message to or from the
  endpoint is purged from the wire (TCP teardown loses unacked data),
  and while the window is open any new send touching the endpoint is
  dropped.  Purged *outbound* messages can be handed back to the sender
  (see :meth:`FaultInjector.bind`) the way an application-level resend
  buffer would keep them.
- A latency spike multiplies sampled link latencies during its window.
  It never reorders: the channel's monotone delivery-time clamp keeps
  each link FIFO no matter how the spike starts or ends.
- A *crash window* (:class:`ShardCrashWindow`) is strictly worse than a
  disconnect: besides breaking every connection, the endpoint's
  volatile state is destroyed at window start (the bound ``on_crash``
  handler performs the destruction — see
  ``ShardedBackend.bind_faults``), and at window end the ``on_restart``
  handler must rebuild it from durable state (WAL + checkpoint replay).
  Crash windows therefore require a finite end and may not overlap on
  one endpoint.

Because drops only ever happen as part of connection breaking, any
message stream actually *delivered* on a link is a prefix of the stream
sent on it — the invariant the back-end's count-acknowledged resync
protocol (``BackendServer.reattach_client``) relies on.

Everything is seedable: :meth:`FaultPlan.generate` derives a plan from a
``random.Random``, and the injector schedules its window events
deterministically, so one seed reproduces one fault schedule exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.net.network import Network
from repro.sim import Simulator


class FaultPlanError(ValueError):
    """A fault plan is malformed (bad window bounds, bad factor)."""


@dataclass(frozen=True)
class DisconnectWindow:
    """Endpoint *endpoint* is disconnected during [start, end).

    ``end`` may be ``math.inf`` for a crash that never rejoins.
    """

    endpoint: str
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.start < 0 or not self.end > self.start:
            raise FaultPlanError(
                f"bad disconnect window [{self.start}, {self.end}) "
                f"for {self.endpoint!r}"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """A server-side partition: every listed endpoint is cut off during
    [start, end) — sugar for simultaneous disconnect windows."""

    endpoints: tuple[str, ...]
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if not self.endpoints:
            raise FaultPlanError("partition window needs at least one endpoint")
        if self.start < 0 or not self.end > self.start:
            raise FaultPlanError(
                f"bad partition window [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class ShardPartitionWindow:
    """A link-level partition between endpoint *groups* during [start, end).

    Unlike :class:`DisconnectWindow`/:class:`PartitionWindow`, no
    endpoint goes down: every endpoint keeps talking within its own
    group (and to endpoints in no group at all), but each directed link
    crossing between two groups is severed — in-flight messages on the
    crossing links are purged at window start, and sends on them are
    dropped while the window is open.  This models a network partition
    between backend shards (:mod:`repro.server.shard`): each side keeps
    serving its own clients and committing its own operations, and the
    shard exchange protocol must reconcile the halves at heal time.
    """

    groups: tuple[tuple[str, ...], ...]
    start: float
    end: float = math.inf

    def __post_init__(self) -> None:
        if len(self.groups) < 2 or any(not group for group in self.groups):
            raise FaultPlanError(
                "shard partition needs >= 2 non-empty groups"
            )
        seen: set[str] = set()
        for group in self.groups:
            for endpoint in group:
                if endpoint in seen:
                    raise FaultPlanError(
                        f"endpoint {endpoint!r} appears in two groups"
                    )
                seen.add(endpoint)
        if self.start < 0 or not self.end > self.start:
            raise FaultPlanError(
                f"bad shard-partition window [{self.start}, {self.end})"
            )

    def cut_links(self) -> list[tuple[str, str]]:
        """Every directed link crossing between two groups, sorted."""
        links: list[tuple[str, str]] = []
        for i, group in enumerate(self.groups):
            for j, other in enumerate(self.groups):
                if i == j:
                    continue
                links.extend(
                    (a, b) for a in group for b in other
                )
        return sorted(links)

    def label(self) -> str:
        """A stable human-readable id for events and forensics."""
        return "|".join(",".join(group) for group in self.groups)


@dataclass(frozen=True)
class ShardCrashWindow:
    """Shard *endpoint* crash-stops at *start* and restarts at *end*.

    Unlike a :class:`DisconnectWindow`, a crash destroys the endpoint's
    volatile state — table, sessions, exchange bookkeeping, in-flight
    wire traffic — leaving only its durable store (WAL + checkpoints).
    The end must be finite: recovery is the point of the exercise, and
    a crash that never restarts is just a permanent
    :class:`DisconnectWindow`.
    """

    endpoint: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if (
            self.start < 0
            or not self.end > self.start
            or math.isinf(self.end)
        ):
            raise FaultPlanError(
                f"bad crash window [{self.start}, {self.end}) "
                f"for {self.endpoint!r} (end must be finite and > start)"
            )


@dataclass(frozen=True)
class LatencySpike:
    """Multiply sampled latencies by *factor* during [start, end).

    ``source``/``destination`` of ``None`` match any endpoint, so a
    spike can target one directed link, everything into or out of one
    endpoint, or the whole network.
    """

    start: float
    end: float
    factor: float
    source: str | None = None
    destination: str | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or not self.end > self.start:
            raise FaultPlanError(f"bad spike window [{self.start}, {self.end})")
        if self.factor <= 0:
            raise FaultPlanError(f"spike factor must be positive: {self.factor}")

    def matches(self, source: str, destination: str) -> bool:
        return (self.source is None or self.source == source) and (
            self.destination is None or self.destination == destination
        )


def _merge_windows(
    windows: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Merge overlapping/touching [start, end) windows into disjoint ones."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, immutable schedule of faults.

    Plans compose: windows for the same endpoint may overlap; the
    injector acts on the merged union, so an endpoint disconnects once
    per contiguous outage regardless of how the plan expressed it.
    """

    disconnects: tuple[DisconnectWindow, ...] = ()
    partitions: tuple[PartitionWindow, ...] = ()
    spikes: tuple[LatencySpike, ...] = ()
    shard_partitions: tuple[ShardPartitionWindow, ...] = ()
    crashes: tuple[ShardCrashWindow, ...] = ()

    def __post_init__(self) -> None:
        # Crash windows are the one kind that may NOT overlap per
        # endpoint: a crashed shard cannot crash again before it
        # restarts, and unlike outages the union of two crash windows
        # is not equivalent to either (each boundary destroys state).
        by_endpoint: dict[str, list[ShardCrashWindow]] = {}
        for window in self.crashes:
            by_endpoint.setdefault(window.endpoint, []).append(window)
        for endpoint, windows in sorted(by_endpoint.items()):
            windows.sort(key=lambda w: w.start)
            for prev, nxt in zip(windows, windows[1:]):
                if nxt.start < prev.end:
                    raise FaultPlanError(
                        f"overlapping crash windows for {endpoint!r}: "
                        f"[{prev.start}, {prev.end}) and "
                        f"[{nxt.start}, {nxt.end})"
                    )

    @property
    def is_empty(self) -> bool:
        return not (
            self.disconnects
            or self.partitions
            or self.spikes
            or self.shard_partitions
            or self.crashes
        )

    def faulted_endpoints(self) -> list[str]:
        """Endpoints with at least one outage window, sorted."""
        names = {window.endpoint for window in self.disconnects}
        for partition in self.partitions:
            names.update(partition.endpoints)
        return sorted(names)

    def crashed_endpoints(self) -> list[str]:
        """Endpoints with at least one crash window, sorted."""
        return sorted({window.endpoint for window in self.crashes})

    def to_dict(self) -> dict:
        """JSON-serializable form (``math.inf`` ends map to ``null``),
        round-tripped by :func:`fault_plan_from_dict` — the codec
        behind ``repro run --fault-plan plan.json``."""

        def end_part(end: float) -> float | None:
            return None if end == math.inf else end

        return {
            "disconnects": [
                {
                    "endpoint": w.endpoint,
                    "start": w.start,
                    "end": end_part(w.end),
                }
                for w in self.disconnects
            ],
            "partitions": [
                {
                    "endpoints": list(w.endpoints),
                    "start": w.start,
                    "end": end_part(w.end),
                }
                for w in self.partitions
            ],
            "spikes": [
                {
                    "start": s.start,
                    "end": s.end,
                    "factor": s.factor,
                    "source": s.source,
                    "destination": s.destination,
                }
                for s in self.spikes
            ],
            "shard_partitions": [
                {
                    "groups": [list(group) for group in w.groups],
                    "start": w.start,
                    "end": end_part(w.end),
                }
                for w in self.shard_partitions
            ],
            "crashes": [
                {"endpoint": w.endpoint, "start": w.start, "end": w.end}
                for w in self.crashes
            ],
        }

    def outage_windows(self, endpoint: str) -> list[tuple[float, float]]:
        """Merged, disjoint outage windows for *endpoint*."""
        windows = [
            (w.start, w.end) for w in self.disconnects if w.endpoint == endpoint
        ]
        windows.extend(
            (p.start, p.end)
            for p in self.partitions
            if endpoint in p.endpoints
        )
        return _merge_windows(windows)

    def latency_factor(
        self, source: str, destination: str, now: float
    ) -> float:
        """Combined spike multiplier for one link at time *now*."""
        factor = 1.0
        for spike in self.spikes:
            if spike.start <= now < spike.end and spike.matches(
                source, destination
            ):
                factor *= spike.factor
        return factor

    @classmethod
    def generate(
        cls,
        rng: random.Random,
        endpoints: list[str],
        horizon: float,
        outage_prob: float = 0.5,
        max_outages_per_endpoint: int = 2,
        min_outage: float = 0.0,
        max_outage: float | None = None,
        spike_prob: float = 0.25,
        max_spike_factor: float = 20.0,
        shard_groups: tuple[tuple[str, ...], ...] | None = None,
        shard_partition_prob: float = 0.5,
        max_shard_partitions: int = 2,
        crash_endpoints: list[str] | None = None,
        crash_prob: float = 0.5,
        max_crashes_per_endpoint: int = 1,
        min_crash_gap: float = 0.0,
        max_concurrent_crashes: int = 1,
    ) -> "FaultPlan":
        """Draw a random plan over *endpoints* within [0, horizon).

        Deterministic in *rng*: the same seeded stream yields the same
        plan.  Outage windows always close before *horizon*, so every
        generated fault heals and convergence remains checkable.

        When *shard_groups* names two or more endpoint groups, the plan
        may additionally contain :class:`ShardPartitionWindow`s cutting
        the links between the groups (each drawn with probability
        *shard_partition_prob*, up to *max_shard_partitions* windows);
        these too always close before *horizon*.

        When *crash_endpoints* names durable endpoints (shards), the
        plan may contain :class:`ShardCrashWindow`s: each endpoint
        draws up to *max_crashes_per_endpoint* windows with probability
        *crash_prob* each, candidate windows closer than
        *min_crash_gap* to an accepted window on the same endpoint are
        skipped (a machine that just died does not die again
        instantly), and a window is skipped whenever accepting it could
        put more than *max_concurrent_crashes* endpoints down at once —
        so ``max_concurrent_crashes < len(shards)`` guarantees a
        surviving quorum whose WALs cover the crashed shard's lost
        tail.  Crash windows always close before *horizon*.
        """
        if horizon <= 0:
            raise FaultPlanError(f"horizon must be positive: {horizon}")
        if max_concurrent_crashes < 1:
            raise FaultPlanError(
                f"max_concurrent_crashes must be >= 1: {max_concurrent_crashes}"
            )
        if min_crash_gap < 0:
            raise FaultPlanError(
                f"min_crash_gap must be >= 0: {min_crash_gap}"
            )
        max_outage = horizon if max_outage is None else max_outage
        disconnects: list[DisconnectWindow] = []
        spikes: list[LatencySpike] = []
        for endpoint in endpoints:
            if rng.random() >= outage_prob:
                continue
            for _ in range(rng.randint(1, max_outages_per_endpoint)):
                start = rng.uniform(0.0, horizon * 0.9)
                length = rng.uniform(
                    min_outage, min(max_outage, horizon - start)
                )
                end = min(start + max(length, 1e-9), horizon)
                disconnects.append(DisconnectWindow(endpoint, start, end))
        if endpoints and rng.random() < spike_prob:
            start = rng.uniform(0.0, horizon * 0.9)
            end = rng.uniform(start, horizon) + 1e-9
            spikes.append(
                LatencySpike(
                    start=start,
                    end=end,
                    factor=rng.uniform(1.0, max_spike_factor),
                )
            )
        shard_partitions: list[ShardPartitionWindow] = []
        if shard_groups is not None and len(shard_groups) >= 2:
            for _ in range(max_shard_partitions):
                if rng.random() >= shard_partition_prob:
                    continue
                start = rng.uniform(0.0, horizon * 0.9)
                length = rng.uniform(
                    min_outage, min(max_outage, horizon - start)
                )
                end = min(start + max(length, 1e-9), horizon)
                shard_partitions.append(
                    ShardPartitionWindow(shard_groups, start, end)
                )
        crashes: list[ShardCrashWindow] = []
        for endpoint in crash_endpoints or []:
            accepted: list[tuple[float, float]] = []
            for _ in range(max_crashes_per_endpoint):
                if rng.random() >= crash_prob:
                    continue
                start = rng.uniform(0.0, horizon * 0.8)
                length = rng.uniform(
                    min_outage, min(max_outage, horizon - start)
                )
                end = min(start + max(length, 1e-9), horizon)
                if any(
                    start < e + min_crash_gap and s - min_crash_gap < end
                    for s, e in accepted
                ):
                    continue
                # Conservative concurrency cap: a candidate overlapping
                # k accepted windows could raise instantaneous crash
                # concurrency to k + 1 somewhere inside it.
                overlapping = sum(
                    1 for w in crashes if w.start < end and start < w.end
                )
                if overlapping + 1 > max_concurrent_crashes:
                    continue
                accepted.append((start, end))
                crashes.append(ShardCrashWindow(endpoint, start, end))
        return cls(
            disconnects=tuple(disconnects),
            spikes=tuple(spikes),
            shard_partitions=tuple(shard_partitions),
            crashes=tuple(crashes),
        )


#: The keys :meth:`FaultPlan.to_dict` writes: each window kind, and the
#: keys of one window of that kind.
_WINDOW_KEYS = {
    "disconnects": frozenset({"endpoint", "start", "end"}),
    "partitions": frozenset({"endpoints", "start", "end"}),
    "spikes": frozenset({"start", "end", "factor", "source", "destination"}),
    "shard_partitions": frozenset({"groups", "start", "end"}),
    "crashes": frozenset({"endpoint", "start", "end"}),
}


def fault_plan_from_dict(data: dict) -> FaultPlan:
    """Rebuild a :class:`FaultPlan` from :meth:`FaultPlan.to_dict` output.

    ``null`` window ends map back to ``math.inf``.  A hand-written
    ``plan.json`` fails loudly at load time: a document that is not an
    object, an unknown window kind or an unknown key inside a window
    (a typo would otherwise silently drop the window, or turn a
    misspelled ``end`` into a permanent outage) raise
    :class:`FaultPlanError`, and so do malformed windows, through the
    dataclass validators.
    """
    if not isinstance(data, dict):
        raise FaultPlanError(
            f"a fault plan must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(_WINDOW_KEYS))
    if unknown:
        raise FaultPlanError(
            f"unknown fault-plan key(s) {', '.join(map(repr, unknown))}; "
            f"expected any of {', '.join(map(repr, _WINDOW_KEYS))}"
        )
    for kind, allowed in _WINDOW_KEYS.items():
        windows = data.get(kind, ())
        if not isinstance(windows, (list, tuple)):
            raise FaultPlanError(
                f"{kind!r} must be a list of windows, "
                f"got {type(windows).__name__}"
            )
        for window in windows:
            if not isinstance(window, dict):
                raise FaultPlanError(
                    f"a {kind!r} window must be an object, got {window!r}"
                )
            extra = sorted(set(window) - allowed)
            if extra:
                raise FaultPlanError(
                    f"unknown key(s) {', '.join(map(repr, extra))} in "
                    f"{kind!r} window {window!r}; expected any of "
                    f"{', '.join(map(repr, sorted(allowed)))}"
                )

    def end_part(value: float | None) -> float:
        return math.inf if value is None else float(value)

    return FaultPlan(
        disconnects=tuple(
            DisconnectWindow(
                w["endpoint"], float(w["start"]), end_part(w.get("end"))
            )
            for w in data.get("disconnects", ())
        ),
        partitions=tuple(
            PartitionWindow(
                tuple(w["endpoints"]), float(w["start"]), end_part(w.get("end"))
            )
            for w in data.get("partitions", ())
        ),
        spikes=tuple(
            LatencySpike(
                start=float(s["start"]),
                end=float(s["end"]),
                factor=float(s["factor"]),
                source=s.get("source"),
                destination=s.get("destination"),
            )
            for s in data.get("spikes", ())
        ),
        shard_partitions=tuple(
            ShardPartitionWindow(
                tuple(tuple(group) for group in w["groups"]),
                float(w["start"]),
                end_part(w.get("end")),
            )
            for w in data.get("shard_partitions", ())
        ),
        crashes=tuple(
            ShardCrashWindow(w["endpoint"], float(w["start"]), float(w["end"]))
            for w in data.get("crashes", ())
        ),
    )


@dataclass
class _Handlers:
    """Per-endpoint callbacks driving the detach/reattach choreography."""

    on_disconnect: Callable[[], None] | None = None
    on_reconnect: Callable[[], None] | None = None
    on_requeue: Callable[[list], None] | None = None
    on_crash: Callable[[], None] | None = None
    on_restart: Callable[[], None] | None = None


@dataclass
class FaultEvent:
    """One injector action, for forensics and deterministic-replay tests."""

    time: float
    # "disconnect" | "reconnect" | "shard-partition" | "shard-heal"
    # | "crash" | "restart"
    kind: str
    endpoint: str
    purged: int = 0


class FaultInjector:
    """Executes a :class:`FaultPlan` against one network.

    The injector is the network's :class:`~repro.net.network.FaultFilter`
    *and* the scheduler of the plan's window events.  At each outage
    start it purges the endpoint's in-flight messages, requeues purged
    outbound ones through the bound ``on_requeue`` handler, and invokes
    ``on_disconnect``; at the outage end it invokes ``on_reconnect``.
    A backend's ``bind_faults`` binds every handler a run needs (the
    worker detach/reattach choreography, and on a sharded backend the
    exchange resync and crash/restart handlers).
    """

    def __init__(
        self, sim: Simulator, network: Network, plan: FaultPlan
    ) -> None:
        self.sim = sim
        self.network = network
        self.plan = plan
        self._down: set[str] = set()
        self._crashed: set[str] = set()
        self._handlers: dict[str, _Handlers] = {}
        self.events: list[FaultEvent] = []
        self._installed = False
        # Link-level shard partitions: refcounted cut links (overlapping
        # windows may cut the same link) and the windows currently open.
        self._cut: dict[tuple[str, str], int] = {}
        self._active_partitions: list[ShardPartitionWindow] = []
        self._link_heal_callbacks: list[
            Callable[[list[tuple[str, str]]], None]
        ] = []

    # -- wiring ------------------------------------------------------------

    def bind(
        self,
        endpoint: str,
        on_disconnect: Callable[[], None] | None = None,
        on_reconnect: Callable[[], None] | None = None,
        on_requeue: Callable[[list], None] | None = None,
        on_crash: Callable[[], None] | None = None,
        on_restart: Callable[[], None] | None = None,
    ) -> None:
        """Attach session-choreography callbacks for *endpoint*.

        ``on_requeue`` receives the payloads of purged messages *sent
        by* the endpoint (oldest first) — a client hands them back to
        its outbox so nothing it performed is ever lost.  ``on_crash``
        must destroy the endpoint's volatile state; ``on_restart`` must
        rebuild it from durable state and rejoin (see
        ``ShardedBackend.bind_faults``).
        """
        self._handlers[endpoint] = _Handlers(
            on_disconnect, on_reconnect, on_requeue, on_crash, on_restart
        )

    def on_link_heal(
        self, callback: Callable[[list[tuple[str, str]]], None]
    ) -> None:
        """Register a callback fired when a shard partition heals.

        The callback receives the directed links that just came back up
        (sorted).  The sharded backend wires its shard-resync protocol
        here, the way clients wire ``on_reconnect``.
        """
        self._link_heal_callbacks.append(callback)

    def install(self) -> None:
        """Schedule the plan; filter sends while a window can change one."""
        if self._installed:
            raise RuntimeError("fault injector already installed")
        self._installed = True
        self._refilter()
        for endpoint in self.plan.faulted_endpoints():
            for start, end in self.plan.outage_windows(endpoint):
                self.sim.schedule_at(
                    start, lambda e=endpoint: self._begin_outage(e)
                )
                if end != math.inf:
                    self.sim.schedule_at(
                        end, lambda e=endpoint: self._end_outage(e)
                    )
        for window in self.plan.shard_partitions:
            self.sim.schedule_at(
                window.start, lambda w=window: self._begin_partition(w)
            )
            if window.end != math.inf:
                self.sim.schedule_at(
                    window.end, lambda w=window: self._end_partition(w)
                )
        for window in self.plan.crashes:
            self.sim.schedule_at(
                window.start, lambda w=window: self._begin_crash(w.endpoint)
            )
            self.sim.schedule_at(
                window.end, lambda w=window: self._end_crash(w.endpoint)
            )
        for spike in self.plan.spikes:
            if spike.end != math.inf:
                self.sim.schedule_at(spike.end, self._refilter)

    # -- FaultFilter protocol ----------------------------------------------

    def _refilter(self) -> None:
        """Filter sends while an outage, crash or cut is open, and from the
        next spike's start on: by simulated time, not by event order."""
        now = self.sim.now
        live = self._down or self._crashed or self._cut
        ahead = [spike.start for spike in self.plan.spikes if spike.end > now]
        self.network.set_fault_filter(self if live or ahead else None)
        if self.plan.spikes:
            edge = now if live else min(ahead, default=math.inf)
            self.network.skip_fault_filter_until(edge)

    def should_drop(self, source: str, destination: str) -> bool:
        return (
            source in self._down
            or destination in self._down
            or source in self._crashed
            or destination in self._crashed
            or (source, destination) in self._cut
        )

    def latency_factor(self, source: str, destination: str) -> float:
        return self.plan.latency_factor(source, destination, self.sim.now)

    # -- state -------------------------------------------------------------

    def is_down(self, endpoint: str) -> bool:
        """Is *endpoint* currently inside an outage window?"""
        return endpoint in self._down

    def is_crashed(self, endpoint: str) -> bool:
        """Is *endpoint* currently inside a crash window?"""
        return endpoint in self._crashed

    def is_cut(self, source: str, destination: str) -> bool:
        """Is the directed link currently severed by a shard partition?"""
        return (source, destination) in self._cut

    @property
    def down(self) -> frozenset[str]:
        return frozenset(self._down)

    @property
    def crashed(self) -> frozenset[str]:
        return frozenset(self._crashed)

    @property
    def cut_links(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._cut)

    def force_reconnect_all(self) -> None:
        """Close every open outage, partition and crash now
        (end-of-run convergence checks)."""
        for endpoint in sorted(self._down):
            self._end_outage(endpoint)
        for window in list(self._active_partitions):
            self._end_partition(window)
        for endpoint in sorted(self._crashed):
            self._end_crash(endpoint)

    # -- window events ----------------------------------------------------

    def _begin_outage(self, endpoint: str) -> None:
        if endpoint in self._down:
            return
        self._down.add(endpoint)
        self._refilter()
        dropped = self.network.drop_in_flight(endpoint)
        self.events.append(
            FaultEvent(self.sim.now, "disconnect", endpoint, len(dropped))
        )
        handlers = self._handlers.get(endpoint)
        if handlers is None:
            return
        if handlers.on_requeue is not None:
            outbound = [d.payload for d in dropped if d.source == endpoint]
            if outbound:
                handlers.on_requeue(outbound)
        if handlers.on_disconnect is not None:
            handlers.on_disconnect()

    def _end_outage(self, endpoint: str) -> None:
        if endpoint not in self._down:
            return
        self._down.discard(endpoint)
        self._refilter()
        self.events.append(FaultEvent(self.sim.now, "reconnect", endpoint))
        handlers = self._handlers.get(endpoint)
        if handlers is not None and handlers.on_reconnect is not None:
            handlers.on_reconnect()

    def _begin_partition(self, window: ShardPartitionWindow) -> None:
        if window in self._active_partitions:
            return
        self._active_partitions.append(window)
        fresh = []
        for link in window.cut_links():
            count = self._cut.get(link, 0)
            if count == 0:
                fresh.append(link)
            self._cut[link] = count + 1
        self._refilter()
        purged = (
            self.network.drop_in_flight_links(fresh) if fresh else []
        )
        self.events.append(
            FaultEvent(
                self.sim.now, "shard-partition", window.label(), len(purged)
            )
        )

    def _end_partition(self, window: ShardPartitionWindow) -> None:
        if window not in self._active_partitions:
            return
        self._active_partitions.remove(window)
        healed = []
        for link in window.cut_links():
            count = self._cut.get(link, 0)
            if count <= 1:
                self._cut.pop(link, None)
                healed.append(link)
            else:
                self._cut[link] = count - 1
        self._refilter()
        self.events.append(
            FaultEvent(self.sim.now, "shard-heal", window.label())
        )
        if healed:
            for callback in self._link_heal_callbacks:
                callback(healed)

    def _begin_crash(self, endpoint: str) -> None:
        if endpoint in self._crashed:
            return
        self._crashed.add(endpoint)
        self._refilter()
        # The wire to and from the endpoint dies with the process;
        # nothing is requeued here — a crash loses exactly what a real
        # crash loses, and recovery rebuilds it from the durable log
        # and the surviving peers.
        dropped = self.network.drop_in_flight(endpoint)
        self.events.append(
            FaultEvent(self.sim.now, "crash", endpoint, len(dropped))
        )
        handlers = self._handlers.get(endpoint)
        if handlers is not None and handlers.on_crash is not None:
            handlers.on_crash()

    def _end_crash(self, endpoint: str) -> None:
        if endpoint not in self._crashed:
            return
        self._crashed.discard(endpoint)
        self._refilter()
        self.events.append(FaultEvent(self.sim.now, "restart", endpoint))
        handlers = self._handlers.get(endpoint)
        if handlers is not None and handlers.on_restart is not None:
            handlers.on_restart()
