"""The simulated network: endpoints and FIFO channels.

A :class:`Network` owns a set of named endpoints and one unidirectional
channel per (source, destination) pair, created lazily.  In-order
delivery is enforced per channel: even when a sampled latency would let a
later message overtake an earlier one, its delivery time is clamped to be
no earlier than the previous message's.  This matches the TCP-backed
Socket.IO transport of the paper's implementation.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Protocol, Sequence, runtime_checkable

from repro.net.latency import ConstantLatency, LatencyModel
from repro.sim import RngStreams, Simulator
from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.obs import NullObservability, Observability


@runtime_checkable
class Endpoint(Protocol):
    """Anything that can receive messages from the network."""

    def on_message(self, source: str, payload: Any) -> None:
        """Handle a message delivered from *source*."""
        ...


@dataclass
class NetworkStats:
    """Counters for observability and benchmarks.

    Every sent message is eventually accounted for exactly once, as
    either delivered or dropped, so :attr:`in_flight` re-reaches zero at
    quiescence even under faults, endpoint unregistration, or in-flight
    purges.  Per-link counts live on the network's channels.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    channels: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def per_link_sent(self) -> MappingProxyType[tuple[str, str], int]:
        """Messages sent per directed link, read from the channels."""
        return MappingProxyType({k: c.sent for k, c in self.channels.items()})

    @property
    def in_flight(self) -> int:
        return self.messages_sent - self.messages_delivered - self.messages_dropped


@runtime_checkable
class FaultFilter(Protocol):
    """Decides, at send time, the fate of a message on a link.

    Implemented by :class:`repro.net.faults.FaultInjector`; the network
    consults it on every ``send`` while it is installed.
    """

    def should_drop(self, source: str, destination: str) -> bool:
        """True to silently drop the message (link is down)."""
        ...

    def latency_factor(self, source: str, destination: str) -> float:
        """Multiplier (>= 0) applied to the sampled link latency."""
        ...


@dataclass(frozen=True)
class DroppedMessage:
    """One in-flight message purged from a link (for requeue/forensics)."""

    source: str
    destination: str
    payload: Any


class _Channel:
    """Unidirectional FIFO link: monotone delivery times, own message counts."""

    __slots__ = ("source", "destination", "latency", "constant", "rng",
                 "last_delivery_time", "pending", "sent", "delivered", "dropped")

    def __init__(
        self, source: str, destination: str, latency: LatencyModel, rng: random.Random
    ) -> None:
        self.source, self.destination = source, destination
        self.set_latency(latency)
        self.rng = rng
        self.last_delivery_time = 0.0
        # Deliveries not yet fired, FIFO: a broken connection purges them.
        self.pending: deque[_Delivery] = deque()
        self.sent = self.delivered = self.dropped = 0

    def set_latency(self, latency: LatencyModel) -> None:
        """Use *latency*; a constant one's delay is cached as ``constant``."""
        self.latency = latency
        self.constant = latency.seconds if type(latency) is ConstantLatency else None


_last_delivery_time = attrgetter("last_delivery_time")

#: Resolved fan-outs a network keeps before it starts over: one per
#: (source, recipient tuple) in use, and a server makes a new recipient
#: tuple whenever its client set changes.
_FANOUT_LIMIT = 1024


class _Delivery(Event):
    """One payload due on one or more links at one instant: one heap
    entry, its recipients taking consecutive seqs in channel order.
    A cancelled recipient's channel slot is cleared to ``None``."""

    __slots__ = ("network", "channels", "payload")

    def __init__(
        self, network: Network, time: float, channels: list, payload: Any
    ) -> None:
        self.time, self.cancelled, self.size = time, False, len(channels)
        self.network, self.channels, self.payload = network, channels, payload

    def fire(self) -> None:
        deliver = self.network._deliver
        payload = self.payload
        # The list is read live: a recipient's handler may cancel a later one.
        for channel in self.channels:
            if channel is not None:
                deliver(channel, payload)

    def cancel_on(self, channel: _Channel) -> int:
        """Cancel the last recipient on *channel*, one not yet delivered,
        and return its index."""
        index = max(i for i, c in enumerate(self.channels) if c is channel)
        self.channels[index] = None
        self.skip_one()
        return index


class Network:
    """Routes payloads between registered endpoints via the simulator.

    Example:
        >>> sim = Simulator()
        >>> net = Network(sim)
        >>> class Sink:
        ...     def __init__(self):
        ...         self.got = []
        ...     def on_message(self, source, payload):
        ...         self.got.append((source, payload))
        >>> sink = Sink()
        >>> net.register("a", Sink())
        >>> net.register("b", sink)
        >>> net.send("a", "b", "hello")
        >>> _ = sim.run()
        >>> sink.got
        [('a', 'hello')]
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency: LatencyModel | None = None,
        *,
        streams: RngStreams | None = None,
        obs: "Observability | NullObservability | None" = None,
    ) -> None:
        """Args:
            sim: the simulator that schedules deliveries.
            default_latency: latency model for links without an
                override (default: a constant 50 ms).
            streams: named entropy source; the network draws from its
                ``"network"`` stream.  Keyword-only; defaults to a
                zero-seeded stream.
            obs: optional :class:`repro.obs.Observability`; its
                ``net.messages_*`` counters read :attr:`stats` at
                export, and it receives a latency histogram and
                drop/purge events.  Defaults to the shared no-op.
        """
        from repro.obs import resolve

        self.sim = sim
        self.default_latency = default_latency or ConstantLatency(0.05)
        if streams is not None:
            self.rng = streams.stream("network")
        else:
            self.rng = random.Random(0)
        self.obs = resolve(obs)
        self.stats = NetworkStats()
        self._endpoints: dict[str, Endpoint] = {}
        self._channels = self.stats.channels
        self._link_latency: dict[tuple[str, str], LatencyModel] = {}
        #: (source, destinations) -> (channels, delay) for a send whose
        #: links all exist and share one constant delay; see _send_each.
        self._fanouts: dict[
            tuple[str, tuple[str, ...]], tuple[tuple[_Channel, ...], float]
        ] = {}
        self._fault_filter: FaultFilter | None = None
        self._filter_from = 0.0
        if self.obs.enabled:
            for count in ("sent", "delivered", "dropped"):
                self.obs.metrics.read_through(
                    f"net.messages_{count}",
                    lambda attr=f"messages_{count}": getattr(self.stats, attr),
                )

    def set_fault_filter(self, fault_filter: FaultFilter | None) -> None:
        """Install (or clear) the fault filter consulted on every send."""
        self._fault_filter = fault_filter

    def skip_fault_filter_until(self, time: float) -> None:
        """Pass sends before simulated *time* as if no filter were installed."""
        self._filter_from = time

    def register(self, name: str, endpoint: Endpoint) -> None:
        """Attach *endpoint* under *name*.

        Raises:
            ValueError: if the name is already taken.
        """
        if name in self._endpoints:
            raise ValueError(f"endpoint name already registered: {name!r}")
        self._endpoints[name] = endpoint
        self._fanouts.clear()

    def unregister(self, name: str) -> None:
        """Detach the endpoint; in-flight messages to it are dropped."""
        self._endpoints.pop(name, None)
        self._fanouts.clear()

    def endpoints(self) -> list[str]:
        """Names of all registered endpoints."""
        return sorted(self._endpoints)

    def set_link_latency(
        self, source: str, destination: str, latency: LatencyModel
    ) -> None:
        """Override the latency model for one directed link."""
        key = (source, destination)
        self._link_latency[key] = latency
        self._fanouts.clear()
        if key in self._channels:
            self._channels[key].set_latency(latency)

    def send(self, source: str, destination: str, payload: Any) -> None:
        """Queue *payload* for delivery; fires ``on_message`` later.

        Raises:
            KeyError: if either endpoint is unknown.
        """
        self._send_each(source, (destination,), payload)

    def broadcast(
        self, source: str, destinations: Sequence[str], payload: Any
    ) -> None:
        """Send one *payload* to many *destinations*.

        Per destination this is exactly :meth:`send` — same stats, fault
        consultation, per-channel latency sampling, and FIFO clamping,
        in list order.  Every recipient is handed the same payload
        object; that is safe because payloads are immutable values,
        which crowdlint's ESC001 proves for every send site.

        The links resolved for a recipient tuple are kept under it (see
        :meth:`_send_each`), so a caller sending to the same recipients
        again does best to keep and pass one tuple.

        Raises:
            KeyError: if the source or any destination is unknown.
        """
        if type(destinations) is not tuple:
            destinations = tuple(destinations)
        self._send_each(source, destinations, payload)

    def _send_each(
        self, source: str, destinations: tuple[str, ...], payload: Any
    ) -> None:
        """The one send path: check every endpoint, then count, fault-filter,
        delay and schedule *payload* on each link in order; the recipients
        due at one time share one delivery, in first-appearance order.

        A send with no fault filter in force whose links all exist and
        share one constant delay is resolved once and kept as a fan-out:
        a later send to the same recipients, again without faults and
        with no link's last delivery past ``now + delay`` (so no FIFO
        clamp), schedules its one delivery straight from it.  That is
        what the loop below would do, at a fraction of the cost.
        """
        now = self.sim.now
        faults = self._fault_filter if now >= self._filter_from else None
        if faults is None:
            fanout = self._fanouts.get((source, destinations))
            if fanout is not None:
                channels, delay = fanout
                deliver_at = now + delay
                if max(map(_last_delivery_time, channels)) <= deliver_at:
                    self.stats.messages_sent += len(channels)
                    if self.obs.enabled:
                        self.obs.observe(
                            "net.latency_seconds", delay, len(channels)
                        )
                    delivery = self.sim.schedule_event(
                        _Delivery(self, deliver_at, list(channels), payload)
                    )
                    for channel in channels:
                        channel.sent += 1
                        channel.last_delivery_time = deliver_at
                        channel.pending.append(delivery)
                    return
        if source not in self._endpoints:
            raise KeyError(f"unknown source endpoint: {source!r}")
        for destination in destinations:
            if destination not in self._endpoints:
                raise KeyError(f"unknown destination endpoint: {destination!r}")
        self.stats.messages_sent += len(destinations)
        obs = self.obs
        links = self._channels
        uniform = faults is None
        channels: list[_Channel] = []
        times: list[float] = []
        delays: list[float] = []
        for destination in destinations:
            key = (source, destination)
            channel = links.get(key)
            if channel is None:
                latency = self._link_latency.get(key, self.default_latency)
                rng = random.Random(self.rng.getrandbits(64))
                channel = links[key] = _Channel(*key, latency, rng)
            channel.sent += 1
            if faults is not None and faults.should_drop(source, destination):
                self._drop(channel, "fault")
                continue
            delay = channel.constant
            if delay is None:
                uniform = False
                delay = channel.latency.sample(channel.rng)
            if faults is not None:
                delay *= faults.latency_factor(source, destination)
            delays.append(delay)
            deliver_at = now + delay
            if deliver_at < channel.last_delivery_time:
                deliver_at = channel.last_delivery_time
            channel.last_delivery_time = deliver_at
            channels.append(channel)
            times.append(deliver_at)
        if obs.enabled:
            for delay, run in groupby(delays):
                obs.observe("net.latency_seconds", delay, len(list(run)))
        if uniform and delays and delays.count(delays[0]) == len(delays):
            fanouts = self._fanouts
            key = (source, destinations)
            if key not in fanouts:
                if len(fanouts) >= _FANOUT_LIMIT:
                    fanouts.clear()
                fanouts[key] = (tuple(channels), delays[0])
        schedule = self.sim.schedule_event
        if times and times.count(times[0]) == len(times):
            delivery = schedule(_Delivery(self, times[0], channels, payload))
            for channel in channels:
                channel.pending.append(delivery)
            return
        by_time: dict[float, list[_Channel]] = {}
        for channel, at in zip(channels, times):
            by_time.setdefault(at, []).append(channel)
        for at, group in by_time.items():
            delivery = schedule(_Delivery(self, at, group, payload))
            for channel in group:
                channel.pending.append(delivery)

    def drop_in_flight(self, endpoint: str) -> list[DroppedMessage]:
        """Purge every undelivered message to or from *endpoint*.

        Models the endpoint's transport connections breaking: whatever
        was on the wire is lost.  Returns the purged messages (ordered
        by scheduled delivery) so a caller may requeue outbound ones
        into a client's resend buffer.
        """
        return self._purge(
            lambda key: endpoint in key, "net.purge", endpoint=endpoint
        )

    def drop_in_flight_links(
        self, links: list[tuple[str, str]]
    ) -> list[DroppedMessage]:
        """Purge every undelivered message on the given directed links.

        The link-level sibling of :meth:`drop_in_flight`, used by
        shard-partition windows (:mod:`repro.net.faults`): a partition
        severs specific shard-to-shard links while both endpoints stay
        up for everyone else, so only those channels lose their
        in-flight traffic.
        """
        wanted = set(links)
        return self._purge(
            wanted.__contains__, "net.purge_links", links=len(wanted)
        )

    def _purge(
        self, matches: Callable[[tuple[str, str]], bool], name: str, **attrs: Any
    ) -> list[DroppedMessage]:
        """Cancel and account every pending delivery on the links *matches*
        accepts, and report a nonempty purge as the obs event *name*."""
        purged: list[tuple[float, int, DroppedMessage]] = []
        for key, channel in sorted(self._channels.items()):
            if not matches(key) or not channel.pending:
                continue
            for delivery in channel.pending:
                seq = delivery.seq + delivery.cancel_on(channel)
                dropped = DroppedMessage(*key, delivery.payload)
                purged.append((delivery.time, seq, dropped))
            channel.dropped += len(channel.pending)
            channel.pending.clear()
        self.stats.messages_dropped += len(purged)
        if purged and self.obs.enabled:
            self.obs.inc("net.messages_purged", len(purged))
            self.obs.event(name, **attrs, purged=len(purged))
        purged.sort()
        return [dropped for _, _, dropped in purged]

    def quiescent(self) -> bool:
        """True when no message is in flight on any channel."""
        return self.stats.in_flight == 0

    def check_accounting(self) -> None:
        """Assert the drop-accounting invariant centrally.

        Globally, ``in_flight = sent - delivered - dropped`` must equal
        the number of undelivered scheduled messages (the channels'
        pending deliveries), at every instant.  The same
        conservation law is asserted *per directed link*: each link's
        sent count must decompose into delivered + dropped + on-wire.
        The per-link check is what makes the invariant meaningful for
        shard-to-shard exchange links — a global tally would let a
        message lost on one link be silently offset by a double-count
        on another.  The channels' counts are kept apart from the
        global ones, so their sums must also equal :attr:`stats`.  The
        property suites call it at the end of every run instead of
        re-deriving the arithmetic per test.

        Raises:
            AssertionError: some message was double-counted or lost
                from the accounting.
        """
        pending = sum(len(c.pending) for c in self._channels.values())
        stats = self.stats
        if stats.in_flight != pending:
            raise AssertionError(
                "network drop-accounting invariant violated: "
                f"sent={stats.messages_sent} delivered="
                f"{stats.messages_delivered} dropped={stats.messages_dropped} "
                f"=> in_flight={stats.in_flight}, but channels carry "
                f"{pending} pending"
            )
        for key, c in self._channels.items():
            if c.sent != c.delivered + c.dropped + len(c.pending):
                raise AssertionError(
                    f"link drop-accounting invariant violated on {key!r}: "
                    f"sent={c.sent} delivered={c.delivered} "
                    f"dropped={c.dropped} pending={len(c.pending)}"
                )
        for count in ("sent", "delivered", "dropped"):
            links = sum(getattr(c, count) for c in self._channels.values())
            if links != getattr(stats, f"messages_{count}"):
                raise AssertionError(
                    "link drop-accounting invariant violated: links "
                    f"{count}={links}, but {stats}"
                )

    def _drop(self, channel: _Channel, reason: str) -> None:
        """Account one message on *channel* as dropped, for *reason*."""
        channel.dropped += 1
        self.stats.messages_dropped += 1
        if self.obs.enabled:
            self.obs.event(
                "net.drop",
                source=channel.source,
                destination=channel.destination,
                reason=reason,
            )

    def _deliver(self, channel: _Channel, item: Any) -> None:
        channel.pending.popleft()
        endpoint = self._endpoints.get(channel.destination)
        if endpoint is None:
            # The destination unregistered mid-flight: the message is
            # dropped, not delivered — in_flight still re-reaches zero.
            self._drop(channel, "unregistered")
            return
        channel.delivered += 1
        self.stats.messages_delivered += 1
        endpoint.on_message(channel.source, item)
