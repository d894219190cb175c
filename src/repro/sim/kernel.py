"""The simulator: a clock plus an event queue.

All CrowdFill components in this reproduction — network channels, worker
behaviour models, the back-end server's quiescence detector — run on one
shared :class:`Simulator`.  Simulated time is in seconds.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import Event, EventQueue

if TYPE_CHECKING:
    from repro.obs import NullObservability, Observability


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
        >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
        >>> _ = sim.run()
        >>> fired
        [1.0, 2.0]
    """

    def __init__(
        self, obs: "Observability | NullObservability | None" = None
    ) -> None:
        """Args:
            obs: optional :class:`repro.obs.Observability`.  The event
                loop itself stays uninstrumented per event; aggregate
                counts are folded into the registry after each
                :meth:`run` so the per-event cost is zero.
        """
        from repro.obs import resolve

        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._microtasks: deque[Callable[[], Any]] = deque()
        self.obs = resolve(obs)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def running(self) -> bool:
        """True while :meth:`run` is executing (inside an event/microtask)."""
        return self._running

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire (see :attr:`Event.size`)."""
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], Any]) -> Event:
        """Schedule *action* to run *delay* seconds from now.

        Args:
            delay: nonnegative offset from the current clock.
            action: zero-argument callable.

        Returns:
            The scheduled :class:`Event`, which may be cancelled.

        Raises:
            SimulationError: if *delay* is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], Any]) -> Event:
        """Schedule *action* at absolute simulated *time* (>= now)."""
        return self.schedule_event(Event(time, action))

    def schedule_event(self, event: Event) -> Event:
        """Schedule a prebuilt *event* (see :meth:`EventQueue.push_event`)
        at its absolute ``time`` (>= now)."""
        if event.time < self._now:
            raise SimulationError(
                f"cannot schedule at {event.time}; clock is already at {self._now}"
            )
        return self._queue.push_event(event)

    def defer(self, action: Callable[[], Any]) -> None:
        """Run *action* at the end of the current simulated instant.

        Deferred actions fire once every event scheduled at the current
        clock value has fired, but before the clock advances — the
        batch-drain hook: a server can collect the messages delivered at
        one instant and apply them as a batch without perturbing
        delivery timestamps or intra-instant event order.  Actions run
        FIFO and may defer further actions (which join the same
        instant); a deferred action scheduling a new event at the
        current time extends the instant.  Outside :meth:`run`, the
        action is held until the next call.
        """
        self._microtasks.append(action)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, *until* passes, or *max_events*.

        Args:
            until: stop (without firing) events scheduled after this time;
                the clock is advanced to *until* when given.
            max_events: safety bound on events fired (a sized event fires whole).

        Returns:
            The number of events fired.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        fired = 0
        microtasks = self._microtasks
        queue = self._queue
        try:
            while True:
                next_time = queue.peek_time()
                # End of the current instant: run deferred actions before
                # the clock advances (they may schedule events at the
                # current time, extending the instant).
                if microtasks and (next_time is None or next_time > self._now):
                    microtasks.popleft()()
                    continue
                if max_events is not None and fired >= max_events:
                    break
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                event = queue.pop()
                assert event is not None
                self._now = event.time
                event.fire()
                fired += event.size
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        if fired and self.obs.enabled:
            self.obs.inc("sim.events_fired", fired)
            self.obs.inc("sim.runs")
            self.obs.gauge("sim.now", self._now)
            self.obs.gauge("sim.pending_events", len(queue))
        return fired

    def step(self) -> bool:
        """Fire the next event (all its actions).  False when the queue is empty."""
        return self.run(max_events=1) > 0
