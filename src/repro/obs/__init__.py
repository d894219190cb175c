"""Observability: metrics, tracing, and snapshot sampling.

The whole stack (simulator, network, backend, PRI maintenance, table
journals, marketplace, compensation) is instrumented against one
:class:`Observability` facade.  It records each fact once:

* **The ring holds lifecycle events** (crash, recover, resync,
  checkpoint, drop, completion, ...).  Per-message and per-op facts
  already live in the program's own records — ``Network.stats``, the
  server trace, the change stream — and are not traced again.
* **Mirrored counters are read at export.**  A counter the program
  already keeps is registered with
  :meth:`MetricsRegistry.read_through`, not incremented a second time.

Two design rules keep this subsystem compatible with the determinism
and performance story of the repo:

* **Sim-time only.**  Every timestamp in metrics, spans, and snapshots
  comes from the simulator clock (or a caller-supplied clock) — never a
  wall clock.  Under a fixed seed, two runs export byte-identical JSON.
* **Near-zero cost when off.**  The default is the shared
  :data:`NULL_OBS` singleton whose ``enabled`` flag is ``False`` and
  whose methods are no-ops.  Hot paths guard instrumentation with
  ``if obs.enabled:`` so the disabled cost is one attribute load and a
  branch; the simulator keeps its loop untouched and folds event counts
  into the registry *after* the run.

Usage::

    obs = Observability()
    net = Network(sim, obs=obs)          # components accept obs=...
    ...
    obs.bind_clock(lambda: sim.now)      # sessions do this for you
    obs.write_metrics("metrics.json")
    obs.write_trace("trace.json")
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    dump_json,
)
from repro.obs.snapshots import SnapshotSampler
from repro.obs.tracing import NULL_SPAN, Span, SpanTracer

SCHEMA_VERSION = 1


class Observability:
    """Facade bundling a metrics registry, a tracer, and snapshots."""

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        trace_capacity: int = 4096,
    ) -> None:
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(self._read_clock, capacity=trace_capacity)
        self.snapshots: list[dict[str, Any]] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point all timestamps at *clock* (typically ``lambda: sim.now``)."""
        self._clock = clock

    def _read_clock(self) -> float:
        return self._clock()

    @property
    def now(self) -> float:
        return self._clock()

    # -- metrics -----------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.metrics.inc(name, amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value, self._clock())

    def observe(self, name: str, value: float, n: int = 1) -> None:
        self.metrics.observe(name, value, n)

    # -- tracing -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.tracer.event(name, **attrs)

    # -- snapshots ---------------------------------------------------

    def add_snapshot(self, row: dict[str, Any]) -> None:
        """Append one (already deep-copied) snapshot row."""
        self.snapshots.append(row)

    # -- export ------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """Metrics + snapshots as one deterministic plain dict."""
        data = self.metrics.to_dict()
        data["schema_version"] = SCHEMA_VERSION
        data["snapshots"] = self.snapshots
        return data

    def export_trace(self) -> dict[str, Any]:
        data = self.tracer.to_dict()
        data["schema_version"] = SCHEMA_VERSION
        return data

    def metrics_json(self) -> str:
        return dump_json(self.export())

    def trace_json(self) -> str:
        return dump_json(self.export_trace())

    def write_metrics(self, path: str | Path) -> None:
        Path(path).write_text(self.metrics_json() + "\n", encoding="utf-8")

    def write_trace(self, path: str | Path) -> None:
        Path(path).write_text(self.trace_json() + "\n", encoding="utf-8")


class NullObservability:
    """Disabled observability: every operation is a no-op.

    Shared as :data:`NULL_OBS`; components default to it so the
    instrumented hot paths cost one ``obs.enabled`` check when off.
    """

    enabled = False
    snapshots: list[dict[str, Any]] = []  # always empty; never written

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    @property
    def now(self) -> float:
        return 0.0

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, n: int = 1) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> Any:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def add_snapshot(self, row: dict[str, Any]) -> None:
        pass


NULL_OBS = NullObservability()


def resolve(
    obs: "Observability | NullObservability | bool | None",
) -> "Observability | NullObservability":
    """Normalize the ``obs=`` argument convention used across the stack.

    ``None``/``False`` → the shared no-op; ``True`` → a fresh enabled
    :class:`Observability`; an instance → itself.
    """
    if obs is None or obs is False:
        return NULL_OBS
    if obs is True:
        return Observability()
    return obs


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SPAN",
    "NullObservability",
    "Observability",
    "SnapshotSampler",
    "Span",
    "SpanTracer",
    "dump_json",
    "resolve",
]
