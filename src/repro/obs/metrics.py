"""Metric primitives: counters, gauges, and histograms.

All metrics are keyed on *simulated* time — the registry never consults
a wall clock, so under a fixed seed two runs export byte-identical JSON.
Values are plain Python numbers; the registry is a flat namespace of
dotted metric names (``net.messages_sent``, ``cc.matching_size`` …).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Counter:
    """Monotone event count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-observed value, stamped with the sim-time it was set at."""

    value: float = 0.0
    time: float = 0.0
    updates: int = 0

    def set(self, value: float, time: float) -> None:
        self.value = value
        self.time = time
        self.updates += 1


@dataclass
class Histogram:
    """Distribution summary with log2 (power-of-two) buckets.

    Bucket keys are the binary exponent of the observed value (from
    :func:`math.frexp`), so bucket ``e`` covers ``[2**(e-1), 2**e)``.
    Zero and negative observations land in the sentinel bucket ``-1024``.
    This keeps the export small, deterministic, and merge-friendly
    without configurable bucket boundaries.
    """

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float, n: int = 1) -> None:
        """*n* observations of *value*, summed one by one (bit-exact)."""
        self.count += n
        for _ in range(n):
            self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0:
            exponent = math.frexp(value)[1]
        else:
            exponent = -1024
        self.buckets[exponent] = self.buckets.get(exponent, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Flat, deterministic registry of named metrics.

    Metrics are created lazily on first touch.  A name may be used for
    exactly one kind (counter, gauge, histogram, or read-through
    counter); mixing kinds under one name raises, which catches
    instrumentation typos early.

    A *read-through* counter mirrors a count the program already keeps
    (``Network.stats``, a server's trace length, ...): the registry
    holds only a zero-argument reader and calls it at export time, so
    the fact is counted once.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._readers: dict[str, Callable[[], int]] = {}

    # -- write paths -------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            self._check_unused(name, "counter")
            counter = self._counters[name] = Counter()
        counter.inc(amount)

    def gauge(self, name: str, value: float, time: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_unused(name, "gauge")
            gauge = self._gauges[name] = Gauge()
        gauge.set(value, time)

    def observe(self, name: str, value: float, n: int = 1) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_unused(name, "histogram")
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value, n)

    def read_through(self, name: str, reader: Callable[[], int]) -> None:
        """Export *name* as a counter whose value is ``reader()``."""
        if name in self._readers:
            raise ValueError(f"metric {name!r} already has a reader")
        self._check_unused(name, "read-through counter")
        self._readers[name] = reader

    # -- read paths --------------------------------------------------

    def counter_value(self, name: str) -> int:
        reader = self._readers.get(name)
        if reader is not None:
            return reader()
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def gauge_value(self, name: str) -> float | None:
        gauge = self._gauges.get(name)
        return gauge.value if gauge else None

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def to_dict(self) -> dict[str, Any]:
        """Deterministic plain-dict export (sorted metric names).

        A read-through counter is left out while it reads 0, exactly as
        an incremented counter is absent until its first increment.
        """
        counters = {name: c.value for name, c in self._counters.items()}
        for name, reader in self._readers.items():
            value = reader()
            if value:
                counters[name] = value
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": {
                name: {"value": g.value, "time": g.time, "updates": g.updates}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.to_dict()
                for name, h in sorted(self._histograms.items())
            },
        }

    def _check_unused(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
            ("read-through counter", self._readers),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}; "
                    f"cannot reuse it as a {kind}"
                )


def dump_json(data: Any) -> str:
    """Canonical JSON encoding used by every obs export.

    Sorted keys and a fixed separator spec make same-seed runs
    byte-comparable; ``allow_nan`` stays on because histogram min/max
    export ``null`` (not NaN) when empty.
    """
    return json.dumps(data, sort_keys=True, indent=2, separators=(",", ": "))
