"""Budget-free pricing (paper sections 7-8, an implemented extension).

The paper's related-work section points at reservation-wage estimation
(Horton & Chilton [12]) and bid-based pricing [20, 21], and closes:
"Pursuing these directions may allow CrowdFill to improve its
allocation scheme, with an aim of minimizing total monetary cost
without a prespecified budget."

This module implements the first step of that direction:

- :func:`effective_wages` — from a finished run's trace and payments,
  each worker's realized hourly wage (payment over active time);
- :func:`estimate_reservation_wage` — a conservative estimate of the
  crew's reservation wage: the lowest realized wage among workers who
  kept contributing through the collection (workers who stayed were,
  revealed-preference-wise, willing to work at what they earned);
- :func:`suggest_budget` — invert the compensation model: given a
  template, expected action-latency medians, and a target hourly wage,
  the budget B that pays the crew that wage for the expected work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.constraints.template import Template
from repro.core.messages import TraceRecord
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.pay.timing import WorkerLedger
from repro.workers.profile import ActionLatencies

MIN_ACTIVE_SECONDS = 30.0
"""Workers active for less than this contribute no wage signal."""


@dataclass(frozen=True)
class WageEstimate:
    """One worker's realized earnings rate."""

    worker_id: str
    payment: float
    active_seconds: float

    @property
    def hourly_wage(self) -> float:
        if self.active_seconds <= 0:
            return 0.0
        return self.payment / (self.active_seconds / 3600.0)


def effective_wages(
    trace: Iterable[TraceRecord],
    payments: Mapping[str, float],
) -> list[WageEstimate]:
    """Realized hourly wages, per worker.

    Active time is approximated by the span between a worker's first
    and last action — the same timestamp-diff approximation the paper
    uses for action times (section 5.2.2).
    """
    ledger = WorkerLedger.of(trace)
    estimates = []
    for worker_id, start in ledger.first_action.items():
        estimates.append(
            WageEstimate(
                worker_id=worker_id,
                payment=payments.get(worker_id, 0.0),
                active_seconds=ledger.last_action[worker_id] - start,
            )
        )
    return sorted(estimates, key=lambda e: e.worker_id)


def estimate_reservation_wage(
    trace: Iterable[TraceRecord],
    payments: Mapping[str, float],
    min_active_seconds: float = MIN_ACTIVE_SECONDS,
) -> float | None:
    """The crew's revealed reservation wage (lowest sustained wage).

    Returns None when no worker was active long enough to signal one.
    """
    candidates = [
        estimate.hourly_wage
        for estimate in effective_wages(trace, payments)
        if estimate.active_seconds >= min_active_seconds
        and estimate.payment > 0
    ]
    if not candidates:
        return None
    return min(candidates)


def expected_worker_seconds(
    schema: Schema,
    template: Template,
    scoring: ScoringFunction,
    latencies: ActionLatencies | None = None,
) -> float:
    """Expected total worker time (seconds) to satisfy *template*.

    Sums the median fill time of every template cell left empty, plus
    the (u_min - 1) manual endorsements each row needs under *scoring*
    at the median upvote time.  This is the same bookkeeping the
    section 5.3 estimator starts from, converted to seconds.
    """
    latencies = latencies or ActionLatencies()
    total = 0.0
    u_min = next(
        (u for u in range(1, 64) if scoring.score(u, 0) > 0), 1
    )
    for row in template:
        for column in schema.column_names:
            predicate = row.predicate_for(column)
            if predicate is None or not predicate.is_equality:
                total += latencies.median_for_fill(column)
        total += (u_min - 1) * latencies.upvote
    return total


def suggest_budget(
    schema: Schema,
    template: Template,
    scoring: ScoringFunction,
    target_hourly_wage: float,
    latencies: ActionLatencies | None = None,
    overhead_factor: float = 1.25,
    duty_cycle: float = 0.5,
) -> float:
    """The budget B that pays *target_hourly_wage* for the expected work.

    *overhead_factor* covers productive-looking work that earns nothing
    (conflicts, rows that get voted away) — measured runs waste roughly
    a fifth of actions, so the default adds 25%.  *duty_cycle* is the
    fraction of a worker's connected time spent executing actions; the
    rest is reading the table, deciding, and waiting — about half, in
    the measured runs.  Wages are judged against connected time, so the
    budget must cover it.

    Raises:
        ValueError: on a non-positive wage, overhead factor < 1, or a
            duty cycle outside (0, 1].
    """
    if target_hourly_wage <= 0:
        raise ValueError(f"wage must be positive, got {target_hourly_wage}")
    if overhead_factor < 1:
        raise ValueError(f"overhead factor must be >= 1, got {overhead_factor}")
    if not 0 < duty_cycle <= 1:
        raise ValueError(f"duty cycle must be in (0, 1], got {duty_cycle}")
    seconds = expected_worker_seconds(schema, template, scoring, latencies)
    connected_seconds = seconds * overhead_factor / duty_cycle
    return target_hourly_wage * connected_seconds / 3600.0


def wage_report(
    trace: list[TraceRecord],
    payments: Mapping[str, float],
) -> str:
    """A printable per-worker wage table plus the reservation estimate."""
    lines = [
        "Realized hourly wages (budget-free pricing input):",
        f"  {'worker':<12} {'paid':>7} {'active':>8} {'$/hour':>8}",
    ]
    for estimate in effective_wages(trace, payments):
        lines.append(
            f"  {estimate.worker_id:<12} {estimate.payment:>7.2f} "
            f"{estimate.active_seconds:>7.0f}s {estimate.hourly_wage:>8.2f}"
        )
    reservation = estimate_reservation_wage(trace, payments)
    if reservation is None:
        lines.append("  reservation wage: insufficient signal")
    else:
        lines.append(f"  estimated reservation wage: ${reservation:.2f}/hour")
    return "\n".join(lines)
