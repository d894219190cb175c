"""Worker compensation (paper section 5).

- :mod:`repro.pay.timing` — the worker ledger, the one home of the
  section 5.2 per-worker rules (generation times, action spans, first
  entries) that every module below reads.
- :mod:`repro.pay.contribution` — which trace messages contributed to
  the final table: direct/indirect replace contributions, contributing
  upvotes U and downvotes D (section 5.2.1).
- :mod:`repro.pay.allocation` — the uniform, column-weighted, and
  dual-weighted budget allocation schemes plus the h_c splitting factor
  (sections 5.2.2-5.2.3).
- :mod:`repro.pay.estimator` — live per-action compensation estimates
  shown to workers during collection (section 5.3).
"""

from repro.pay.contribution import (
    CellContribution,
    ContributionAnalysis,
    analyze_contributions,
)
from repro.pay.allocation import (
    AllocationResult,
    AllocationScheme,
    allocate,
    column_weights_from_trace,
)
from repro.pay.estimator import CompensationEstimator, EstimateRecord
from repro.pay.pricing import (
    WageEstimate,
    effective_wages,
    estimate_reservation_wage,
    suggest_budget,
    wage_report,
)

__all__ = [
    "CellContribution",
    "ContributionAnalysis",
    "analyze_contributions",
    "AllocationResult",
    "AllocationScheme",
    "allocate",
    "column_weights_from_trace",
    "CompensationEstimator",
    "EstimateRecord",
    "WageEstimate",
    "effective_wages",
    "estimate_reservation_wage",
    "suggest_budget",
    "wage_report",
]
