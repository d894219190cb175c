"""A9 — the cost-latency-quality trade-off surface.

The paper frames its whole setting by "the cost-latency-quality
tradeoffs that tend to characterize ... human computation" (section 1,
citing [15]).  CrowdFill's quality lever is the scoring function: the
running example's majority-of-three demands a second opinion before a
row is accepted, at the price of extra (paid) votes and waiting.

This driver sweeps verification stringency (ThresholdScoring(1):
accept on the completer's automatic upvote alone, vs the paper's
ThresholdScoring(2)) against worker reliability, reporting accuracy,
completion time, and contributing-vote cost for every grid cell.

The measured finding is itself instructive: in this crowd model the
acceptance threshold barely moves *accuracy*, because quality policing
runs through row-level downvoting — which both configurations share
(positive, even accepted, rows remain downvotable and are re-examined
when stuck).  What the threshold buys is evidence (and what it costs is
votes): the majority scheme demands roughly twice the contributing
endorsements.  The scoring function's u_min decides how much agreement
a row needs; refutation does the error-catching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.harness import CrowdFillExperiment, ExperimentConfig
from repro.workers.profile import representative_crew


@dataclass
class QualityPoint:
    """One (stringency, reliability) cell of the grid."""

    min_votes: int
    fill_accuracy: float
    completed: bool
    duration: float | None
    accuracy: float
    contributing_votes: int
    total_actions: int


@dataclass
class QualityReport:
    """A9: the quality trade-off grid."""

    seed: int
    points: list[QualityPoint]

    def point(self, min_votes: int, fill_accuracy: float) -> QualityPoint:
        for point in self.points:
            if (
                point.min_votes == min_votes
                and abs(point.fill_accuracy - fill_accuracy) < 1e-9
            ):
                return point
        raise KeyError((min_votes, fill_accuracy))

    def accuracy_insensitive_to_threshold(
        self, fill_accuracy: float, tolerance: float = 0.10
    ) -> bool:
        """Is accuracy (near-)unchanged by the acceptance threshold?

        The measured finding of this ablation: quality is policed by
        row-level *downvoting*, which both configurations share, so the
        upvote threshold moves cost and latency but barely accuracy —
        the scoring function's u_min decides how much *endorsement*
        evidence a row needs, while refutation does the error-catching.
        """
        solo = self.point(1, fill_accuracy)
        majority = self.point(2, fill_accuracy)
        return abs(majority.accuracy - solo.accuracy) <= tolerance

    def format_table(self) -> str:
        lines = [
            f"A9: cost-latency-quality trade-off (seed {self.seed})",
            "  (section 1: the scoring function trades vote cost and "
            "latency for quality)",
            f"  {'min_votes':>9} {'fill_acc':>9} {'done':>5} {'time':>7} "
            f"{'accuracy':>9} {'votes':>6} {'actions':>8}",
        ]
        for point in self.points:
            duration = f"{point.duration:.0f}s" if point.duration else "n/a"
            lines.append(
                f"  {point.min_votes:>9} {point.fill_accuracy:>9.2f} "
                f"{str(point.completed):>5} {duration:>7} "
                f"{point.accuracy:>8.0%} {point.contributing_votes:>6} "
                f"{point.total_actions:>8}"
            )
        return "\n".join(lines)


def run_quality_tradeoff(
    seed: int = 7,
    fill_accuracies: tuple[float, ...] = (0.90, 0.98),
    min_votes_options: tuple[int, ...] = (1, 2),
    base_config: ExperimentConfig | None = None,
) -> QualityReport:
    """Sweep verification stringency against worker reliability."""
    base = base_config or ExperimentConfig(seed=seed)
    points: list[QualityPoint] = []
    for fill_accuracy in fill_accuracies:
        profiles = tuple(
            replace(profile, fill_accuracy=fill_accuracy)
            for profile in representative_crew(base.seed)
        )[: base.num_workers]
        for min_votes in min_votes_options:
            config = replace(
                base, min_votes=min_votes, profiles=profiles
            )
            result = CrowdFillExperiment(config).run()
            points.append(
                QualityPoint(
                    min_votes=min_votes,
                    fill_accuracy=fill_accuracy,
                    completed=result.completed,
                    duration=result.duration,
                    accuracy=result.accuracy,
                    contributing_votes=(
                        len(result.analysis.upvotes)
                        + len(result.analysis.downvotes)
                    ),
                    total_actions=sum(w.actions for w in result.workers),
                )
            )
    return QualityReport(seed=seed, points=points)
