"""Integration tests over the experiment drivers: the section 6 shapes.

One representative run (seed 7, paper defaults) is shared across the
module via a session fixture; the assertions are the qualitative claims
of section 6 — who wins, orderings, stability — not absolute numbers.
"""

import pytest

from repro.experiments import (
    CrowdFillExperiment,
    ExperimentConfig,
)
from repro.experiments.compensation import (
    comparison_from_result,
    report_from_result as compensation_report,
)
from repro.experiments.earning_rate import earning_report_from_result
from repro.experiments.effectiveness import report_from_result
from repro.experiments.estimation import accuracy_from_result
from repro.pay import AllocationScheme


@pytest.fixture(scope="module")
def result():
    return CrowdFillExperiment(ExperimentConfig(seed=7)).run()


class TestRepresentativeRun:
    def test_completes_within_paper_timescale(self, result):
        """Paper: 10m44s with five workers; we accept 5-30 simulated
        minutes for the same task shape."""
        assert result.completed
        assert 5 * 60 <= result.duration <= 30 * 60

    def test_collects_exactly_twenty_final_rows(self, result):
        assert len(result.final_values) == 20

    def test_candidate_table_slightly_larger_than_final(self, result):
        """Paper: 23 candidate rows for 20 final."""
        assert 20 < result.candidate_count <= 35

    def test_final_rows_unique_keys(self, result):
        keys = [v.key(result.schema.key_columns) for v in result.final_values]
        assert len(set(keys)) == len(keys)

    def test_final_rows_in_caps_band(self, result):
        for value in result.final_values:
            assert 80 <= value["caps"] <= 99

    def test_high_accuracy(self, result):
        """Paper: all 20 final rows accurate (occasionally inaccurate
        rows in other runs)."""
        assert result.accuracy >= 0.9

    def test_some_rows_were_downvoted_away(self, result):
        assert result.heavily_downvoted_rows() >= 1

    def test_effectiveness_report_consistent(self, result):
        report = report_from_result(result)
        assert report.final_rows == 20
        assert report.candidate_rows == result.candidate_count
        assert (
            report.final_rows + report.heavily_downvoted
            + report.conflict_extras <= report.candidate_rows + 2
        )
        assert "m" in report.duration_str
        assert "final rows" in report.format_table()

    def test_action_counts_vary_widely(self, result):
        """Paper: 9 to 54 actions across the five workers."""
        actions = [w.actions for w in result.workers]
        assert max(actions) / max(1, min(actions)) >= 3


class TestCompensation:
    def test_budget_mostly_allocated(self, result):
        allocation = result.allocation(AllocationScheme.DUAL_WEIGHTED)
        assert 0.8 * 10 <= allocation.total_allocated <= 10.0
        assert allocation.unspent >= 0

    def test_wide_payout_spread_tracks_activity(self, result):
        """Paper: $0.51 to $3.49; most-active earns most."""
        report = compensation_report(result, AllocationScheme.DUAL_WEIGHTED)
        assert report.spread() >= 3
        assert report.payouts_track_actions()

    def test_all_workers_earn_something(self, result):
        allocation = result.allocation(AllocationScheme.DUAL_WEIGHTED)
        for worker in result.workers:
            assert allocation.worker_total(worker.worker_id) > 0

    def test_uniform_vs_dual_shifts_nonvoter(self, result):
        """Paper: the never-voting worker differs by >25% (uniform
        penalizes non-voters); we require the non-voter to be among the
        workers uniform treats worst."""
        comparison = comparison_from_result(result)
        non_voters = [row for row in comparison.rows if row[3] == 0]
        assert non_voters
        worker_id, dual, uniform, _ = non_voters[0]
        assert uniform < dual  # uniform penalizes the non-voter
        _, pct = comparison.max_pct_difference()
        assert pct >= 5.0
        assert "uniform" in comparison.format_table()


class TestEstimation:
    def test_corrected_beats_raw(self, result):
        """Paper Figure 5: corrected MAPE (9.9%) < raw MAPE (16.1%)."""
        accuracy = accuracy_from_result(result)
        assert accuracy.mape_corrected < accuracy.mape_raw

    def test_corrected_mape_in_paper_ballpark(self, result):
        accuracy = accuracy_from_result(result)
        assert accuracy.mape_corrected <= 30.0

    def test_estimates_positive_for_all_workers(self, result):
        accuracy = accuracy_from_result(result)
        for row in accuracy.rows:
            assert row.raw_estimate > 0
            assert row.corrected_estimate >= 0
        assert "MAPE" in accuracy.format_table()


class TestEarningRate:
    def test_weighted_no_less_stable_than_uniform(self, result):
        """Paper Figure 6: weighted allocation is somewhat steadier."""
        report = earning_report_from_result(result, num_workers=2)
        verdicts = report.weighted_more_stable()
        assert all(verdicts.values())

    def test_curves_reach_one_hundred_percent(self, result):
        report = earning_report_from_result(result, num_workers=2)
        for curve in report.curves:
            assert curve.points
            assert curve.points[-1][1] == pytest.approx(100.0)
        assert "RMS" in report.format_table()


class TestConfigKnobs:
    def test_small_run_with_spammer_still_completes(self):
        config = ExperimentConfig(
            seed=3,
            num_workers=4,
            target_rows=6,
            policy_kinds=("diligent", "diligent", "diligent", "spammer"),
        )
        result = CrowdFillExperiment(config).run()
        assert result.completed
        assert len(result.final_values) == 6
        # The spammer's garbage was kept out of the final table.
        assert result.accuracy >= 0.8

    def test_copier_profits_without_contributing_fills(self):
        config = ExperimentConfig(
            seed=5,
            num_workers=4,
            target_rows=6,
            policy_kinds=("diligent", "diligent", "diligent", "copier"),
        )
        result = CrowdFillExperiment(config).run()
        copier = result.workers[3]
        assert copier.fills == 0
        allocation = result.allocation(AllocationScheme.DUAL_WEIGHTED)
        # The section 8 threat: blind endorsement still earns money.
        assert allocation.worker_total(copier.worker_id) >= 0

    def test_values_template_prefills_rows(self):
        config = ExperimentConfig(
            seed=11,
            num_workers=3,
            target_rows=5,
            template_values=({"nationality": "Brazil"},),
        )
        result = CrowdFillExperiment(config).run()
        if result.completed:
            assert any(
                v["nationality"] == "Brazil" for v in result.final_values
            )

    def test_worker_count_is_configurable(self):
        config = ExperimentConfig(seed=2, num_workers=7, target_rows=5)
        result = CrowdFillExperiment(config).run()
        assert len(result.workers) == 7

    @pytest.mark.parametrize("num_workers", [0, -3])
    def test_worker_count_below_one_rejected_at_construction(
        self, num_workers
    ):
        with pytest.raises(ValueError, match="num_workers must be >= 1"):
            ExperimentConfig(num_workers=num_workers)

    def test_negative_budget_rejected_at_construction(self):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            ExperimentConfig(budget=-5.0)


class TestPredicatesConstraintCollection:
    def test_section6_task_as_predicates_constraint(self):
        """The paper's caps-band task expressed as the section 2.3
        predicates constraint it proposes: every final row must satisfy
        caps between{80,99}, enforced by the Central Client's
        predicates-aware PRI maintenance."""
        from repro.constraints import Template, satisfies_template

        config = ExperimentConfig(
            seed=7,
            target_rows=8,
            num_workers=4,
            predicates_template=tuple(
                {"caps": "between{80,99}"} for _ in range(8)
            ),
        )
        result = CrowdFillExperiment(config).run()
        assert result.completed
        template = Template.from_predicates(
            [{"caps": "between{80,99}"}] * 8
        )
        assert satisfies_template(result.final_values, template)
        for value in result.final_values:
            assert 80 <= value["caps"] <= 99
