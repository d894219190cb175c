"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro run            [--seed N] [--workers N] [--rows N]
                                   [--shards N] [--fault-plan plan.json]
    python -m repro effectiveness  [--seed N]          # E1
    python -m repro compensation   [--seed N] [--scheme dual|column|uniform]
    python -m repro compare        [--seed N]          # E5
    python -m repro estimates      [--seed N]          # E3 / Figure 5
    python -m repro mape           [--seeds 3,7,11]    # E4
    python -m repro earning-rate   [--seed N]          # E6 / Figure 6
    python -m repro adversaries    [--kind spammer|copier] [--seed N]
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.pay import AllocationScheme

_SCHEMES = {
    "uniform": AllocationScheme.UNIFORM,
    "column": AllocationScheme.COLUMN_WEIGHTED,
    "dual": AllocationScheme.DUAL_WEIGHTED,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CrowdFill (SIGMOD 2014) reproduction — experiment runner",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=7)
        return sub

    run = add("run", "run one collection and print the final table")
    run.add_argument("--workers", type=int, default=5)
    run.add_argument("--rows", type=int, default=20)
    run.add_argument("--budget", type=float, default=10.0)
    run.add_argument("--recommender", action="store_true",
                     help="enable the section 8 cell-recommendation strategy")
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="enable observability and write the metrics/"
                          "snapshot export (JSON) to FILE")
    run.add_argument("--trace-out", default=None, metavar="FILE",
                     help="enable observability and write the span-trace "
                          "export (JSON) to FILE")
    run.add_argument("--cdc-out", default=None, metavar="FILE",
                     help="record the canonical change stream and write "
                          "it to FILE as JSON lines (one ChangeEvent per "
                          "committed operation, sorted keys)")
    run.add_argument("--fault-plan", default=None, metavar="FILE",
                     help="inject a serialized FaultPlan (JSON, see "
                          "FaultPlan.to_dict): worker outages, latency "
                          "spikes, shard partitions, and — with --shards "
                          "— shard crash windows recovered from the WAL")
    run.add_argument("--shards", type=int, default=None, metavar="N",
                     help="run the sharded multi-backend with N shards "
                          "(required for crash windows in --fault-plan)")

    add("effectiveness", "E1: overall effectiveness")

    compensation = add("compensation", "E2: per-worker payouts")
    compensation.add_argument(
        "--scheme", choices=sorted(_SCHEMES), default="dual"
    )

    add("compare", "E5: uniform vs dual-weighted payouts")
    add("estimates", "E3 / Figure 5: estimate accuracy")
    add("earning-rate", "E6 / Figure 6: earning-rate stability")

    mape = commands.add_parser("mape", help="E4: MAPE by scheme")
    mape.add_argument("--seeds", default="3,7,11,19,23",
                      help="comma-separated run seeds")

    adversaries = add("adversaries", "section 8: spammers / credit copiers")
    adversaries.add_argument(
        "--kind", choices=["spammer", "copier"], default="spammer"
    )
    adversaries.add_argument("--counts", default="0,1,2",
                             help="comma-separated adversary counts")

    add("vs-microtask", "E9: table-filling vs the microtask baseline")
    add("latency", "A6: sensitivity to propagation latency")
    scaling = add("scaling", "A8: completion time vs crew size")
    scaling.add_argument("--counts", default="3,5,8,12",
                         help="comma-separated crew sizes")

    report = add("report", "regenerate the full evaluation as markdown")
    report.add_argument("--out", default=None,
                        help="write to this file instead of stdout")
    report.add_argument("--quick", action="store_true",
                        help="skip the multi-run studies")

    add("quality", "A9: the cost-latency-quality trade-off grid")
    add("domains", "A10: domain and table-size sweep")
    cost = add("cost", "A11: requester cost at matched hourly wages")
    cost.add_argument("--wage", type=float, default=9.0)

    pricing = add("suggest-budget",
                  "budget-free pricing: budget for a target hourly wage")
    pricing.add_argument("--rows", type=int, default=20)
    pricing.add_argument("--wage", type=float, default=9.0,
                         help="target hourly wage in dollars")
    pricing.add_argument("--verify", action="store_true",
                         help="run a collection at the suggested budget "
                              "and report realized wages")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    # Imports are deferred so `--help` stays instant.
    from repro.experiments import (
        CrowdFillExperiment,
        ExperimentConfig,
        compare_schemes,
        run_adversary_sweep,
        run_compensation,
        run_earning_rate,
        run_effectiveness,
        run_estimate_accuracy,
        run_scheme_mape_sweep,
    )

    if args.command == "run":
        import json

        from repro.net import FaultPlanError, fault_plan_from_dict

        fault_plan = None
        want_obs = bool(args.metrics_out or args.trace_out)
        try:
            if args.fault_plan:
                with open(args.fault_plan, "r", encoding="utf-8") as handle:
                    fault_plan = fault_plan_from_dict(json.load(handle))
            config = ExperimentConfig(
                seed=args.seed,
                num_workers=args.workers,
                target_rows=args.rows,
                budget=args.budget,
                use_recommender=args.recommender,
                capture_cdc=bool(args.cdc_out),
                shards=args.shards,
                fault_plan=fault_plan,
            )
            result = CrowdFillExperiment(config, obs=want_obs).run()
        except FaultPlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        status = (
            f"completed in {result.duration:.0f} simulated seconds"
            if result.completed
            else "did NOT complete within the simulated-time cap"
        )
        print(f"{status}; accuracy {result.accuracy:.0%}")
        if fault_plan is not None:
            print(f"fault events injected: {result.fault_events}")
        for record in result.final_table_records():
            print(" ", record)
        payouts = result.allocation(AllocationScheme.DUAL_WEIGHTED).by_worker
        print("payouts:", {k: round(v, 2) for k, v in sorted(payouts.items())})
        if args.metrics_out:
            result.obs.write_metrics(args.metrics_out)
            print(f"wrote metrics to {args.metrics_out}")
        if args.trace_out:
            result.obs.write_trace(args.trace_out)
            print(f"wrote trace to {args.trace_out}")
        if args.cdc_out and result.cdc_events is None:
            crashed = ", ".join(sorted({w.endpoint for w in fault_plan.crashes}))
            print(f"error: the change stream was lost when its owner crashed "
                  f"({crashed}); {args.cdc_out} not written", file=sys.stderr)
            return 1
        if args.cdc_out:
            with open(args.cdc_out, "w", encoding="utf-8") as handle:
                for event in result.cdc_events:
                    handle.write(
                        json.dumps(
                            event.to_dict(),
                            sort_keys=True,
                            separators=(",", ":"),
                        )
                    )
                    handle.write("\n")
            print(
                f"wrote {len(result.cdc_events)} change events to "
                f"{args.cdc_out}"
            )
        return 0

    if args.command == "effectiveness":
        print(run_effectiveness(seed=args.seed).format_table())
    elif args.command == "compensation":
        print(
            run_compensation(
                seed=args.seed, scheme=_SCHEMES[args.scheme]
            ).format_table()
        )
    elif args.command == "compare":
        print(compare_schemes(seed=args.seed).format_table())
    elif args.command == "estimates":
        print(run_estimate_accuracy(seed=args.seed).format_table())
    elif args.command == "earning-rate":
        print(run_earning_rate(seed=args.seed).format_table())
    elif args.command == "mape":
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        print(run_scheme_mape_sweep(seeds=seeds).format_table())
    elif args.command == "adversaries":
        counts = tuple(int(s) for s in args.counts.split(",") if s.strip())
        print(
            run_adversary_sweep(
                args.kind, seed=args.seed, adversary_counts=counts
            ).format_table()
        )
    elif args.command == "vs-microtask":
        from repro.experiments import run_comparison

        print(run_comparison(seed=args.seed).format_table())
    elif args.command == "latency":
        from repro.experiments import run_latency_sweep

        print(run_latency_sweep(seed=args.seed).format_table())
    elif args.command == "scaling":
        from repro.experiments import run_worker_scaling

        counts = tuple(int(s) for s in args.counts.split(",") if s.strip())
        print(
            run_worker_scaling(
                seed=args.seed, worker_counts=counts
            ).format_table()
        )
    elif args.command == "report":
        from repro.experiments.report import generate_report

        text = generate_report(seed=args.seed, quick=args.quick)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"wrote {args.out}")
        else:
            print(text)
    elif args.command == "quality":
        from repro.experiments import run_quality_tradeoff

        print(run_quality_tradeoff(seed=args.seed).format_table())
    elif args.command == "domains":
        from repro.experiments import run_domain_sweep

        print(run_domain_sweep(seed=args.seed).format_table())
    elif args.command == "cost":
        from repro.experiments import run_cost_comparison

        print(
            run_cost_comparison(
                seed=args.seed, hourly_wage=args.wage
            ).format_table()
        )
    elif args.command == "suggest-budget":
        from repro.constraints import Template
        from repro.core.schema import soccer_player_schema
        from repro.core.scoring import ThresholdScoring
        from repro.pay import suggest_budget, wage_report

        schema = soccer_player_schema(include_dob=True)
        template = Template.cardinality(args.rows)
        budget = suggest_budget(
            schema, template, ThresholdScoring(2), args.wage
        )
        print(f"suggested budget for {args.rows} rows at "
              f"${args.wage:.2f}/hour: ${budget:.2f}")
        if args.verify:
            result = CrowdFillExperiment(
                ExperimentConfig(
                    seed=args.seed, target_rows=args.rows, budget=budget
                )
            ).run()
            payments = result.allocation(
                AllocationScheme.DUAL_WEIGHTED
            ).by_worker
            print(wage_report(result.trace, payments))
    return 0
