"""Whole-collection benchmark for the CrowdFill reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload live-ingest --seed 1 --seconds 30 --trace 0

It runs the workload's panel of jobs (one job for the ingest workloads,
one per collection seed for ``crowd-session``), each from inputs made
from ``--seed``, as many whole times as fit in ``--seconds`` of wall
time (at least once, and at least three jobs untraced), checks every
job's outputs, and prints one line per metric followed by a last line
holding one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with every timing of the
measured phase put on the host-speed scale of ``perfbench/hostspeed.py``
(the raw numbers are printed above the JSON line).  ``--trace 1``
alternates untraced and traced jobs of the same seed and reports the
per-layer metrics of the traced ones, with the gap to the untraced ones
as ``trace.overhead_s``.  Workloads, metrics and the predicted effect of
each layer on the end-to-end numbers are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import fmean

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The benchmark's own modules sit next to this file; do not rely on the
# interpreter putting the script's directory on the path.
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from spans import median, quantile  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "commit_ms_p50": "ms",
    "commit_ms_p95": "ms",
    "peak_rss_mb": "MB",
}
#: Jobs an untraced run makes at least, whatever ``--seconds`` says:
#: enough for a median.
MIN_JOBS = 3
def timings(jobs: list, factors: list[float], per_pass: int) -> dict:
    """The measured-phase metrics of *jobs*, each job's timings
    multiplied by its factor.

    A pass over the panel gives one value per metric: its mean job time,
    its ops over its time and the mean of its jobs' drain quantiles.
    The jobs of a pass are different inputs, and a mean over them spreads
    less from seed to seed than a median; the passes repeat the same
    inputs, so the metric is the median over passes.  Drain quantiles
    are taken per job: pooled, the drains of one job caught in a burst
    of host slowness the probe under-reports would set the pass's tail.
    """
    scaled = list(zip(jobs, factors))
    passes = [scaled[i:i + per_pass] for i in range(0, len(scaled), per_pass)]

    def drain_ms(q: float) -> float:
        return 1000 * median([
            fmean(quantile(job.drains_s, q) * factor for job, factor in one)
            for one in passes
        ])

    return {
        "run_s": median([
            fmean(job.run_s * factor for job, factor in one) for one in passes
        ]),
        "ops_per_s": median([
            sum(job.ops for job, _ in one)
            / sum(job.run_s * factor for job, factor in one)
            for one in passes
        ]),
        "commit_ms_p50": drain_ms(0.5),
        "commit_ms_p95": drain_ms(0.95),
    }


def setup(import_s: float, jobs: list, factors: list[float]) -> float:
    """The import plus the median job set-up, each job's set-up
    multiplied by its factor and the import by the first job's.

    Set-up runs just before the job's measured phase, so the probe
    samples of that phase say how fast the host ran for it too.  Raw,
    the set-up of two sets of runs a few minutes apart differed by up to
    30 % with the host's phase, where the scaled run times agreed.
    """
    return import_s * factors[0] + median(
        [job.setup_s * factor for job, factor in zip(jobs, factors)]
    )


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # the whole repro stack, timed as part of set-up
    from layers import PER_LAYER_UNITS, SELF_TIME_METRICS, summarize

    import_s = time.perf_counter() - t0
    job_fn = workloads.WORKLOADS.get(args.workload)
    if job_fn is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    panel = workloads.panel(args.workload, args.seed)
    min_jobs = 1 if args.trace else MIN_JOBS
    deadline = time.perf_counter() + args.seconds
    plain: list = []
    traced: list = []
    seeds: list[int] = []
    while True:
        started = time.perf_counter()
        for seed in panel:
            seeds.append(seed)
            plain.append(job_fn(seed, False))
            if args.trace:
                traced.append(job_fn(seed, True))
        took = time.perf_counter() - started
        if len(plain) >= min_jobs and time.perf_counter() + took > deadline:
            break
    # Metrics are taken over whole panels only, so that every seed of the
    # panel weighs the same however many panels the run had time for.
    measured = plain[:]
    if len(set(seeds)) == len(seeds) and not args.trace:
        # One more job of the first seed, for the fingerprint check only.
        seeds.append(panel[0])
        plain.append(job_fn(panel[0], False))
    probes = [sample for job in measured for sample in job.host_samples]

    errors: list[str] = []
    fingerprints: dict[int, set[str]] = {}
    jobs = plain + traced
    for seed, job in zip(seeds + seeds, jobs):
        fingerprints.setdefault(seed, set()).add(job.fingerprint)
        errors.extend(f"seed {seed}: {error}" for error in job.errors)
    for seed, found in sorted(fingerprints.items()):
        if len(found) != 1:
            errors.append(f"seed {seed}: runs disagree on state {sorted(found)}")
    attempted = sum(job.attempted for job in jobs)
    failed = sum(job.failed for job in jobs)

    if args.trace:
        metrics = summarize(
            [job.layers for job in traced],
            [t.run_s - p.run_s for t, p in zip(traced, plain)],
        )
        units = PER_LAYER_UNITS
    else:
        factors = [hostspeed.scale(job.host_samples) for job in measured]
        unscaled = [1.0] * len(measured)
        raw = {
            "setup_s": setup(import_s, measured, unscaled),
            **timings(measured, unscaled, len(panel)),
        }
        metrics = {
            "setup_s": setup(import_s, measured, factors),
            **timings(measured, factors, len(panel)),
        }
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        units = END_TO_END_UNITS

    print(
        f"workload {args.workload}, seed {args.seed}: {len(measured)} jobs"
        + (f" + {len(traced)} traced" if traced else "")
        + (" + 1 for the fingerprint check" if len(plain) > len(measured) else "")
        + f", job seeds {sorted(fingerprints)}"
    )
    for seed, found in sorted(fingerprints.items()):
        print(f"  state fingerprint of seed {seed}: {', '.join(sorted(found))}")
    print(
        f"  ops per job {[job.ops for job in plain]}, drains per job "
        f"{[len(job.drains_s) for job in plain]} (commit_ms samples), "
        f"run_s per job {[round(job.run_s, 3) for job in plain]}"
    )
    print(f"  error_rate {failed / attempted if attempted else 0.0:.6f} "
          f"({failed} of {attempted} ops not committed exactly once)")
    if not args.trace:
        print(
            f"  host-speed probe mean {1000 * fmean(probes):.3f} ms over "
            f"{len(probes)} samples, reference "
            f"{1000 * hostspeed.REFERENCE_S} ms: each job's timings scaled "
            f"by {[round(factor, 4) for factor in factors]}"
        )
        print(
            f"  set-up: import {import_s:.4f} s + median job set-up "
            f"{raw['setup_s'] - import_s:.4f} s, unscaled"
        )
        print("  unscaled: " + ", ".join(
            f"{name} {value:.4f} {units[name]}" for name, value in raw.items()
        ))
    if args.trace:
        self_times = sorted(
            ((metrics[name], name) for name in SELF_TIME_METRICS.values()
             if metrics[name]),
            reverse=True,
        )
        print("  layer self times, largest first:")
        for value, name in self_times:
            print(f"    {name:32s} {value:10.4f} s")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    correct = not errors and failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
