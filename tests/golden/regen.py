"""Golden replay digests: named ``repro run`` invocations and their outputs.

Every run below is fully determined by its arguments, so its stdout and
its three export files (``--metrics-out``, ``--trace-out``,
``--cdc-out``) are byte-identical from one replay to the next.
``replays.json`` maps each run to the sha256 of each of those outputs,
and ``tests/test_golden_replays.py`` re-runs every run in-process and
compares.  Exports are written under relative names into a scratch
directory, so the paths stdout echoes are the same everywhere.

After an intentional output change, regenerate the file with::

    PYTHONPATH=src python tests/golden/regen.py

and record the old and new digests, and why they moved, in CHANGES.md.

The digests hold on CPython 3.11 only: the payout and estimator
arithmetic sums floats with the built-in ``sum``, which CPython 3.12
compensates and 3.11 does not, so the last bits of printed payouts and
exported metrics differ between the two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

#: The checked-in digest file.
GOLDEN = Path(__file__).with_name("replays.json")

#: Export files every run writes, by relative name.
EXPORTS = ("metrics.json", "trace.json", "events.jsonl")

#: The crash plan the ``crash`` run loads: shard 1 crash-stops at
#: t=120 s and recovers from its WAL at t=200 s.
PLAN = "plan.json"

#: Named runs: the ``repro run`` arguments before the export flags.
RUNS: dict[str, list[str]] = {
    "run-seed3": ["run", "--seed", "3"],
    "run-seed3-shards2": ["run", "--seed", "3", "--shards", "2"],
    "run-seed3-shards2-crash": [
        "run", "--seed", "3", "--shards", "2", "--fault-plan", PLAN,
    ],
    "run-seed3-recommender": ["run", "--seed", "3", "--recommender"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_plan(path: Path) -> None:
    from repro.net import FaultPlan, ShardCrashWindow
    from repro.server.shard import shard_endpoint

    plan = FaultPlan(
        crashes=(ShardCrashWindow(shard_endpoint(1), 120.0, 200.0),)
    )
    path.write_text(json.dumps(plan.to_dict(), sort_keys=True))


def replay(args: list[str], workdir: Path) -> dict[str, str]:
    """Run ``repro run`` *args* in *workdir*; return the sha256 of its
    stdout and of each export file."""
    from repro.cli import main

    argv = [
        *args,
        "--metrics-out", EXPORTS[0],
        "--trace-out", EXPORTS[1],
        "--cdc-out", EXPORTS[2],
    ]
    stdout = io.StringIO()
    with contextlib.chdir(workdir):
        if PLAN in args:
            _write_plan(Path(PLAN))
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    digests = {"stdout": _sha256(stdout.getvalue().encode("utf-8"))}
    for name in EXPORTS:
        digests[name] = _sha256((workdir / name).read_bytes())
    return digests


def regenerate() -> dict[str, dict[str, str]]:
    """Replay every run in a fresh scratch directory and rewrite
    :data:`GOLDEN`."""
    digests = {}
    for name, args in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = replay(args, Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return digests


if __name__ == "__main__":
    if sys.version_info[:2] != (3, 11):
        sys.exit("golden digests are pinned on CPython 3.11; see the docstring")
    for name, outputs in regenerate().items():
        print(name)
        for output, digest in outputs.items():
            print(f"  {output}: {digest}")
