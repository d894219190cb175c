"""Same-seed replays are byte-identical: golden digests of named runs.

Each run in :data:`tests.golden.regen.RUNS` is re-run in-process and the
sha256 of its stdout and of each export file is compared with
``tests/golden/replays.json``.  A mismatch names the run and the output
that moved.  An intentional output change regenerates the file with
``tests/golden/regen.py`` (see its docstring).

The heavy 40-worker, 120-row collection is pinned separately, by the
digest of its stdout alone, as a ``slow`` test: it takes seconds rather
than a fraction of one.  After an intentional output change, recompute
it with ``PYTHONPATH=src python -m repro run --workers 40 --rows 120
--seed 7 | sha256sum`` and record the move in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.cli import main
from tests.golden.regen import GOLDEN, RUNS, replay

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="golden digests are pinned on CPython 3.11: 3.12's float sum "
    "is compensated and moves the last bits of payouts and metrics",
)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_replay_matches_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(RUNS)
    assert replay(RUNS[name], tmp_path) == golden[name]


#: The heavy end-to-end drive and the sha256 of its stdout.
HEAVY_RUN = ["run", "--workers", "40", "--rows", "120", "--seed", "7"]
HEAVY_STDOUT_SHA256 = (
    "3840ee5b3c80d33a81095d64d972021b7c058032d48770205da17edabf853380"
)


@pytest.mark.slow
def test_heavy_collection_stdout_matches_golden_digest(capsys):
    assert main(HEAVY_RUN) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
        HEAVY_STDOUT_SHA256
    )
