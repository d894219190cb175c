"""Same-seed replays are byte-identical: golden digests of named runs.

Each run in :data:`tests.golden.regen.RUNS` is re-run in-process and the
sha256 of its stdout and of each export file is compared with
``tests/golden/replays.json``.  A mismatch names the run and the output
that moved.  An intentional output change regenerates the file with
``tests/golden/regen.py`` (see its docstring).
"""

from __future__ import annotations

import json
import sys

import pytest

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
