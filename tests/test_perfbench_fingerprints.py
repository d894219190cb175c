"""Same-seed benchmark jobs end in the same state: pinned fingerprints.

Each job of ``perfbench/workloads.py`` (imported as it is, not copied)
ends with a fingerprint of its final state, and ``perfbench/run.py``
prints them (``state fingerprint of seed N``).  This pins the run-seed
1 panel of every workload, the run-seed 2 panel of the ingest
workloads and the run-seed 7 panel of ``crowd-session``, so a
behaviour-preserving change is checked here instead of by hand.  An
intentional change of a workload's state updates :data:`FINGERPRINTS`,
:data:`SEED_2_FINGERPRINTS` or :data:`SEED_7_FINGERPRINTS` and says so
in CHANGES.md.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_SEED = 1
FINGERPRINTS = {
    "crowd-session": {
        5: "6d98fb6163feeb69",
        6: "a354f2826fc35f93",
        7: "d48eddb943c9d07f",
        8: "0ca8181684e3713a",
        9: "fa5c20d7203678aa",
    },
    "live-ingest": {1: "dac58d044b050d08"},
    "sharded-durable": {1: "89c88cd956fc0548"},
}
#: The ingest workloads' run-seed 2 panels: a second stream of each.
SEED_2_FINGERPRINTS = {
    "live-ingest": {2: "f7808447d8f944ba"},
    "sharded-durable": {2: "9e5bf1760339a73d"},
}
#: ``crowd-session``'s run-seed 7 panel: five more collections.
SEED_7_FINGERPRINTS = {
    "crowd-session": {
        35: "f556b1d6e4bcf7f4",
        36: "96fc7061fa44b574",
        37: "5f2570b3a342e9d0",
        38: "a8ea8172dccc9f1a",
        39: "f89cece36e7abd89",
    },
}

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="fingerprints are pinned on CPython 3.11: 3.12's float sum "
        "is compensated and moves the last bits of payouts",
    ),
]


@pytest.fixture(scope="module")
def workloads():
    # The benchmark's modules import each other as top-level modules.
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def _panel_fingerprints(workloads, name, run_seed):
    found = {}
    for seed in workloads.panel(name, run_seed):
        job = workloads.WORKLOADS[name](seed, False)
        assert job.errors == []
        found[seed] = job.fingerprint
    return found


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_workload_panel_matches_pinned_fingerprints(name, workloads):
    assert workloads.panel(name, RUN_SEED) == sorted(FINGERPRINTS[name])
    assert _panel_fingerprints(workloads, name, RUN_SEED) == FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(SEED_2_FINGERPRINTS))
def test_run_seed_2_panel_matches_pinned_fingerprints(name, workloads):
    assert _panel_fingerprints(workloads, name, 2) == SEED_2_FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(SEED_7_FINGERPRINTS))
def test_run_seed_7_panel_matches_pinned_fingerprints(name, workloads):
    assert workloads.panel(name, 7) == sorted(SEED_7_FINGERPRINTS[name])
    assert _panel_fingerprints(workloads, name, 7) == SEED_7_FINGERPRINTS[name]
