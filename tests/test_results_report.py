"""RESULTS.md's evaluation sections are the report's own output.

Every fenced block in the E- and A-series sections of RESULTS.md (the
sections before ``## Method for before/after performance runs``) must
appear verbatim in ``repro report --seed 7``, so the recorded numbers
cannot drift from what the code produces.  After an intentional change,
regenerate them with ``PYTHONPATH=src python -m repro report --seed 7``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

from repro.cli import main

RESULTS = Path(__file__).resolve().parents[1] / "RESULTS.md"

#: The first heading after the E-/A-series evaluation sections.
EVALUATION_END = "## Method for before/after performance runs"


def evaluation_sections(text: str) -> list[tuple[str, str]]:
    """``(heading, fenced block)`` for every E-/A-series section."""
    head = text.split(EVALUATION_END, 1)[0]
    return re.findall(
        r"^(## [EA]\d.*?)\n.*?^```\n(.*?^)```$", head, flags=re.M | re.S
    )


@pytest.mark.slow
@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="RESULTS.md is recorded on CPython 3.11: 3.12's float sum is "
    "compensated and can move the last printed digit",
)
def test_results_md_evaluation_blocks_come_from_the_report(capsys):
    text = RESULTS.read_text(encoding="utf-8")
    sections = evaluation_sections(text)
    headings = re.findall(
        r"^## [EA]\d", text.split(EVALUATION_END, 1)[0], flags=re.M
    )
    assert sections and len(sections) == len(headings)
    assert main(["report", "--seed", "7"]) == 0
    report = capsys.readouterr().out
    stale = [heading for heading, block in sections if block not in report]
    assert not stale, f"RESULTS.md blocks not in the report: {stale}"
