"""Text and JSON reporters for crowdlint diagnostics."""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from crowdlint.diagnostics import Diagnostic


def render_text(diagnostics: Sequence[Diagnostic], files_checked: int) -> str:
    """Human-readable report: one ``path:line:col: RULE message`` per
    finding plus a per-rule summary line."""
    lines = [diagnostic.format() for diagnostic in diagnostics]
    if not diagnostics:
        lines.append(f"crowdlint: {files_checked} files clean")
    else:
        by_rule = Counter(diagnostic.rule for diagnostic in diagnostics)
        summary = ", ".join(
            f"{rule}: {count}" for rule, count in sorted(by_rule.items())
        )
        lines.append(
            f"crowdlint: {len(diagnostics)} violation"
            f"{'s' if len(diagnostics) != 1 else ''} "
            f"in {files_checked} files ({summary})"
        )
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic], files_checked: int) -> str:
    """Machine-readable report (stable key order for CI artifact diffs)."""
    payload = {
        "files_checked": files_checked,
        "violations": len(diagnostics),
        "diagnostics": [diagnostic.to_dict() for diagnostic in diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
