"""SARIF 2.1.0 rendering of crowdlint diagnostics.

One run, one tool (``crowdlint``), one result per diagnostic.  Rule
metadata (short description = first docstring line, full description =
the whole docstring) is drawn from the same registry ``--rules`` prints,
so the GitHub code-scanning UI shows the rationale next to each
annotation.  Results are emitted in the analyzer's stable
``(path, line, col, rule)`` order and file URIs are repo-relative,
so the report is byte-stable for identical trees.
"""

from __future__ import annotations

import json
from pathlib import Path

from crowdlint.diagnostics import Diagnostic

_SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _uri(path: str, root: Path | None) -> str:
    p = Path(path)
    if root is not None:
        try:
            p = p.resolve().relative_to(Path(root).resolve())
        except ValueError:
            pass
    return p.as_posix()


def render_sarif(
    diagnostics: list[Diagnostic],
    rule_docs: dict[str, str],
    root: Path | None = None,
) -> str:
    """Serialize *diagnostics* as a SARIF 2.1.0 log.  *rule_docs* maps
    rule id -> docstring."""
    rules = []
    for rule_id in sorted(rule_docs):
        doc = (rule_docs[rule_id] or "").strip()
        short = doc.splitlines()[0].strip() if doc else rule_id
        rules.append(
            {
                "id": rule_id,
                "shortDescription": {"text": short},
                "fullDescription": {"text": doc or short},
            }
        )
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}

    def result(diagnostic: Diagnostic) -> dict:
        entry: dict = {
            "ruleId": diagnostic.rule,
            "level": "error",
            "message": {"text": diagnostic.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _uri(diagnostic.path, root)
                        },
                        "region": {
                            "startLine": diagnostic.line,
                            "startColumn": diagnostic.col,
                        },
                    }
                }
            ],
        }
        if diagnostic.rule in rule_index:
            entry["ruleIndex"] = rule_index[diagnostic.rule]
        return entry

    ordered = sorted(
        diagnostics, key=lambda d: (d.path, d.line, d.col, d.rule)
    )
    log = {
        "$schema": _SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "crowdlint",
                        "informationUri": (
                            "https://github.com/crowdfill/repro"
                        ),
                        "rules": rules,
                    }
                },
                "results": [result(diagnostic) for diagnostic in ordered],
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True) + "\n"
