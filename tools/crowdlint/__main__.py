"""``python -m crowdlint`` — the crowdlint CLI.

Usage (from the repository root, with ``tools`` on ``PYTHONPATH``)::

    python -m crowdlint [paths ...]
        [--format text|json] [--select RULE[,RULE]]
        [--warn-only] [--sarif [PATH]]
        [--escape-report] [--rules]

With no paths, lints ``src/repro`` when it exists (repo root), else the
current directory.  EXH001 runs for each linted root that holds the
replicated stack; ``--select`` skips any rule.

Gating: any finding exits 1; ``--warn-only`` reports without failing.
Suppress a single finding with a line-scoped
``# crowdlint: disable=<rule>`` pragma.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import Sequence

from crowdlint.linter import (
    ALL_RULES,
    escape_report,
    iter_python_files,
    lint_files,
    rule_docs,
)
from crowdlint.report import render_json, render_text
from crowdlint.sarif import render_sarif


def _print_rules() -> None:
    docs = rule_docs()
    print("crowdlint rule reference")
    print("========================")
    for rule_id in sorted(docs):
        print(f"\n{rule_id}")
        print("-" * len(rule_id))
        print(textwrap.fill(" ".join(docs[rule_id].split()), width=72))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m crowdlint",
        description="crowdlint: determinism & replica-safety linter",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src/repro or .)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help=f"comma-separated rule ids to run (of: {', '.join(ALL_RULES)})",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report violations but exit 0 (advisory pass)",
    )
    parser.add_argument(
        "--sarif", nargs="?", type=Path, const=Path("crowdlint.sarif"),
        default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 report (default path: "
             "crowdlint.sarif)",
    )
    parser.add_argument(
        "--escape-report", action="store_true",
        help="print the ESC001 send-site classification (proven / "
             "unknown / flagged) and exit",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="print the rule reference generated from rule docstrings "
             "and exit",
    )
    args = parser.parse_args(argv)

    if args.rules:
        _print_rules()
        return 0

    paths = args.paths
    if not paths:
        default = Path("src/repro")
        paths = [default if default.is_dir() else Path(".")]

    if args.escape_report:
        sites = escape_report(paths)
        for site in sites:
            print(site.format())
        proven = sum(1 for s in sites if s.status == "proven")
        flagged = sum(1 for s in sites if s.status == "flagged")
        print(
            f"crowdlint[escapes]: {len(sites)} send sites — "
            f"{proven} proven alias-free, {flagged} flagged, "
            f"{len(sites) - proven - flagged} unknown"
        )
        return 1 if flagged else 0

    select = None
    if args.select:
        select = frozenset(
            rule.strip() for rule in args.select.split(",") if rule.strip()
        )
        unknown = select - set(ALL_RULES) - {"PRAGMA", "PARSE"}
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(sorted(unknown))}")

    files = iter_python_files(paths)
    diagnostics = lint_files(files, paths, select=select)

    files_checked = len(files)
    if args.format == "json":
        print(render_json(diagnostics, files_checked))
    else:
        print(render_text(diagnostics, files_checked))

    if args.sarif is not None:
        args.sarif.write_text(
            render_sarif(diagnostics, rule_docs(), root=Path.cwd()),
            encoding="utf-8",
        )
        print(f"crowdlint: SARIF report written to {args.sarif}")

    if diagnostics and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
