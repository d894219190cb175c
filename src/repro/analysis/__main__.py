"""``python -m repro.analysis`` — the crowdlint CLI.

Usage::

    python -m repro.analysis [paths ...]
        [--format text|json] [--select RULE[,RULE]]
        [--strict | --warn-only] [--no-exhaustiveness]
        [--baseline PATH | --no-baseline] [--write-baseline]
        [--sarif [PATH]]
        [--escape-report] [--rules]

With no paths, lints ``src/repro`` when it exists (repo root), else the
current directory.

Gating: findings **not covered by the committed baseline**
(``crowdlint-baseline.json``, applied automatically when present) exit
1; ``--warn-only`` reports without failing, ``--strict`` is the
explicit CI gate (and also surfaces stale baseline entries as
burn-down notes).  ``--write-baseline`` accepts the current findings
as legacy debt.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import BASELINE_NAME, Baseline
from repro.analysis.linter import (
    ALL_RULES,
    escape_report,
    iter_python_files,
    lint_paths,
    rule_docs,
)
from repro.analysis.report import render_json, render_text
from repro.analysis.sarif import render_sarif


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
        prog="python -m repro.analysis",
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
        "--strict", action="store_true",
        help="fail on any non-baseline finding and report stale baseline "
             "entries (the CI gate; failing is also the default)",
    )
    parser.add_argument(
        "--no-exhaustiveness", action="store_true",
        help="skip the project-level EXH001 message-coverage check",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="PATH",
        help=f"baseline file (default: ./{BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current findings as the new baseline and exit 0",
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
    if args.warn_only and args.strict:
        parser.error("--warn-only and --strict are mutually exclusive")

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

    diagnostics = lint_paths(
        paths, select=select, exhaustiveness=not args.no_exhaustiveness
    )

    # Baseline handling.
    root = Path.cwd()
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        candidate = root / BASELINE_NAME
        baseline_path = candidate if candidate.is_file() else None

    if args.write_baseline:
        target = args.baseline or (root / BASELINE_NAME)
        Baseline.from_diagnostics(diagnostics, root=root).save(target)
        print(
            f"crowdlint: wrote baseline with {len(diagnostics)} "
            f"finding{'s' if len(diagnostics) != 1 else ''} to {target}"
        )
        return 0

    suppressed = []
    stale = []
    if baseline_path is not None and not args.no_baseline:
        try:
            result = Baseline.load(baseline_path).apply(diagnostics, root=root)
        except ValueError as exc:
            print(f"crowdlint: {exc}")
            return 2
        diagnostics, suppressed, stale = (
            result.new, result.suppressed, result.stale
        )

    files_checked = len(iter_python_files(paths))
    if args.format == "json":
        print(render_json(diagnostics, files_checked))
    else:
        print(render_text(diagnostics, files_checked))
        if suppressed:
            print(
                f"crowdlint: {len(suppressed)} baselined finding"
                f"{'s' if len(suppressed) != 1 else ''} suppressed "
                f"(burn-down: {baseline_path})"
            )
        if stale and args.strict:
            for rule, path, message in stale:
                print(
                    f"crowdlint[stale-baseline]: {rule} {path}: {message} "
                    "— no longer observed; remove from the baseline"
                )

    if args.sarif is not None:
        args.sarif.write_text(
            render_sarif(
                diagnostics, rule_docs(), root=root, suppressed=suppressed
            ),
            encoding="utf-8",
        )
        print(f"crowdlint: SARIF report written to {args.sarif}")

    if diagnostics and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
