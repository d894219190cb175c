"""crowdlint — repo-specific static analysis for the CrowdFill repro.

The reproduction's value rests on guarantees the paper proves but code
can silently break: deterministic, seedable interleavings (the DES
substitution for Socket.IO), convergence of independently evolving
replicas (§2.4), and — since the sharded decentralised commit —
pairwise-commutative committed operations and a complete exchange wire
codec.  This package makes that failure class loud and permanent.

crowdlint is development tooling, kept beside the ``repro`` package
rather than inside it: it imports nothing from ``repro`` (everything
is read with stdlib ``ast``) and nothing in ``repro`` imports it.  It
is built on a project-wide core (:mod:`crowdlint.project` — every file
parsed once into a module/symbol table, import graph, lightweight call
graph, type + deep-immutability engine; :mod:`crowdlint.dataflow` —
per-function def-use/mutation/escape summaries) with two rule layers
that both read that one parse:

- per-file rules (:mod:`crowdlint.rules`, :mod:`crowdlint.obsguard`):
  DET001 ambient entropy, DET002 unsorted set/dict-view iteration into
  order-sensitive sinks, DET003 ``id()`` in sort keys/hashes, MUT001
  mutable defaults / module-level mutable state, OBS001 observability
  work outside the ``enabled`` guard;
- project-wide passes: COMM001/COMM002 commit-path commutativity
  hazards (:mod:`crowdlint.commutativity`), WIRE001/WIRE002 wire-codec
  completeness (:mod:`crowdlint.codec`), ESC001 aliasing escapes at
  network send sites — with a report of sites *proven* alias-free
  (:mod:`crowdlint.escapes`), and EXH001 message-type exhaustiveness
  across the replicated stack including the shard layer
  (:mod:`crowdlint.exhaustiveness`).

Reports: text, JSON and SARIF 2.1.0 (:mod:`crowdlint.sarif`).
Any finding fails the run.

Suppress a finding with a line-scoped ``# crowdlint: disable=<rule>``
comment (unknown rule names in a pragma warn as ``PRAGMA``).  CLI, from
the repository root: ``PYTHONPATH=tools python -m crowdlint`` (``--rules``
prints the rule reference).
"""

from crowdlint.diagnostics import Diagnostic, disabled_rules
from crowdlint.escapes import SendSite, analyze_escapes
from crowdlint.exhaustiveness import (
    ExhaustivenessConfig,
    check_exhaustiveness,
)
from crowdlint.linter import (
    ALL_RULES,
    escape_report,
    lint_file,
    lint_files,
    lint_paths,
    project_passes,
    rule_docs,
)
from crowdlint.project import Project
from crowdlint.report import render_json, render_text
from crowdlint.sarif import render_sarif

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "ExhaustivenessConfig",
    "Project",
    "SendSite",
    "analyze_escapes",
    "check_exhaustiveness",
    "disabled_rules",
    "escape_report",
    "lint_file",
    "lint_files",
    "lint_paths",
    "project_passes",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_docs",
]
