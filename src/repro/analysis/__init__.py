"""crowdlint — repo-specific static analysis for the CrowdFill repro.

The reproduction's value rests on guarantees the paper proves but code
can silently break: deterministic, seedable interleavings (the DES
substitution for Socket.IO), convergence of independently evolving
replicas (§2.4), and — since the sharded decentralised commit (PR 7) —
pairwise-commutative committed operations and a complete exchange wire
codec.  This package makes that failure class loud and permanent.

crowdlint 2.0 is built on a project-wide core
(:mod:`repro.analysis.project` — module/symbol table, import graph,
lightweight call graph, type + deep-immutability engine;
:mod:`repro.analysis.dataflow` — per-function def-use/mutation/escape
summaries) with two rule layers:

- per-file rules (:mod:`repro.analysis.rules`,
  :mod:`repro.analysis.obsguard`): DET001 ambient entropy, DET002
  unsorted set/dict-view iteration into order-sensitive sinks, DET003
  ``id()`` in sort keys/hashes, MUT001 mutable defaults / module-level
  mutable state, OBS001 observability work outside the ``enabled``
  guard;
- project-wide passes: COMM001/COMM002 commit-path commutativity
  hazards (:mod:`repro.analysis.commutativity`), WIRE001/WIRE002
  wire-codec completeness (:mod:`repro.analysis.codec`), ESC001
  aliasing escapes at network send sites — with a report of sites
  *proven* alias-free (:mod:`repro.analysis.escapes`), and EXH001
  message-type exhaustiveness across the replicated stack including
  the shard layer (:mod:`repro.analysis.exhaustiveness`).

Reports: text, JSON and SARIF 2.1.0 (:mod:`repro.analysis.sarif`).
Any finding fails the run.

Suppress a finding with a line-scoped ``# crowdlint: disable=<rule>``
comment (unknown rule names in a pragma warn as ``PRAGMA``).  CLI:
``python -m repro.analysis`` (``--rules`` prints the rule reference).
"""

from repro.analysis.diagnostics import Diagnostic, disabled_rules
from repro.analysis.escapes import SendSite, analyze_escapes
from repro.analysis.exhaustiveness import (
    ExhaustivenessConfig,
    check_exhaustiveness,
)
from repro.analysis.linter import (
    ALL_RULES,
    escape_report,
    lint_file,
    lint_paths,
    project_passes,
    rule_docs,
)
from repro.analysis.project import Project
from repro.analysis.report import render_json, render_text
from repro.analysis.sarif import render_sarif

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
    "lint_paths",
    "project_passes",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_docs",
]
