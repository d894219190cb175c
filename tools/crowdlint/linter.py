"""The crowdlint driver: per-file rules, project-wide passes, pragmas.

crowdlint runs over one project model: every file is read and parsed
once, into a :class:`~crowdlint.project.ModuleInfo`, and both layers
read that parse:

1. **Per-file rules** (``FILE_RULES`` + :class:`ObsGuardRule`) see one
   module at a time — determinism (DET), mutable state (MUT), and
   observability-guard (OBS) checks, plus validation of the
   ``# crowdlint: disable=`` pragmas themselves (rule ``PRAGMA``).
2. **Project-wide passes** chase references across the modules of the
   :class:`~crowdlint.project.Project`: commit-path commutativity
   (COMM), wire-codec completeness (WIRE), aliasing escapes at send
   sites (ESC), and the replicated-stack exhaustiveness check (EXH),
   which runs only for a linted root that holds the replicated stack.

Both layers respect line-scoped pragmas; project-pass diagnostics are
filtered against the *flagged file's* source lines exactly like
per-file ones.  Results are stably ordered by
``(path, line, col, rule)``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from crowdlint import codec, commutativity, escapes
from crowdlint.commutativity import (
    RULE_ORDER as COMM_ORDER_RULE,
    RULE_SHARED as COMM_SHARED_RULE,
    check_commutativity,
)
from crowdlint.codec import (
    RULE_DICT as WIRE_DICT_RULE,
    RULE_EXCHANGE as WIRE_EXCHANGE_RULE,
    check_codecs,
)
from crowdlint.diagnostics import (
    Diagnostic,
    disabled_rules,
    is_suppressed,
)
from crowdlint.escapes import RULE as ESC_RULE, SendSite, analyze_escapes
from crowdlint.exhaustiveness import (
    ExhaustivenessConfig,
    check_exhaustiveness,
)
from crowdlint.exhaustiveness import RULE as EXH_RULE
from crowdlint.obsguard import ObsGuardRule
from crowdlint.project import ModuleInfo, Project, parse_module
from crowdlint.rules import FILE_RULES, LintContext

#: Per-file rules, in reporting order (the 1.x set plus OBS001).
ALL_FILE_RULES = tuple(FILE_RULES) + (ObsGuardRule(),)

#: Project-wide rule ids (need the cross-module Project).
PROJECT_RULES = (
    COMM_SHARED_RULE,
    COMM_ORDER_RULE,
    WIRE_EXCHANGE_RULE,
    WIRE_DICT_RULE,
    ESC_RULE,
    EXH_RULE,
)

#: Every selectable rule id crowdlint can emit.
ALL_RULES = tuple(rule.rule for rule in ALL_FILE_RULES) + PROJECT_RULES

#: Meta diagnostics that are not selectable rules.
PRAGMA_RULE = "PRAGMA"
_KNOWN_PRAGMA_TARGETS = frozenset(ALL_RULES) | {PRAGMA_RULE, "PARSE"}


def rule_docs() -> dict[str, str]:
    """Rule id -> rationale, drawn from the rule docstrings (the source
    of ``--rules`` and of the SARIF rule metadata)."""
    docs: dict[str, str] = {}
    for rule in ALL_FILE_RULES:
        docs[rule.rule] = (type(rule).__doc__ or rule.rule).strip()
    docs.update(commutativity.DOCS)
    docs.update(codec.DOCS)
    docs.update(escapes.DOCS)
    docs[EXH_RULE] = (
        "Message-type exhaustiveness across the replicated stack: every "
        "Message union member must define apply/to_dict, dispatch to an "
        "existing CandidateTable.apply_* method, have a decode branch in "
        "message_from_dict, and be covered by the shard layer's exchange "
        "encoder and on_message dispatch — so a newly registered op kind "
        "cannot be silently unprocessable anywhere a replica lives."
    )
    return docs


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """All ``.py`` files under *paths* (files pass through), sorted."""
    found: set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            found.add(path)
    return sorted(found)


def _validate_pragmas(path: Path, lines: list[str]) -> list[Diagnostic]:
    """``PRAGMA`` warnings for pragmas naming unknown rules — a typo'd
    pragma suppresses nothing and should say so, not stay silent."""
    out: list[Diagnostic] = []
    for lineno, line in enumerate(lines, start=1):
        rules = disabled_rules(line)
        if not rules:  # no pragma, or a bare disable-all
            continue
        for name in sorted(rules - _KNOWN_PRAGMA_TARGETS):
            out.append(
                Diagnostic(
                    rule=PRAGMA_RULE,
                    path=str(path),
                    line=lineno,
                    col=line.find("crowdlint") + 1 or 1,
                    message=(
                        f"pragma disables unknown rule `{name}` "
                        "(known: " + ", ".join(sorted(ALL_RULES)) + ")"
                    ),
                )
            )
    return out


def _parse(path: Path) -> ModuleInfo | Diagnostic:
    """The parsed module, or the ``PARSE`` diagnostic saying why not —
    a file that does not parse is reported rather than crashing the
    whole run."""
    try:
        return parse_module(path)
    except OSError as exc:
        return Diagnostic("PARSE", str(path), 1, 1, f"unreadable: {exc}")
    except SyntaxError as exc:
        return Diagnostic(
            "PARSE", str(path), exc.lineno or 1, (exc.offset or 0) + 1,
            f"syntax error: {exc.msg}",
        )


def lint_module(
    module: ModuleInfo, select: frozenset[str] | None = None
) -> list[Diagnostic]:
    """Run every per-file rule over one parsed module."""
    ctx = LintContext(path=module.path, tree=module.tree)
    for rule in ALL_FILE_RULES:
        if select is None or rule.rule in select:
            rule.check(ctx)
    lines = module.source.splitlines()
    diagnostics = [
        diagnostic
        for diagnostic in ctx.diagnostics
        if not is_suppressed(diagnostic, lines)
    ]
    if select is None or PRAGMA_RULE in select:
        diagnostics.extend(_validate_pragmas(module.path, lines))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diagnostics


def lint_file(
    path: Path, select: frozenset[str] | None = None
) -> list[Diagnostic]:
    """Run every per-file rule over one file (``PARSE`` if it does not
    parse)."""
    parsed = _parse(path)
    if isinstance(parsed, Diagnostic):
        return [parsed]
    return lint_module(parsed, select)


def _filter_pragmas(
    project: Project, diagnostics: list[Diagnostic]
) -> list[Diagnostic]:
    """Apply line-scoped pragmas to diagnostics pointing anywhere in
    *project*."""
    lines_by_path: dict[str, list[str]] = {}
    out: list[Diagnostic] = []
    for diagnostic in diagnostics:
        lines = lines_by_path.get(diagnostic.path)
        if lines is None:
            module = project.files.get(Path(diagnostic.path))
            lines = module.source.splitlines() if module is not None else []
            lines_by_path[diagnostic.path] = lines
        if not is_suppressed(diagnostic, lines):
            out.append(diagnostic)
    return out


def project_passes(
    project: Project,
    roots: Sequence[Path],
    select: frozenset[str] | None = None,
) -> list[Diagnostic]:
    """Run every project-wide pass over *project* (pragma-filtered);
    EXH001 checks each of *roots* that holds the replicated stack."""
    wanted = (
        frozenset(PROJECT_RULES) if select is None
        else select & frozenset(PROJECT_RULES)
    )
    diagnostics: list[Diagnostic] = []
    if wanted & {COMM_SHARED_RULE, COMM_ORDER_RULE}:
        diagnostics.extend(check_commutativity(project))
    if wanted & {WIRE_EXCHANGE_RULE, WIRE_DICT_RULE}:
        diagnostics.extend(check_codecs(project))
    if ESC_RULE in wanted:
        diagnostics.extend(analyze_escapes(project)[0])
    if EXH_RULE in wanted:
        seen: set[Path] = set()
        for root in roots:
            config = ExhaustivenessConfig.locate(Path(root))
            if config is not None and config.messages not in seen:
                seen.add(config.messages)
                diagnostics.extend(check_exhaustiveness(project, config))
    diagnostics = [d for d in diagnostics if d.rule in wanted]
    return _filter_pragmas(project, diagnostics)


def escape_report(paths: Sequence[Path]) -> list[SendSite]:
    """The ESC001 send-site classification for every file under
    *paths* — including the sites *proven* alias-free."""
    project = Project.load(iter_python_files(paths))
    return analyze_escapes(project)[1]


def lint_paths(
    paths: Sequence[Path],
    select: frozenset[str] | None = None,
) -> list[Diagnostic]:
    """Lint every Python file under *paths*."""
    return lint_files(iter_python_files(paths), paths, select)


def lint_files(
    files: Sequence[Path],
    roots: Sequence[Path],
    select: frozenset[str] | None = None,
) -> list[Diagnostic]:
    """Lint *files*, the walk of *roots*: parse each once, run the
    per-file rules on it, then the project-wide passes over them all."""
    modules: list[ModuleInfo] = []
    diagnostics: list[Diagnostic] = []
    for path in files:
        parsed = _parse(path)
        if isinstance(parsed, Diagnostic):
            diagnostics.append(parsed)
            continue
        modules.append(parsed)
        diagnostics.extend(lint_module(parsed, select))
    diagnostics.extend(project_passes(Project(modules), roots, select))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diagnostics
