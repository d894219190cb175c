"""Tests for crowdlint: per-rule fixture snippets
(positive / negative / pragma-disabled), the project-level EXH001
exhaustiveness checker on synthetic stacks, the CLI, and — the
self-referential gate — an assertion that ``src/repro`` itself lints
clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from crowdlint import (
    ALL_RULES,
    ExhaustivenessConfig,
    Project,
    check_exhaustiveness,
    disabled_rules,
    lint_file,
    lint_paths,
)
from crowdlint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_file(path)


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


# -- DET001: unseeded entropy -------------------------------------------------


@pytest.mark.parametrize("source", [
    "import random\ndef f():\n    return random.random()\n",
    "import time\ndef f():\n    return time.time()\n",
    "from datetime import datetime\ndef f():\n    return datetime.now()\n",
    "import os\ndef f():\n    return os.urandom(8)\n",
    "import uuid\ndef f():\n    return uuid.uuid4()\n",
    "from random import random as r\ndef f():\n    return r()\n",
    # Seeding from builtin hash() is PYTHONHASHSEED-dependent.
    "import random\ndef f(name):\n    return random.Random(hash(name))\n",
])
def test_det001_flags_direct_entropy(tmp_path, source):
    assert rules_of(lint_snippet(tmp_path, source)) == ["DET001"]


@pytest.mark.parametrize("source", [
    "def f(rng):\n    return rng.random()\n",
    "import random\ndef f():\n    return random.Random(42)\n",
    "from repro.sim.rng import RngStreams\n"
    "def f():\n    return RngStreams(0).stream('x')\n",
])
def test_det001_allows_injected_or_seeded(tmp_path, source):
    assert lint_snippet(tmp_path, source) == []


def test_det001_pragma_suppression(tmp_path):
    source = (
        "import random\n"
        "def f():\n"
        "    return random.random()  # crowdlint: disable=DET001\n"
    )
    assert lint_snippet(tmp_path, source) == []


# -- DET002: unsorted set iteration into order-sensitive sinks ----------------


def test_det002_flags_set_iteration_with_append(tmp_path):
    source = (
        "def f(items: set):\n"
        "    out = []\n"
        "    for item in items:\n"
        "        out.append(item)\n"
        "    return out\n"
    )
    assert rules_of(lint_snippet(tmp_path, source)) == ["DET002"]


def test_det002_flags_inferred_set_literal(tmp_path):
    source = (
        "def f():\n"
        "    pending = {1, 2, 3}\n"
        "    out = []\n"
        "    for item in pending:\n"
        "        out.append(item)\n"
        "    return out\n"
    )
    assert rules_of(lint_snippet(tmp_path, source)) == ["DET002"]


@pytest.mark.parametrize("source", [
    # sorted() restores determinism.
    "def f(items: set):\n"
    "    out = []\n"
    "    for item in sorted(items):\n"
    "        out.append(item)\n"
    "    return out\n",
    # Commutative consumer: order cannot matter.
    "def f(items: set):\n    return sum(x * 2 for x in items)\n",
    # Plain list iteration is deterministic already.
    "def f(items: list):\n"
    "    out = []\n"
    "    for item in items:\n"
    "        out.append(item)\n"
    "    return out\n",
])
def test_det002_negative(tmp_path, source):
    assert lint_snippet(tmp_path, source) == []


def test_det002_pragma_suppression(tmp_path):
    source = (
        "def f(items: set):\n"
        "    out = []\n"
        "    for item in items:  # crowdlint: disable=DET002\n"
        "        out.append(item)\n"
        "    return out\n"
    )
    assert lint_snippet(tmp_path, source) == []


# -- DET003: identity-based ordering ------------------------------------------


def test_det003_flags_id_in_sort_key(tmp_path):
    source = "def f(xs):\n    return sorted(xs, key=lambda v: id(v))\n"
    assert rules_of(lint_snippet(tmp_path, source)) == ["DET003"]


def test_det003_negative_and_pragma(tmp_path):
    clean = "def f(xs):\n    return sorted(xs, key=lambda v: v.name)\n"
    assert lint_snippet(tmp_path, clean) == []
    disabled = (
        "def f(xs):\n"
        "    return sorted(xs, key=lambda v: id(v))"
        "  # crowdlint: disable=DET003\n"
    )
    assert lint_snippet(tmp_path, disabled) == []


# -- MUT001: mutable defaults / replicated module state -----------------------


@pytest.mark.parametrize("source", [
    "def f(acc=[]):\n    return acc\n",
    "def f(acc={}):\n    return acc\n",
    "from collections import defaultdict\n"
    "def f(acc=defaultdict(list)):\n    return acc\n",
])
def test_mut001_flags_mutable_defaults(tmp_path, source):
    assert "MUT001" in rules_of(lint_snippet(tmp_path, source))


def test_mut001_flags_module_state_in_replicated_subsystem(tmp_path):
    diags = lint_snippet(tmp_path, "CACHE = {}\n", name="core/state.py")
    assert rules_of(diags) == ["MUT001"]


def test_mut001_ignores_module_state_outside_replicated_code(tmp_path):
    assert lint_snippet(tmp_path, "CACHE = {}\n", name="tools/state.py") == []


def test_mut001_negative_and_pragma(tmp_path):
    assert lint_snippet(
        tmp_path, "def f(acc=None):\n    return acc or []\n"
    ) == []
    assert lint_snippet(
        tmp_path, "__all__ = ['x']\n", name="core/init.py"
    ) == []
    assert lint_snippet(
        tmp_path,
        "REGISTRY = {}  # crowdlint: disable=MUT001\n",
        name="server/reg.py",
    ) == []


# -- EXH001: message exhaustiveness -------------------------------------------

CLEAN_MESSAGES = '''\
from typing import Union


class InsertMessage:
    def apply(self, table):
        table.apply_insert(self)

    def to_dict(self):
        return {"type": "insert"}


Message = Union[InsertMessage, InsertMessage]


def message_from_dict(data):
    if data["type"] == "insert":
        return InsertMessage()
    raise ValueError(data["type"])
'''


def make_stack(tmp_path, messages_src=CLEAN_MESSAGES, with_handlers=True):
    (tmp_path / "core").mkdir(parents=True, exist_ok=True)
    (tmp_path / "core" / "messages.py").write_text(messages_src)
    (tmp_path / "core" / "table.py").write_text(
        "class CandidateTable:\n    def apply_insert(self, msg):\n        pass\n"
    )
    (tmp_path / "server").mkdir(exist_ok=True)
    (tmp_path / "client").mkdir(exist_ok=True)
    body = "    def on_message(self, source, payload):\n        pass\n"
    if not with_handlers:
        body = "    pass\n"
    (tmp_path / "server" / "backend.py").write_text(
        f"class BackendServer:\n{body}"
    )
    (tmp_path / "client" / "worker_client.py").write_text(
        f"class WorkerClient:\n{body}"
    )
    config = ExhaustivenessConfig.locate(tmp_path)
    assert config is not None
    return config


def check_stack(root, config):
    """EXH001 over a project of every file under *root*."""
    return check_exhaustiveness(Project.load(sorted(root.rglob("*.py"))), config)


def test_exh001_clean_stack(tmp_path):
    assert check_stack(tmp_path, make_stack(tmp_path)) == []


def test_exh001_missing_apply(tmp_path):
    broken = CLEAN_MESSAGES.replace(
        "    def apply(self, table):\n        table.apply_insert(self)\n\n", ""
    )
    diags = check_stack(tmp_path, make_stack(tmp_path, broken))
    assert any("no apply()" in d.message for d in diags)


def test_exh001_apply_targets_nonexistent_table_method(tmp_path):
    broken = CLEAN_MESSAGES.replace("apply_insert", "apply_bogus")
    diags = check_stack(tmp_path, make_stack(tmp_path, broken))
    assert any("apply_bogus" in d.message for d in diags)


def test_exh001_undecoded_type_tag(tmp_path):
    broken = CLEAN_MESSAGES.replace('data["type"] == "insert"', 'data["type"] == "other"')
    diags = check_stack(tmp_path, make_stack(tmp_path, broken))
    assert any("no branch for type tag 'insert'" in d.message for d in diags)


def test_exh001_unregistered_message_class(tmp_path):
    rogue = CLEAN_MESSAGES + (
        "\n\nclass RogueMessage:\n"
        "    def apply(self, table):\n        table.apply_insert(self)\n"
        "    def to_dict(self):\n        return {\"type\": \"insert\"}\n"
    )
    diags = check_stack(tmp_path, make_stack(tmp_path, rogue))
    assert any("not registered in the Message union" in d.message for d in diags)


def test_exh001_missing_handler_entry_point(tmp_path):
    config = make_stack(tmp_path, with_handlers=False)
    diags = check_stack(tmp_path, config)
    assert sum("on_message missing" in d.message for d in diags) == 2


# -- driver / CLI -------------------------------------------------------------


def test_lint_paths_sorts_and_selects(tmp_path):
    (tmp_path / "b.py").write_text("def f(acc=[]):\n    return acc\n")
    (tmp_path / "a.py").write_text(
        "import random\ndef f():\n    return random.random()\n"
    )
    diags = lint_paths([tmp_path])
    assert [Path(d.path).name for d in diags] == ["a.py", "b.py"]
    only_mut = lint_paths([tmp_path], select=frozenset({"MUT001"}))
    assert rules_of(only_mut) == ["MUT001"]


def test_unparsable_file_reports_parse_diagnostic(tmp_path):
    diags = lint_snippet(tmp_path, "def broken(:\n")
    assert rules_of(diags) == ["PARSE"]


def test_disabled_rules_parsing():
    assert disabled_rules("x = 1") is None
    assert disabled_rules("x = 1  # crowdlint: disable") == frozenset()
    assert disabled_rules(
        "x = 1  # crowdlint: disable=DET001,MUT001"
    ) == frozenset({"DET001", "MUT001"})


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("def f(rng):\n    return rng.random()\n")
    assert main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_violation_exits_nonzero_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\ndef f():\n    return random.random()\n")
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:3:" in out and "DET001" in out


def test_cli_warn_only_exits_zero(tmp_path, capsys):
    (tmp_path / "bad.py").write_text("def f(acc=[]):\n    return acc\n")
    assert main([str(tmp_path), "--warn-only"]) == 0
    assert "MUT001" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    (tmp_path / "bad.py").write_text("def f(acc=[]):\n    return acc\n")
    assert main([str(tmp_path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 1
    assert report["diagnostics"][0]["rule"] == "MUT001"


def test_cli_rejects_unknown_rule(tmp_path):
    with pytest.raises(SystemExit):
        main([str(tmp_path), "--select", "NOPE999"])


# -- the gate: the shipped tree is clean --------------------------------------


def test_src_repro_is_crowdlint_clean():
    """The acceptance criterion: ``python -m crowdlint src/repro
    tools/crowdlint`` exits 0 on the shipped tree — no findings at all —
    asserted here so any regression fails the plain test suite too, not
    only the CI lint job."""
    diagnostics = lint_paths(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "tools" / "crowdlint"]
    )
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)


def test_all_rules_registry():
    assert set(ALL_RULES) == {
        "DET001", "DET002", "DET003", "MUT001", "EXH001",
        "COMM001", "COMM002", "WIRE001", "WIRE002", "ESC001", "OBS001",
    }
