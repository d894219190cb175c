"""crowdlint 2.0 infrastructure: SARIF rendering, pragma validation,
and the CLI surface."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from crowdlint import (
    Diagnostic,
    lint_file,
    lint_paths,
    render_sarif,
    rule_docs,
)
from crowdlint.__main__ import main


def diag(rule="MUT001", path="src/mod.py", line=3, col=1, message="boom"):
    return Diagnostic(rule=rule, path=path, line=line, col=col, message=message)


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


#: A snippet with exactly one finding (MUT001 mutable default).
BAD = "def f(acc=[]):\n    return acc\n"
CLEAN = "def f(rng):\n    return rng.random()\n"


# -- SARIF --------------------------------------------------------------------


class TestSarif:
    def render(self, diagnostics, root=None):
        return json.loads(render_sarif(diagnostics, rule_docs(), root=root))

    def test_shape_and_rule_metadata(self):
        log = self.render([diag()])
        assert log["version"] == "2.1.0"
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "crowdlint"
        ids = {rule["id"] for rule in driver["rules"]}
        assert {"DET001", "MUT001", "COMM001", "WIRE001", "ESC001",
                "OBS001", "EXH001"} <= ids
        result = log["runs"][0]["results"][0]
        assert result["ruleId"] == "MUT001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 1}
        assert driver["rules"][result["ruleIndex"]]["id"] == "MUT001"

    def test_repo_relative_uris(self, tmp_path):
        found = diag(path=str(tmp_path / "pkg" / "mod.py"))
        log = self.render([found], root=tmp_path)
        location = log["runs"][0]["results"][0]["locations"][0]
        assert location["physicalLocation"]["artifactLocation"]["uri"] == (
            "pkg/mod.py"
        )

    def test_stable_ordering(self):
        unordered = [
            diag(path="b.py", line=1),
            diag(path="a.py", line=9),
            diag(path="a.py", line=2, rule="DET001"),
            diag(path="a.py", line=2, rule="COMM001"),
        ]
        log = self.render(unordered)
        keys = [
            (
                r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
                r["locations"][0]["physicalLocation"]["region"]["startLine"],
                r["ruleId"],
            )
            for r in log["runs"][0]["results"]
        ]
        assert keys == sorted(keys)

    def test_cli_writes_sarif(self, tmp_path, capsys):
        write(tmp_path, "bad.py", BAD)
        target = tmp_path / "report.sarif"
        assert main([str(tmp_path), "--sarif", str(target)]) == 1
        log = json.loads(target.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "MUT001"
        assert "SARIF report written" in capsys.readouterr().out


# -- pragmas ------------------------------------------------------------------


class TestPragmas:
    def test_multi_rule_pragma_suppresses_both(self, tmp_path):
        path = write(tmp_path, "snippet.py", """\
            import random

            def f(acc=[], r=random.random()):  # crowdlint: disable=MUT001,DET001
                return acc
        """)
        assert lint_file(path) == []

    def test_unknown_rule_name_warns(self, tmp_path):
        # Composed so this test file's own physical lines never carry
        # the bogus pragma (crowdlint lints its own test suite).
        bogus = "NOPE" + "999"
        path = write(tmp_path, "snippet.py", f"""\
            def f(acc=[]):  # crowdlint: disable=MUT001,{bogus}
                return acc
        """)
        diags = lint_file(path)
        assert [d.rule for d in diags] == ["PRAGMA"]
        assert f"unknown rule `{bogus}`" in diags[0].message

    def test_pragma_on_decorated_def(self, tmp_path):
        decorated = """\
            import functools

            @functools.lru_cache
            def f(acc=()):{pragma}
                return {default}
        """
        flagged = write(tmp_path, "flagged.py", decorated.format(
            pragma="", default="list(acc) + [1]"
        ).replace("acc=()", "acc=[]"))
        assert [d.rule for d in lint_file(flagged)] == ["MUT001"]
        suppressed = write(tmp_path, "ok.py", decorated.format(
            pragma="  # crowdlint: disable=MUT001", default="list(acc) + [1]"
        ).replace("acc=()", "acc=[]"))
        assert lint_file(suppressed) == []

    def test_project_pass_diagnostics_respect_pragmas(self, tmp_path):
        write(tmp_path, "messages.py", """\
            class StickyMessage:
                def apply(self, table):
                    self.seen = True  # crowdlint: disable=COMM001

            Message = StickyMessage | StickyMessage
        """)
        assert lint_paths([tmp_path]) == []

    def test_json_output_is_stably_ordered(self, tmp_path, capsys):
        write(tmp_path, "b.py", BAD)
        write(tmp_path, "a.py", "import random\nr = random.random()\n" + BAD)
        assert main([str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        keys = [
            (d["path"], d["line"], d["col"], d["rule"])
            for d in report["diagnostics"]
        ]
        assert keys == sorted(keys)
        assert report["violations"] == 3


# -- CLI surface --------------------------------------------------------------


class TestCli:
    def test_rules_reference(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "MUT001", "EXH001",
                        "COMM001", "COMM002", "WIRE001", "WIRE002",
                        "ESC001", "OBS001"):
            assert rule_id in out

    def test_escape_report_clean_tree(self, tmp_path, capsys):
        write(tmp_path, "replica.py", """\
            class Replica:
                def send_note(self, note: str):
                    self.network.send("me", "peer", note)
        """)
        assert main([str(tmp_path), "--escape-report"]) == 0
        out = capsys.readouterr().out
        assert "[proven]" in out
        assert "1 proven alias-free, 0 flagged" in out

    def test_escape_report_flagged_tree_exits_one(self, tmp_path, capsys):
        write(tmp_path, "replica.py", """\
            class Replica:
                def __init__(self):
                    self.rows: list = []

                def leak(self):
                    self.network.send("me", "peer", self.rows)
        """)
        assert main([str(tmp_path), "--escape-report"]) == 1
        assert "[flagged]" in capsys.readouterr().out

    def test_cli_walks_each_root_once(self, monkeypatch, capsys):
        """The file count comes from the walk the lint already made."""
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        walks = []
        rglob = Path.rglob
        monkeypatch.setattr(
            Path, "rglob", lambda self, *a: walks.append(self) or rglob(self, *a)
        )
        assert main([str(root)]) == 0
        assert walks == [root]
        assert "files clean" in capsys.readouterr().out

    def test_select_accepts_new_rules(self, tmp_path):
        write(tmp_path, "ok.py", CLEAN)
        assert main([
            str(tmp_path), "--select", "COMM001,WIRE001,ESC001,OBS001",
        ]) == 0
