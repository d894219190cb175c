"""The crowdlint 2.0 substrate: the project model (module/symbol
tables, import graph, call graph), the structural type engine with its
deep-immutability classification, and the per-function dataflow
summaries the project-wide passes consume."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from crowdlint.dataflow import summarize_function
from crowdlint.project import (
    Project,
    TypeRef,
    module_name_for,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path, files: dict[str, str]) -> Project:
    paths = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return Project.load(paths)


def func_of(project: Project, module: str, name: str) -> ast.FunctionDef:
    return project.modules[module].functions[name]


# -- module naming and loading ------------------------------------------------


def test_module_name_walks_package_markers(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
    module = tmp_path / "pkg" / "sub" / "mod.py"
    module.write_text("x = 1\n")
    assert module_name_for(module) == "pkg.sub.mod"
    assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"


def test_module_outside_package_uses_stem(tmp_path):
    loose = tmp_path / "loose.py"
    loose.write_text("x = 1\n")
    assert module_name_for(loose) == "loose"


def test_load_skips_unparsable_files(tmp_path):
    project = make_project(tmp_path, {
        "good.py": "x = 1\n",
        "bad.py": "def broken(:\n",
    })
    assert "good" in project.modules
    assert "bad" not in project.modules


def test_module_indexes(tmp_path):
    project = make_project(tmp_path, {
        "mod.py": """\
            import json
            from os import path as p

            CACHE = {}
            LIMIT = 5

            class Widget:
                def spin(self):
                    pass

            def helper():
                pass
        """,
    })
    info = project.modules["mod"]
    assert set(info.classes) == {"Widget"}
    assert set(info.functions) == {"helper"}
    assert info.imports["json"] == "json"
    assert info.imports["p"] == "os.path"
    assert set(info.module_mutables) == {"CACHE"}
    assert "LIMIT" in info.module_bindings
    assert "spin" in info.class_methods("Widget")


# -- cross-module resolution and the import graph -----------------------------


CROSS = {
    "defs.py": """\
        class Thing:
            def poke(self):
                pass

        def make():
            return Thing()
    """,
    "user.py": """\
        from defs import Thing, make

        def build():
            return make()

        class Holder:
            def __init__(self):
                self.thing = Thing()

            def run(self):
                self.helper()
                self.thing.poke()

            def helper(self):
                pass
    """,
}


def test_resolve_imported_symbol(tmp_path):
    project = make_project(tmp_path, CROSS)
    user = project.modules["user"]
    mod, node = project.resolve(user, "Thing")
    assert mod.name == "defs" and isinstance(node, ast.ClassDef)
    assert project.resolve_class(user, "Thing") == (mod, node)
    assert project.resolve(user, "nonexistent") is None


def test_import_graph_is_project_internal(tmp_path):
    project = make_project(tmp_path, CROSS)
    assert project.import_graph["user"] == {"defs"}
    assert project.import_graph["defs"] == set()


def test_callees_plain_self_and_attribute(tmp_path):
    project = make_project(tmp_path, CROSS)
    user = project.modules["user"]
    build = user.functions["build"]
    names = {f.name for _, f, _ in project.callees(user, build)}
    assert names == {"make"}
    holder = user.classes["Holder"]
    run = user.class_methods("Holder")["run"]
    reached = {f.name for _, f, _ in project.callees(user, run, holder)}
    # self.helper() resolves on the owner; self.thing.poke() resolves
    # through the attribute's constructor class.
    assert reached == {"helper", "poke"}


# -- the type engine ----------------------------------------------------------


def eval_annotation(tmp_path, source: str, annotation: str) -> TypeRef:
    project = make_project(tmp_path, {
        "types_mod.py": source + f"\ndef probe(x: {annotation}):\n    pass\n",
    })
    module = project.modules["types_mod"]
    node = module.functions["probe"].args.args[0].annotation
    return project.types.of_annotation(node, module)


def test_annotation_pep604_union(tmp_path):
    ref = eval_annotation(tmp_path, "", "str | int | None")
    assert ref.kind == "union"
    assert {a.name for a in ref.args} == {"str", "int", "None"}


def test_annotation_string_and_optional(tmp_path):
    assert eval_annotation(tmp_path, "", "'str'").name == "str"
    ref = eval_annotation(tmp_path, "", "dict[str, int]")
    assert ref.kind == "dict"


def test_annotation_module_alias_expands(tmp_path):
    ref = eval_annotation(
        tmp_path, "Cell = str | int | None\n", "tuple[Cell, ...]"
    )
    assert ref.kind == "tuple"
    assert ref.args[0].kind == "union"


IMMUTABILITY = {
    "shapes.py": """\
        from dataclasses import dataclass

        Cell = str | int | float | bool | None

        @dataclass(frozen=True)
        class Point:
            x: int
            y: int

        @dataclass(frozen=True)
        class Path:
            points: tuple[Point, ...]

        @dataclass(frozen=True)
        class Bag:
            items: list

        @dataclass
        class Loose:
            x: int

        class ValueLike:
            def __init__(self, data):
                self._data = dict(data)

            def get(self, key):
                return self._data[key]

        class Mutant:
            def __init__(self):
                self._items = []

            def push(self, item):
                self._items.append(item)
    """,
}


def test_deep_immutability_classification(tmp_path):
    project = make_project(tmp_path, IMMUTABILITY)
    module = project.modules["shapes"]

    def immutable(annotation: str) -> bool:
        node = ast.parse(annotation, mode="eval").body
        ref = project.types.of_annotation(node, module)
        return project.types.is_deeply_immutable(ref, module)

    assert immutable("str")
    assert immutable("Cell")
    assert immutable("tuple[str, ...]")
    assert immutable("Point")           # frozen, all fields immutable
    assert immutable("Path")            # frozen, tuple of frozen
    assert immutable("ValueLike")       # externally immutable convention
    assert not immutable("list")
    assert not immutable("Bag")         # frozen but holds a list
    assert not immutable("Loose")       # not frozen
    assert not immutable("Mutant")      # mutates self outside __init__
    assert not immutable("Unresolved")  # unknown is never proven


def test_rowvalue_is_proven_immutable_on_real_tree():
    """The convention check must keep classifying the real ``RowValue``
    (all attribute writes confined to ``__init__``) as immutable — the
    ESC001 proven set depends on it."""
    files = list((REPO_ROOT / "src" / "repro" / "core").glob("*.py"))
    project = Project.load(files)
    module = project.find_module("repro.core.row")
    assert module is not None
    ref = TypeRef("class", f"{module.name}:RowValue")
    assert project.types.is_deeply_immutable(ref, module)


# -- dataflow summaries -------------------------------------------------------


def summarize(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
    return summarize_function(func)


def test_summary_params_bindings_and_mutations():
    summary = summarize("""\
        def f(a, b: int, *args, **kwargs):
            local = [a]
            local.append(b)
            table[key] = 1
            total = 0
            total += b
            return local
    """)
    assert set(summary.params) == {"a", "b", "args", "kwargs"}
    assert summary.is_local("local") and summary.is_local("total")
    methods = {(m.target, m.method) for m in summary.mutations}
    assert ("local", "append") in methods
    assert ("table", "[]=") in methods
    assert ("total", "+=") in methods
    assert len(summary.returns) == 1
    assert summary.single_binding("local") is not None
    assert summary.single_binding("total") is None  # two bindings


def test_summary_self_writes_reads_and_free_names():
    summary = summarize("""\
        def f(self, x):
            self.count = x
            y = self.count + GLOBAL_TABLE[x]
            return y
    """)
    assert set(summary.self_writes) == {"count"}
    assert "count" in summary.self_reads
    assert "GLOBAL_TABLE" in summary.free_reads
    assert "y" not in summary.free_reads  # locals are not free


def test_summary_global_writes():
    summary = summarize("""\
        def f():
            global COUNTER
            COUNTER = 1
    """)
    assert summary.global_writes == {"COUNTER"}


def test_summary_loop_bindings_for_element_typing():
    summary = summarize("""\
        def f(rows):
            for row in rows:
                pass
            for key, value in rows:
                pass
    """)
    assert "row" in summary.loop_bindings
    assert summary.loop_unpack_bindings["key"][0][1] == 0
    assert summary.loop_unpack_bindings["value"][0][1] == 1


def test_summary_folds_nested_closures():
    summary = summarize("""\
        def f(pool):
            def intern(value):
                pool.append(value)
                return len(pool) - 1
            return intern("x")
    """)
    # The closure's mutation happens in f's frame.
    assert any(m.target == "pool" for m in summary.mutations)
    # ...but the closure's own params are not free reads of f.
    assert "value" not in summary.free_reads
