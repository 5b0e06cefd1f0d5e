"""The package needs nothing beyond the standard library (README: "standard
library only"): every absolute import in ``src/bipkit`` names a stdlib module,
and every name a module imports is read in it.
And every name the benchmark under ``perfbench/`` imports from the package
exists, so a rename fails here rather than in a benchmark run.  And importing
the CLI leaves ``multiprocessing`` unloaded until a pool starts."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bipkit"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (source.name, node.lineno, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_perfbench_imports_from_the_package_resolve():
    imported = set()
    for source in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "bipkit":
                imported.update((node.module, alias.name) for alias in node.names)
    assert len(imported) >= 30
    missing = sorted((module, name) for module, name in imported if not hasattr(importlib.import_module(module), name))
    assert missing == []


def test_package_reads_every_name_it_imports():
    # with no linter in the toolchain, a deletion could leave a dead import
    # behind: every name a module binds by a module-level import is read in
    # that module, except the re-exports of ``__init__.py`` and the
    # ``annotations`` future import
    unused = []
    for source in sorted(PACKAGE.rglob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                bound += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "annotations"]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(source.name, line, name) for line, name in bound if name not in read]
    assert unused == []


def _package_imports(source: Path) -> set[str]:
    """The package modules a source imports from, by name: ``graphs``,
    ``matching``, ``harness.enumeration``, ..."""
    here = source.relative_to(PACKAGE).parent.parts
    out = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = here[: len(here) - (node.level - 1)]
            out.add(".".join((*base, node.module)) if node.module else ".".join(base))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bipkit":
            out.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[2] for alias in node.names if alias.name.split(".")[0] == "bipkit")
    return out


def test_the_count_rule_lives_in_graphs_alone():
    # every count, size, range end and budget goes through ``graphs._int_in``:
    # graphs, which every module imports, imports no other package module;
    # structure and families take nothing from the matcher; and no module
    # outside graphs tests a value's type with isinstance or raises a
    # "must be an int" message of its own, which is what a second count
    # validator would do
    assert _package_imports(PACKAGE / "graphs.py") == set()
    assert "matching" not in _package_imports(PACKAGE / "structure.py")
    assert "matching" not in _package_imports(PACKAGE / "families.py")
    validators = []
    for source in sorted(PACKAGE.rglob("*.py")):
        if source.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), str(source))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                validators.append((source.name, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Raise) and "must be an int" in ast.unparse(node):
                validators.append((source.name, node.lineno, ast.unparse(node)))
    assert validators == []


def test_one_pass_validates_a_build_tree():
    # ``structure._spans`` checks a tree's shape and leaf ids in the same pass
    # that gives every reader its masks: every "malformed tree:" message in
    # the package is raised inside it, which a second tree validator would
    # break
    def raises(root: ast.AST) -> list[int]:
        return sorted(
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Raise) and "malformed tree:" in ast.unparse(node)
        )

    everywhere, in_spans = [], []
    for source in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        everywhere += [(source.name, line) for line in raises(tree)]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_spans":
                in_spans += [(source.name, line) for line in raises(node)]
    assert len(in_spans) == 4
    assert everywhere == in_spans


def test_one_cross_edge_rule():
    # which cross edges a node of each kind adds is stated once, in
    # ``structure._sees``: every comparison against a kind's name in the
    # package lies inside it, which a second statement of the rule would break
    kinds = {"union", "join", "skew"}

    def compares(root: ast.AST) -> list[int]:
        return sorted(
            node.lineno
            for node in ast.walk(root)
            if isinstance(node, ast.Compare)
            and any(isinstance(c, ast.Constant) and c.value in kinds for c in [node.left, *node.comparators])
        )

    everywhere, in_sees = [], []
    for source in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
        everywhere += [(source.name, line) for line in compares(tree)]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_sees":
                in_sees += [(source.name, line) for line in compares(node)]
    assert everywhere == in_sees
    assert in_sees


def test_level_builder_touches_no_module_state():
    # ``enumeration._build_level`` is a function of its parents alone, so a
    # class level can be built from any parents without touching the full
    # levels: it names neither ``bipartite_level`` nor a module-level dict,
    # and only ``bipartite_level`` writes the one level record, ``_LEVELS``
    source = PACKAGE / "harness" / "enumeration.py"
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
    dicts = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            dicts.update(t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))
    (builder,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_build_level"]
    names = {node.id for node in ast.walk(builder) if isinstance(node, ast.Name)}
    assert names & (dicts | {"bipartite_level"}) == set()
    assert not any(isinstance(node, (ast.Global, ast.Nonlocal)) for node in ast.walk(builder))
    assert _record_writers(tree, "_LEVELS") == ["bipartite_level"]


def _record_writers(tree: ast.Module, record: str) -> list[str]:
    """The module-level functions and statements of ``tree`` that write the
    module-level dict ``record``, apart from its one annotated declaration."""

    def writes(root: ast.AST) -> bool:
        for node in ast.walk(root):
            if isinstance(node, (ast.Name, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value if isinstance(node, ast.Subscript) else node
                if isinstance(target, ast.Name) and target.id == record:
                    return True
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == record:
                if node.attr not in ("get", "items", "keys", "values"):
                    return True
        return False

    declared = [node for node in tree.body if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == record]
    assert len(declared) == 1, record
    return [getattr(node, "name", "module level") for node in tree.body if node not in declared and writes(node)]


def test_lemma_walk_record_has_one_writer():
    # the lemma walk keeps one record per budget and level for the process,
    # ``suites._LEMMA_LEVELS``, and only ``_lemma_level`` writes it, each
    # level grown from the one below, as ``bipartite_level`` grows ``_LEVELS``
    source = PACKAGE / "harness" / "suites.py"
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
    assert _record_writers(tree, "_LEMMA_LEVELS") == ["_lemma_level"]


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a run with more than one worker starts a pool, and only it loads
    # multiprocessing, so a cold start that starts none does not pay for it
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, bipkit.harness.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
