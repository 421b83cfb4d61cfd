"""Checks on the project's files: declared dependencies and unread names in src/."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinbath"

# bench/child.py wraps these names in ensemble's namespace, which no module reads.
UNREAD_WRAP_POINTS = {("ensemble.py", "make_model"), ("ensemble.py", "make_observable")}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def distribution(name: str) -> str:
    """Normalized project name (PEP 503), as an import name or a requirement's."""
    return re.sub(r"[-_.]+", "-", re.match(r"[A-Za-z0-9._-]+", name).group()).lower()


def test_test_and_demo_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        distribution(req)
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    missing = set()
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in (name.partition(".")[0] for name in names):
                if top not in sys.stdlib_module_names and top not in ("__future__", "spinbath"):
                    if distribution(top) not in declared:
                        missing.add(f"{path.relative_to(ROOT)}: {top}")
    assert not missing, f"imported but not declared in pyproject.toml: {sorted(missing)}"


def reads(tree: ast.AST) -> set[str]:
    """Names a tree loads, bare or as an attribute of something else."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def module_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return names


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
    return names


def test_every_private_name_and_import_in_src_is_read():
    trees = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    read_anywhere = set().union(*(reads(tree) for tree in trees.values()))
    unread = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        private = [n for n in module_level_names(tree) if n.startswith("_") and not n.startswith("__")]
        unread |= {(name, n) for n in private if n not in read_anywhere}
        read_here = reads(tree)
        unread |= {(name, n) for n in imported_names(tree) if n not in read_here}
    assert unread == UNREAD_WRAP_POINTS


def calls(tree: ast.AST) -> set[str]:
    """Names of the functions and methods a tree calls."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def defined_names(tree: ast.Module) -> set[str]:
    """Module-level names and class-level names as ``Class.name``."""
    names = set(module_level_names(tree))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{item.name}" for item in node.body if hasattr(item, "name")}
    return names


def test_domain_types_alone_check_and_freeze_their_arrays():
    # SpinBathModel, RelevantObservable and DenseState check and freeze what
    # they are given in __post_init__; no factory repeats that work.
    trees = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    checkers = {"_check_sites", "_check_hermitian_stack"}
    assert {name for name, tree in trees.items() if calls(tree) & checkers} == {"model.py"}
    assert "setflags" not in calls(trees["ensemble.py"])
    defined = set().union(*(defined_names(tree) for tree in trees.values()))
    assert not defined & {"_frozen_array", "_adopt", "DenseState._seal", "_freeze"}


def test_checked_types_store_through_one_base():
    # Every class that checks itself in __post_init__ derives from
    # model._Checked, whose _store alone writes fields and freezes arrays.
    trees = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    checked = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(item, "name", None) == "__post_init__" for item in node.body)
    }
    assert len(checked) == 8
    assert all("_Checked" in bases for bases in checked.values()), checked
    for name, tree in trees.items():
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "__setattr__" not in attributes, name
        if name != "model.py":
            assert not attributes & {"setflags", "__dict__"}, name


def test_every_mutant_text_occurs_once_in_src(monkeypatch):
    # tests/mutants.py applies each mutant by text, so a refactor that moves
    # the text must update the mutant rather than silently disarm it.
    path = ROOT / "tests" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mutants)  # its dataclass looks itself up there
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert mutant.path.startswith("src/spinbath/"), mutant.name
        assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1, mutant.name
