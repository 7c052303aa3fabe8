"""grlogic is standard-library only: no third-party import, no runtime dependency."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_import_is_relative_or_stdlib():
    sources = sorted((ROOT / "src" / "grlogic").rglob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {root}"


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


SHARED_FIELDS = {"basis", "ambient"}


def _field_writes(tree: ast.AST):
    """(enclosing class, function, line) of each write to an attribute named
    basis or ambient: assignment, augmented or annotated assignment, del,
    or setattr with the name spelled out."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and sub.attr in SHARED_FIELDS:
                    found.append((cls, fn, node.lineno))
        if isinstance(node, ast.Call) and any(
            isinstance(arg, ast.Constant) and arg.value in SHARED_FIELDS for arg in node.args
        ):
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id in ("setattr", "delattr")) or (
                isinstance(callee, ast.Attribute) and callee.attr in ("__setattr__", "__delattr__")
            ):
                found.append((cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_subspace_fields_are_written_only_by_its_constructor():
    # the lattice's computed table and the shared zero/full hand the same
    # Subspace to many callers, so writing one in place would change them all
    allowed = ("Subspace", "__init__")
    init_writes = 0
    for path in sorted((ROOT / "src" / "grlogic").rglob("*.py")):
        for cls, fn, line in _field_writes(ast.parse(path.read_text(), str(path))):
            assert (cls, fn) == allowed, f"{path.name}:{line} writes a Subspace field"
            init_writes += 1
    assert init_writes == 2  # the guard sees the constructor's own two writes
