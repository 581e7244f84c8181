"""The shipped demos run end to end, and the library modules import
nothing they do not use and define no function that nothing calls."""

import ast
import contextlib
import io
import runpy
import types
from pathlib import Path

import pytest

import g3lr
import g3lr.decompose

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g3lr"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("demo_*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue()


def test_decompose_name_binds_the_module():
    assert isinstance(g3lr.decompose, types.ModuleType)
    assert callable(g3lr.decompose.decompose)


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", sorted(p for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_used(module):
    assert _unused_imports(module) == []


def _functions(tree):
    """The module-level functions and the methods of module-level
    classes, dunder methods aside."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, ast.FunctionDef) and not (
                    f.name.startswith("__") and f.name.endswith("__")):
                yield f.name


def _unreferenced_functions(package):
    """(module, name) of each function of `_functions` whose name no
    name, attribute or imported name anywhere in the package refers to;
    an import in `__init__` is a re-export and counts."""
    defined, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.stem, name) for name in _functions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [(m, name) for m, name in defined if name not in referenced]


def test_every_function_is_referenced():
    assert _unreferenced_functions(PACKAGE) == []
