"""Every name a module imports is used: the library and the tests are
parsed with ``ast`` and each imported name looked up.

A name counts as used when the module reads it, when its dotted path
(``import bandgraph.cli``) appears as an attribute chain, or when
``__all__`` re-exports it.  ``from __future__ import ...`` is exempt.

Every private function, class or method of the package (``_name``, not
dunder) is referenced somewhere in the package, by name or attribute.

The package has no ``assert`` statement: ``python -O`` drops them, so
every check it makes is an explicit raise.

Also: importing the package leaves networkx unloaded, and numpy unrun
until a numbering needs it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/bandgraph", "tests") for p in (ROOT / d).glob("*.py"))
PACKAGE = sorted((ROOT / "src/bandgraph").glob("*.py"))


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def unused_imports(source: str) -> list[str]:
    """The imported names (dotted for plain ``import a.b``) that the
    module never uses."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            used.add(_dotted(node))
        elif isinstance(node, ast.Assign) and "__all__" in map(_dotted, node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scan_finds_unused_names():
    source = "import os, os.path\nimport a.b\nfrom x import y, z as w\nprint(a.b.c, w)\n"
    assert unused_imports(source) == ["os", "os.path", "y"]
    reexport = "from __future__ import annotations\n__all__ = ['y']\nfrom x import y\n"
    assert unused_imports(reexport) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def orphaned_helpers(sources: list[str]) -> list[str]:
    """The private functions, classes and methods defined in ``sources``
    whose names none of them reads, as a name or an attribute."""
    defined, used = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = [name for name in defined if name.startswith("_") and not name.endswith("__")]
    return [name for name in private if name not in used]


def test_scan_finds_orphaned_helpers():
    source = (
        "def _used(): pass\ndef _orphan(): pass\n"
        "class _C:\n    def _m(self): pass\n    def __init__(self): _used()\n"
    )
    assert orphaned_helpers([source, "print(_C)\n"]) == ["_orphan", "_m"]


def test_no_orphaned_private_helpers():
    assert orphaned_helpers([path.read_text() for path in PACKAGE]) == []


def assert_statements(source: str) -> list[int]:
    """The line of every ``assert`` statement in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_scan_finds_assert_statements():
    source = "assert x\nif not x:\n    raise AssertionError(x)\ndef f():\n    assert y, 'msg'\n"
    assert assert_statements(source) == [1, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def test_import_bandgraph_leaves_networkx_unloaded():
    # only the exact clique covers in bandgraph.hypergraph import networkx
    src = str(ROOT / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import bandgraph; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    loaded = proc.stdout.split()
    assert "bandgraph" in loaded
    assert "networkx" not in loaded


def test_geometry_leaves_numpy_unrun():
    # numpy is bound lazily: lattice counts and identities never touch it
    src = str(ROOT / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bandgraph as bg\n"
        "bg.region_vertex_count(bg.band_polygon('2/5'), 50, 3); bg.verify_identities('9/20', 3)\n"
        "print(any(m.startswith('numpy.') for m in sys.modules))\n"
        "print(bg.bandwidth_of_numbering(bg.lex_numbering(bg.Params(8, 2, 3))))\n"
        "print(any(m.startswith('numpy.') for m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.split() == ["False", "6", "True"]
