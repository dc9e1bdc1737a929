"""Every import in the package's modules and in the test modules is used,
and so is every private module-level name of the package.

`__init__.py` files re-export names without using them, so they are left
out of the import check. The checks read the source with the standard
library `ast` module: a name bound by an import must appear as a name
somewhere in its module. Checking the tests too catches imports of names
that moved out of the package, and any left over after their last use.
A `_`-prefixed function, class or variable at module level must be read
somewhere in the package outside the statement that defines it, so a
helper left behind after its last caller is gone fails. The `__all__` of
each package lists every public name its `__init__.py` imports, once each,
and nothing the package lacks.
"""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "liftedtrack"


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in used)


def test_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import List, Optional\n"
        "def f(x: List[int]):\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Optional")]


def _unused_in(modules, root):
    assert modules
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    unused = _unused_in(modules, PACKAGE.parent)
    assert not unused, "unused imports: " + ", ".join(unused)


def test_test_modules_use_every_import():
    unused = _unused_in(sorted(TESTS.glob("*.py")), TESTS.parent)
    assert not unused, "unused imports: " + ", ".join(unused)


def private_definitions(tree):
    """(top-level statement, name) of each `_`-prefixed, non-dunder name the
    module defines at its top level."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        found += [(stmt, name) for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


def read_names(stmt):
    """Names a statement reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_private_names(sources):
    """`path name` of each private module-level name of `sources` (path ->
    source text) that no top-level statement but its own definition reads."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    statements = [(path, stmt, read_names(stmt))
                  for path, tree in trees.items() for stmt in tree.body]
    return [
        f"{path} {name}"
        for path, tree in trees.items()
        for definition, name in private_definitions(tree)
        if not any(name in names for _, stmt, names in statements
                   if stmt is not definition)
    ]


def test_finds_unreferenced_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_SEEN: dict = {}\n"
                 "def _walk(n):\n"
                 "    return _walk(n - 1) if n else _LIMIT\n"
                 "def _shared():\n"
                 "    pass\n"
                 "class _Helper:\n"
                 "    pass\n"
                 "__all__ = []\n"),
        "b.py": ("from a import _shared\n"
                 "import a\n"
                 "x = a._Helper()\n"),
    }
    assert unreferenced_private_names(sources) == ["a.py _SEEN", "a.py _walk"]


def test_package_reads_every_private_name():
    sources = {str(path.relative_to(PACKAGE.parent)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    unread = unreferenced_private_names(sources)
    assert not unread, "private names never read: " + ", ".join(unread)


@pytest.mark.parametrize("package", ["liftedtrack", "liftedtrack.embedding"])
def test_all_lists_each_reexport_once(package):
    module = importlib.import_module(package)
    exported = module.__all__
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in exported if not hasattr(module, name)] == []
    assert sorted(name for name in set(exported) if exported.count(name) > 1) == []
    assert sorted(name for name in imported
                  if not name.startswith("_") and name not in exported) == []
