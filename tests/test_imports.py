"""Every import in the package's modules and in the test modules is used.

`__init__.py` files re-export names without using them, so they are left
out. The check reads the source with the standard library `ast` module:
a name bound by an import must appear as a name somewhere in its module.
Checking the tests too catches imports of names that moved out of the
package, and any left over after their last use.
"""

import ast
from pathlib import Path

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
