"""Count lines, code lines and statements per module of a Python source tree.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string literal that opens a module, class or
function body). Blank lines, comment-only lines and docstring lines are
therefore not code lines; `wc -l` counts every line. Statements are the
`ast.stmt` nodes of the parsed module, docstrings included.

Usage: python3 tools/code_lines.py [ROOT] [--against REV]   (ROOT defaults to src)

With --against, it prints the lines and code lines of each module at the
git revision REV, read with `git show REV:path` from the local repository,
beside those in the working tree, and the change.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: bytes):
    """(lines, code lines, statements) of one source file's bytes."""
    tree = ast.parse(source)
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(tree)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return source.count(b"\n"), len(code), statements


def tree_counts(root: Path) -> dict:
    """Module path under `root` -> counts, for the working tree."""
    return {path.relative_to(root).as_posix(): count(path.read_bytes())
            for path in sorted(root.rglob("*.py"))}


def _git(*args) -> bytes:
    done = subprocess.run(["git", *args], capture_output=True)
    if done.returncode:
        sys.exit(f"git {' '.join(args)}: {done.stderr.decode().strip()}")
    return done.stdout


def revision_counts(root: Path, rev: str) -> dict:
    """Module path under `root` -> counts, for the files at git revision `rev`."""
    tree = f"{rev}:./{os.path.relpath(root)}"
    names = _git("ls-tree", "--full-tree", "-r", "--name-only", tree).decode().splitlines()
    return {name: count(_git("show", f"{tree}/{name}"))
            for name in names if name.endswith(".py")}


def _total(counts: dict):
    return tuple(map(sum, zip(*counts.values()))) or (0, 0, 0)


def _cells(*values) -> str:
    return " ".join(f"{'-' if v is None else v:>7}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default="src", type=Path)
    parser.add_argument("--against", metavar="REV",
                        help="also count the modules at this git revision")
    args = parser.parse_args(argv)
    now = tree_counts(args.root)
    if args.against is None:
        print(f"{_cells('lines', 'code', 'stmts')}  module")
        for name, counts in [*now.items(), ("total", _total(now))]:
            print(f"{_cells(*counts)}  {name}")
        return 0
    then = revision_counts(args.root, args.against)
    print(f"lines and code lines at {args.against}, in the working tree, and the change")
    print(f"{_cells('lines', 'code', 'lines', 'code', 'lines', 'code')}  module")
    names = sorted(then.keys() | now.keys())
    for name, old, new in [*((n, then.get(n), now.get(n)) for n in names),
                           ("total", _total(then), _total(now))]:
        change = (new[0] - old[0], new[1] - old[1]) if old and new else (None, None)
        old, new = old or (None, None), new or (None, None)
        print(f"{_cells(*old[:2], *new[:2], *change)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
