"""Count lines, code lines, statements and settable values per module.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string literal that opens a module, class or
function body). Blank lines, comment-only lines and docstring lines are
therefore not code lines; `wc -l` counts every line. Statements are the
`ast.stmt` nodes of the parsed module, docstrings included.

A settable value is a dataclass field (an annotated name in the body of
a class decorated with `dataclass`, with or without a default) or a
defaulted parameter of a public function: a function or method whose
name has no leading underscore, or an `__init__`, that is not nested in
a function and not defined in a class whose name has a leading
underscore.

Usage: python3 tools/code_lines.py [ROOT] [--against REV]   (ROOT defaults to src)

With --against, it prints the lines, code lines and settable values of
each module at the git revision REV, read with `git show REV:path` from
the local repository, beside those in the working tree, and the change.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    """Dataclass fields plus the defaulted parameters of public functions."""

    def walk(body, public: bool) -> int:
        total = 0
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    total += sum(isinstance(item, ast.AnnAssign)
                                 and isinstance(item.target, ast.Name)
                                 for item in node.body)
                total += walk(node.body, public and not node.name.startswith("_"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if public and (node.name == "__init__" or not node.name.startswith("_")):
                    args = node.args
                    total += len(args.defaults)
                    total += sum(d is not None for d in args.kw_defaults)
        return total

    return walk(tree.body, True)


def count(source: bytes):
    """(lines, code lines, statements, settable values) of one source file's bytes."""
    tree = ast.parse(source)
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(tree)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return source.count(b"\n"), len(code), statements, settable_values(tree)


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
    return tuple(map(sum, zip(*counts.values()))) or (0, 0, 0, 0)


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
        print(f"{_cells('lines', 'code', 'stmts', 'knobs')}  module")
        for name, counts in [*now.items(), ("total", _total(now))]:
            print(f"{_cells(*counts)}  {name}")
        return 0
    then = revision_counts(args.root, args.against)
    print(f"lines, code lines and settable values (knobs) at {args.against}, "
          "in the working tree, and the change")
    print(f"{_cells(*('lines', 'code', 'knobs') * 3)}  module")
    names = sorted(then.keys() | now.keys())
    for name, old, new in [*((n, then.get(n), now.get(n)) for n in names),
                           ("total", _total(then), _total(now))]:
        old, new = (counts and (counts[0], counts[1], counts[3]) for counts in (old, new))
        change = tuple(b - a for a, b in zip(old, new)) if old and new else (None,) * 3
        print(f"{_cells(*(old or (None,) * 3), *(new or (None,) * 3), *change)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
