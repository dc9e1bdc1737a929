"""Count lines, code lines and statements per module of a Python source tree.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string literal that opens a module, class or
function body). Blank lines, comment-only lines and docstring lines are
therefore not code lines; `wc -l` counts every line. Statements are the
`ast.stmt` nodes of the parsed module, docstrings included.

Usage: python3 tools/code_lines.py [ROOT]   (ROOT defaults to src)
"""

import ast
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


def count(path: Path):
    """(lines, code lines, statements) of one source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(tree)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return text.count("\n"), len(code), statements


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src")
    totals = [0, 0, 0]
    print(f"{'lines':>6} {'code':>6} {'stmts':>6}  module")
    for path in sorted(root.rglob("*.py")):
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{counts[0]:>6} {counts[1]:>6} {counts[2]:>6}  {path.relative_to(root)}")
    print(f"{totals[0]:>6} {totals[1]:>6} {totals[2]:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
