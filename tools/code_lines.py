"""Count lines and code lines per module of a Python source tree.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string literal that opens a module, class or
function body). Blank lines, comment-only lines and docstring lines are
therefore not code lines; `wc -l` counts every line.

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
    """(lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return text.count("\n"), len(code)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src")
    total_lines = total_code = 0
    print(f"{'lines':>6} {'code':>6}  module")
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{lines:>6} {code:>6}  {path.relative_to(root)}")
    print(f"{total_lines:>6} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
