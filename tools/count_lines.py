"""Count each module's lines: all of them, and those that are not blank, comment or docstring.

    python3 tools/count_lines.py [DIR]

DIR defaults to the package, src/boxatom. One row per `.py` file under DIR,
in path order, then a total row; each row is the total line count (as
`wc -l` counts it), the code line count and the path. A code line holds a
token other than a comment; a docstring (the string that opens a module,
class or function) is not code, and neither are the lines it spans. Other
strings are code on every line they span.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    top = argv[0] if argv else os.path.join(ROOT, "src", "boxatom")
    paths = sorted(os.path.join(folder, name) for folder, _, names in os.walk(top)
                   for name in names if name.endswith(".py"))
    totals = [0, 0]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code = count(fh.read())
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d}  {os.path.relpath(path, top)}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
