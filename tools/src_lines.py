"""Print the raw and code line counts of each ``src/shadowstorm`` module.

Code lines leave out blank lines, comment-only lines and the lines of
module, class and function docstrings; a line holding code and a trailing
comment is a code line. Standard library only:

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "shadowstorm")


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token other than a comment, outside
    any module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total_raw = total_code = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            source = fh.read()
        raw, code = source.count("\n"), code_lines(source)
        total_raw += raw
        total_code += code
        print(f"{name:16} {raw:6,} {code:6,}")
    print(f"{'total':16} {total_raw:6,} {total_code:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
