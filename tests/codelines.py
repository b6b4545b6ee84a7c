"""Count the code lines of a package: the lines that hold a token, not
counting comments, blank lines or module, class and function docstrings.

    python tests/codelines.py [DIR]

DIR defaults to ``src/rrspectra`` beside this directory.  The script prints
one line per module and then the total.  A line that holds both code and a
comment counts; a line inside a docstring does not, nor does a line that
only continues a bracket or a string begun on an earlier line without a
token of its own.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "rrspectra")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in SKIPPED}
    return len(lines - skip)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else PACKAGE
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            print("%6d  %s" % (count, name))
            total += count
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
