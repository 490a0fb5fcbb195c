"""Line counts of the library, counted one way every time.

    python tests/src_lines.py [DIR]

prints, for each module under DIR (default ``src/decrsp``) and in total, its
physical lines, as ``wc -l`` counts them, and its code lines: the non-blank
lines outside comments and docstrings.  A line holding code and a trailing
comment is a code line; every line of a string that is not a docstring is
one too.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER)


def docstring_lines(text):
    """The line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of lines that hold a token other than a comment, outside
    every docstring."""
    docstrings = docstring_lines(text)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    folder = Path(argv[0]) if argv else ROOT / "src" / "decrsp"
    total_wc = total_code = 0
    print("%-20s %7s %7s" % ("module", "wc -l", "code"))
    for path in sorted(folder.glob("*.py")):
        text = path.read_text()
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print("%-20s %7d %7d" % (path.name, wc, code))
    print("%-20s %7d %7d" % ("total", total_wc, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
