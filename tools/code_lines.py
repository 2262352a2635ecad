"""Count code lines: the physical lines on which a token starts.

    python tools/code_lines.py [PATH ...]

Comments, blank lines and module, class and function docstrings do not
count; a statement or string that spans several lines counts once per
line on which one of its tokens starts.  Each PATH is a Python file or a
directory searched for ``*.py`` files (``src`` by default).  Prints each
file's count and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that never make a line count
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of the module, class and function
    docstrings in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's ``source``."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if any(lo <= tok.start < hi for lo, hi in spans):
            continue
        lines.add(tok.start[0])
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for path in map(Path, argv or ["src"]):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
