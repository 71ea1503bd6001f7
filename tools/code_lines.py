"""Count the code lines of each module under a source tree.

A code line holds at least one token that is not a comment, a line break or
indentation, and is not part of a docstring (the leading string literal of a
module, class or function body).  A multi-line token counts every line it
spans.

    python3 tools/code_lines.py [SRC_DIR]      # default: src

Prints one ``lines path`` row per module, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source, filename=str(path)))
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
