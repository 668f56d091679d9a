#!/usr/bin/env python3
"""Count the code lines of each module of src/netspread and their total.

A code line holds a token other than a comment and lies outside every
docstring, so trimming prose alone leaves the count as is.

Usage:
    python3 scripts/code_lines.py
"""
import ast
import io
import tokenize
from pathlib import Path

_PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in the module text ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _PROSE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    total = 0
    for path in sorted((root / "src/netspread").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        print(f"src/netspread/{path.name} code lines: {count}")
        total += count
    print(f"src/netspread/*.py code lines (no blank, comment or docstring lines): {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
