"""Size of the package: the lines and code lines of each module.

    python tests/size.py

Prints one row per module of ``src/streamreg`` and their totals.  A code
line is a line that is not blank, not inside a docstring, and not only a
comment.  The script uses the standard library alone, and has no ``test_``
prefix, so pytest does not collect it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "streamreg"


def docstring_lines(tree):
    """Numbers of the lines that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """Numbers of the lines of ``text`` that hold a token of code: not a
    comment, a line break or indentation, and not in a docstring."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(ast.parse(text))


def main():
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, len(text.splitlines()),
                     len(code_lines(text))))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:{width}}  {lines:6}  {code:6}")
    print(f"{'total':{width}}  {sum(r[1] for r in rows):6}  "
          f"{sum(r[2] for r in rows):6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
