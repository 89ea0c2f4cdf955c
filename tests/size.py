"""Size of the package: the lines and code lines of each module.

    python tests/size.py
    python tests/size.py --against REV

Prints one row per module of ``src/streamreg`` and their totals.  A code
line is a line that is not blank, not inside a docstring, and not only a
comment.  With ``--against REV`` the script also counts the package of the
git revision REV, taken with ``git archive`` into a temporary directory, by
the same rules, and prints REV's counts, the working tree's and their
difference (tree minus REV); a module that one side lacks counts 0 there.
The script uses the standard library alone, and has no ``test_`` prefix,
so pytest does not collect it.
"""

import argparse
import ast
import io
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "streamreg"


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


def count(package):
    """{module name: (lines, code lines)} for the modules of ``package``."""
    sizes = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        sizes[path.name] = (len(text.splitlines()), len(code_lines(text)))
    return sizes


def count_revision(rev):
    """``count`` of the package at the git revision ``rev``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, PACKAGE.as_posix()],
        capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        return count(Path(tmp) / PACKAGE)


def table(header, rows, signed=()):
    """Print ``rows`` of a name and numbers under ``header``, with a total
    row that sums each number column; the columns whose indices are in
    ``signed`` print their sign."""
    rows = rows + [("total", *map(sum, zip(*(r[1:] for r in rows))))]
    cells = [header] + [
        (name, *(f"{v:+}" if i in signed else str(v)
                 for i, v in enumerate(numbers, 1)))
        for name, *numbers in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    widths[1:] = [max(w, 6) for w in widths[1:]]
    for row in cells:
        print(f"{row[0]:{widths[0]}}"
              + "".join(f"  {c:>{w}}" for c, w in zip(row[1:], widths[1:])))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="lines and code lines per module of src/streamreg")
    parser.add_argument("--against", metavar="REV",
                        help="also count git revision REV and print the "
                             "difference")
    args = parser.parse_args(argv)
    tree = count(ROOT / PACKAGE)
    if args.against is None:
        table(("module", "lines", "code"),
              [(name, *sizes) for name, sizes in tree.items()])
        return 0
    try:
        old = count_revision(args.against)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return 2
    rows = []
    for name in sorted(old.keys() | tree.keys()):
        (a_lines, a_code), (b_lines, b_code) = (
            side.get(name, (0, 0)) for side in (old, tree))
        rows.append((name, a_lines, b_lines, b_lines - a_lines,
                     a_code, b_code, b_code - a_code))
    print(f"REV = {args.against}, tree = the working tree")
    table(("module", "REV lines", "lines", "diff", "REV code", "code",
           "diff"), rows, signed=(3, 6))
    return 0


if __name__ == "__main__":
    sys.exit(main())
