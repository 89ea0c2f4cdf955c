"""The package's option count may only fall.

An option is a parameter with a default or a dataclass field: each one is a
value a caller can set, and each independent value multiplies the
configurations the tests and the benchmark have to cover.  The count must
equal OPTION_LIMIT: a change that adds one fails here, so the addition is
seen in review, and a change that removes some fails until it lowers
OPTION_LIMIT to the new count.
"""

import ast
import pathlib

import streamreg

OPTION_LIMIT = 44


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def options(source):
    """(scope, name) of every defaulted parameter and dataclass field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            scope = getattr(node, "name", "<lambda>")
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found += [(scope, a.arg) for a in defaulted]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(node.name, st.target.id) for st in node.body
                      if isinstance(st, ast.AnnAssign)]
    return found


def test_counter_sees_each_kind_of_option():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class C:\n"
              "    a: int\n"
              "    b: int = 1\n"
              "    def f(self, x, y=1, *, z=2, w): pass\n"
              "def g(p, q=0): return lambda r=1: r\n")
    assert sorted(options(source)) == sorted([
        ("C", "a"), ("C", "b"), ("f", "y"), ("f", "z"), ("g", "q"),
        ("<lambda>", "r")])


def test_package_adds_no_option():
    package = pathlib.Path(streamreg.__file__).parent
    found = [(path.name, *option) for path in sorted(package.glob("*.py"))
             for option in options(path.read_text())]
    assert len(found) == OPTION_LIMIT, "\n".join(map(str, found))
