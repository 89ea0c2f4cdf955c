"""Every third-party package the source imports is a declared dependency.

The test reads ``import`` statements from the source (it imports nothing), so
a module that needs a package the machine happens to have, but
``pyproject.toml`` does not list, fails here and not on a user's install.
"""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def imported_packages(source):
    """Top-level package of every absolute import in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def declared_packages():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_reader_sees_each_kind_of_import():
    source = ("import os, numpy.linalg as la\n"
              "from scipy import linalg\n"
              "from .basis import BasisSpec\n"
              "def f():\n"
              "    import orjson\n")
    assert imported_packages(source) == {"os", "numpy", "scipy", "orjson"}


def test_every_third_party_import_is_declared():
    package = ROOT / "src" / "streamreg"
    imported = set().union(*(imported_packages(path.read_text())
                             for path in sorted(package.glob("*.py"))))
    third_party = imported - set(sys.stdlib_module_names) - {"streamreg"}
    assert third_party, "the reader found no third-party import"
    assert third_party <= declared_packages(), sorted(
        third_party - declared_packages())
