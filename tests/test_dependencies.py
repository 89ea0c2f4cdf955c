"""Every third-party package the source imports is a declared dependency,
and importing the package loads no more of scipy than it uses.

The first tests read ``import`` statements from the source (they import
nothing), so a module that needs a package the machine happens to have, but
``pyproject.toml`` does not list, fails here and not on a user's install.
"""

import ast
import pathlib
import re
import sys

import pytest
import scipy

from oracles import run_fresh

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


def test_the_package_does_not_import_scipy_linalg():
    # streamreg reaches LAPACK through scipy's wrapper extension alone, so
    # the scipy.linalg package never loads; cli imports every module of
    # the package
    code = ("import sys\n"
            "import streamreg.cli\n"
            "print('scipy.linalg' in sys.modules)\n")
    assert run_fresh(code) == "False\n"


def test_a_missing_lapack_module_names_the_scipy_version(tmp_path):
    from streamreg import basis

    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no"):
        basis._load_flapack([str(tmp_path)])
