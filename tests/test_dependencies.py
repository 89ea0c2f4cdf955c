"""Every third-party package the source imports is a declared dependency,
and importing the package loads no module that it does not serve with.

The first tests read ``import`` statements from the source (they import
nothing), so a module that needs a package the machine happens to have, but
``pyproject.toml`` does not list, fails here and not on a user's install.
"""

import ast
import importlib.util
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


# Modules that ``import streamreg.cli`` must not load.  LAPACK comes from
# scipy's wrapper extension alone, found without running scipy's or
# scipy.linalg's ``__init__``; the Gauss-Legendre reference rule, and with it
# numpy.polynomial, is built on first use; and a temp-file name needs no
# ``secrets``, which would bring hashlib and OpenSSL.
UNSERVED = ("scipy", "scipy.linalg", "numpy.polynomial", "hashlib", "secrets")


def test_importing_the_cli_loads_no_unserved_module():
    # cli imports every module of the package
    code = ("import sys\n"
            "import streamreg.cli\n"
            f"print([m for m in {UNSERVED!r} if m in sys.modules])\n")
    assert run_fresh(code) == "[]\n"


def test_a_missing_lapack_module_names_the_scipy_version(tmp_path):
    from streamreg import basis

    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no"):
        basis._load_flapack([str(tmp_path)])


def test_a_missing_scipy_is_an_import_error_that_names_it(monkeypatch):
    from streamreg import basis

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
        None if name == "scipy" else find_spec(name, *args)))
    with pytest.raises(ImportError, match="scipy is not installed"):
        basis._scipy_dirs()
