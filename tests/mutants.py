"""Mutation gate: each mutant is one exact edit to a file of the package
that named tests must catch.

    python tests/mutants.py

For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the edit to the copy
and runs the mutant's tests there, with ``PYTHONPATH`` pointing at the
copy's ``src/``.  A mutant is killed when pytest reports a failed test.
First every mutant's tests run together in an unmutated copy, with the
same settings, and must pass: a test that fails there would count every
mutant naming it as killed.  The script exits non-zero if that run does
not pass, if a mutant survives, if its old text is not found exactly
once, if its edit changes nothing, or if pytest ends any other way (no
test collected, a usage error, a timeout).  The file has no ``test_``
prefix, so pytest does not collect it.

A change that moves or rewrites mutated code updates its mutants too.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# pytest runs at once: each loads numpy, scipy and hypothesis (about
# 150 MB), so two fit a small CI runner
WORKERS = 2

TIMEOUT_S = 120

# Loaded by pytest in the copy: a failing example ends a hypothesis test at
# once, with no shrinking or explaining, and nothing is saved for later runs.
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutants", database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")
"""


class Mutant(NamedTuple):
    name: str
    path: str  # under src/streamreg
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


ENGINE = "tests/test_engine.py"
CHECKPOINT = f"{ENGINE}::TestCheckpoint"
CONDITIONING = f"{ENGINE}::TestConditioningCertificate"
BUFFER = f"{ENGINE}::TestTableBuffer"
CERTIFICATE = "tests/test_density.py::TestCertificate"

MUTANTS = [
    # the checkpoint loader
    Mutant("loader: no round-trip comparison", "engine.py",
           "        if differ:\n", "        if False:\n",
           (f"{CHECKPOINT}::test_corrupt_payload_raises",)),
    Mutant("loader: no size-first slot guard", "engine.py",
           "        if slots != (reg.schedule.slot_count(n) if n else 0):\n",
           "        if False:\n",
           (f"{CHECKPOINT}::test_start_of_the_wrong_length_opens_no_slot",)),
    Mutant("loader: no G and theta shape check", "engine.py",
           "        if shapes != {reg.start.shape} or not finite:",
           "        if not finite:",
           (f"{CHECKPOINT}::test_corrupt_payload_raises",)),
    Mutant("loader: no finiteness check on G and theta", "engine.py",
           "        finite = np.isfinite(G).all() and np.isfinite(theta).all()",
           "        finite = True",
           (f"{CHECKPOINT}::test_corrupt_payload_raises",)),
    Mutant("loader: == for the typed comparison", "engine.py",
           "                if key in record and _same(value, record[key])}",
           "                if key in record and value == record[key]}",
           (f"{CHECKPOINT}::test_single_field_mutation_is_rejected",)),
    # the conditioning certificate
    Mutant("certificate: rho W left out of the kappa bound", "engine.py",
           "    hi = hi + rho * float(W.trace())", "    hi = hi",
           (CONDITIONING,)),
    Mutant("certificate: sqrt(2) dropped from bounds", "density.py",
           "        spread = math.sqrt(2.0) * rest", "        spread = rest",
           (CONDITIONING,)),
    Mutant("certificate: factor q dropped from the threshold", "engine.py",
           "    certified = A.shape[0] * kappa < 1.0 / RCOND_FLOOR",
           "    certified = kappa < 1.0 / RCOND_FLOOR",
           (f"{CONDITIONING}::test_gate_threshold_is_q_kappa",)),
    Mutant("certificate: no finiteness check on its path", "engine.py",
           "        finite = np.isfinite(A).all()", "        finite = True",
           (f"{ENGINE}::TestSolve::test_non_finite_system_is_refused",)),
    Mutant("certificate: interval kept at a margin", "engine.py",
           "        margin_zero = spec.extension_margin == 0.0",
           "        margin_zero = True",
           (f"{CONDITIONING}::test_certificate_needs_margin_zero",)),
    Mutant("certificate: no rounding allowance in the kappa bound",
           "engine.py",
           "    delta = 8 * (W.shape[0] + 1) ** 2 * _EPS * hi",
           "    delta = 0.0",
           (f"{CONDITIONING}::test_a_lower_end_within_rounding_proves_nothing",)),
    Mutant("sketch: no slack in the coefficient bound", "density.py",
           "        slack = 8 * p * _EPS * (abs(first) + rest)",
           "        slack = 0.0",
           (f"{CERTIFICATE}::test_coefficient_bound_is_sound",)),
    Mutant("sketch: no slack in the grid test", "density.py",
           "        slack = N * _EPS * l1", "        slack = 0.0",
           (f"{CERTIFICATE}::test_grid_test_keeps_its_rounding_allowance",)),
    Mutant("sketch: an extended basis accepted", "density.py",
           "        if basis.extension_margin != 0:",
           "        if False:",
           (f"{ENGINE}::TestConstructors",)),
    # the fold
    Mutant("fold: zk.sum() for the unit tail sums", "basis.py",
           "mu[i] = np.dot(zk, np.ones(zk.size, complex) if w is None\n"
           "                               else w[lo:])",
           "mu[i] = zk.sum() if w is None else np.dot(zk, w[lo:])",
           ("tests/test_scheduler.py::TestFold",)),
    Mutant("sketch: no clamp on a new slot's old count", "density.py",
           "np.maximum(counts_new - (n_new - n_old), 0) * theta",
           "(counts_new - (n_new - n_old)) * theta",
           ("tests/test_density.py::TestUpdate",)),
    # the table buffer
    Mutant("buffer: no spare reuse", "basis.py",
           "            if buf is not None and buf.size >= count:",
           "            if False:",
           (BUFFER,)),
    Mutant("buffer: spare not cleared on hand-out", "basis.py",
           "                _spare = None\n                return buf",
           "                return buf",
           (BUFFER,)),
    Mutant("buffer: no size cap on the spare", "basis.py",
           "    if buf.nbytes <= SPARE_BYTES:", "    if True:",
           (f"{BUFFER}::test_batch_fit_keeps_no_table_past_the_spare",)),
    # the boundaries
    Mutant("ingest: no finiteness check on y", "engine.py",
           "        if not np.isfinite(ys).all():\n"
           "            raise ValueError(\"batch contains non-finite y values\")\n",
           "",
           (f"{ENGINE}::TestIngest::test_non_finite_y_rejected_atomically",)),
    Mutant("service: no depth scan", "service.py",
           "    if len(raw) > 2 * MAX_DEPTH and _nesting_depth(raw) > MAX_DEPTH:",
           "    if False:",
           ("tests/test_service_cli.py::TestDecodeRequest",)),
]


def apply(tree, mutant):
    """Apply ``mutant`` in the copy at ``tree``; a reason it cannot be."""
    path = tree / "src" / "streamreg" / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        return f"old text found {found} times in {mutant.path}"
    if mutant.old == mutant.new:
        return "the edit changes nothing"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def pytest_in_copy(tests, mutant=None):
    """(returncode, seconds, output) of pytest on the node ids ``tests`` in
    a fresh copy of the tree, with ``mutant`` applied when given.  The
    returncode is None when the mutant cannot be applied or pytest timed
    out, and the output then says why."""
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        (tree / "conftest.py").write_text(CONFTEST)
        reason = None if mutant is None else apply(tree, mutant)
        if reason is not None:
            return None, 0.0, reason
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        # hypothesis's pytest plugin, on a failing test, imports libcst to
        # write a patch, and the DeprecationWarning that import raises is an
        # error under pyproject's filters: pytest would end in INTERNALERROR
        try:
            out = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "--no-header",
                 "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
                 "-o", "addopts=", *tests],
                cwd=tree, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - began, "timed out"
    return out.returncode, time.monotonic() - began, out.stdout + out.stderr


def run(mutant):
    """(verdict, seconds, detail) for one mutant: verdict is "killed",
    "SURVIVED" or "ERROR"."""
    code, seconds, output = pytest_in_copy(mutant.tests, mutant)
    last = (output.strip().splitlines() or [""])[-1]
    if code == 1:
        return "killed", seconds, last
    if code == 0:
        return "SURVIVED", seconds, last
    return "ERROR", seconds, output[-2000:]


def main():
    began = time.monotonic()
    named = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, seconds, output = pytest_in_copy(named)
    if code != 0:
        print(f"the mutants' tests do not pass unmutated:\n{output[-2000:]}")
        return 1
    print(f"baseline {seconds:5.1f} s  the mutants' {len(named)} test "
          f"selections pass unmutated", flush=True)
    failed = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for mutant, (verdict, seconds, detail) in zip(
                MUTANTS, pool.map(run, MUTANTS)):
            failed += verdict != "killed"
            print(f"{verdict:8} {seconds:5.1f} s  {mutant.name}: {detail}",
                  flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed in "
          f"{time.monotonic() - began:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
