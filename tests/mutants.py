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
COUNT = f"{ENGINE}::TestIdentifiableCount"
SERVICE = "tests/test_service_cli.py"
LOWERBOUND = "tests/test_lowerbound.py"
MOMENTS = "tests/test_basis.py::TestMoments"
ENGINE_FLAGS = f"{SERVICE}::TestCli::test_engine_flags_out_of_range_are_errors"

# the loader's size-first slot guard
GUARD = ("        if slots != (opened if q_id is None "
         "else min(opened, q_id)):\n")

MUTANTS = [
    # the checkpoint loader
    Mutant("loader: no round-trip comparison", "engine.py",
           "        if differ:\n", "        if False:\n",
           (f"{CHECKPOINT}::test_corrupt_payload_raises",)),
    Mutant("loader: no size-first slot guard", "engine.py",
           GUARD, "        if False:\n",
           (f"{CHECKPOINT}::test_start_of_the_wrong_length_opens_no_slot",)),
    Mutant("loader: no identifiable count in the slot guard", "engine.py",
           GUARD, "        if slots != opened:\n",
           (f"{COUNT}::test_a_huge_n_opens_at_most_the_count",)),
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
    Mutant("ingest: no identifiable count", "engine.py",
           "            self.start, n_new, "
           "basis_mod.identifiable_count(self.reg_basis))",
           "            self.start, n_new, None)",
           (f"{COUNT}::test_an_extended_stream_stops_at_its_count",)),
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
           "                           else w[lo:])",
           "mu[i] = zk.sum() if w is None else np.dot(zk, w[lo:])",
           ("tests/test_scheduler.py::TestFold",)),
    Mutant("sketch: no clamp on a new slot's old count", "scheduler.py",
           "    return np.maximum(n - start + 1, 0)",
           "    return n - start + 1",
           ("tests/test_density.py::TestUpdate",)),
    # the table buffer
    Mutant("buffer: no spare reuse", "basis.py",
           "        if buf is not None and buf.size >= count:",
           "        if False:",
           (BUFFER,)),
    Mutant("buffer: spare not cleared on hand-out", "basis.py",
           "            _spare = None\n            return buf",
           "            return buf",
           (BUFFER,)),
    # the chunks, which keep every call's tables and the spare within
    # SPARE_BYTES
    Mutant("chunks: the divisor without its row count", "basis.py",
           "    return SPARE_BYTES // (16 * rows) if rows else None",
           "    return SPARE_BYTES // 16 if rows else None",
           (f"{BUFFER}::test_batch_fit_keeps_no_table_past_the_spare",
            f"{ENGINE}::TestBatchFit::test_batch_fit_holds_one_set_of_tables")),
    Mutant("chunks: a tail read from each later chunk's start", "basis.py",
           "[(k, max(lo - s, 0)) for k, lo in tails]",
           "[(k, 0 if s else lo) for k, lo in tails]",
           (f"{MOMENTS}::test_chunks_are_summed_in_chunk_order",
            f"{MOMENTS}::test_chunks_stay_within_the_fold_rounding")),
    # the Monte Carlo replicates
    Mutant("replicate: the last noise chunk drawn at full size", "harness.py",
           "        ys[part] += rng.normal(0.0, sigma, ys[part].size)",
           "        ys[part] += rng.normal(0.0, sigma, REPLICATE_CHUNK)",
           ("tests/test_harness.py::TestScenario::"
            "test_replicate_has_the_bits_of_one_call_at_n",)),
    # the lower-bound protocol
    Mutant("kernel: no abs in the support test", "lowerbound.py",
           "    inside = np.abs(t) < 0.5", "    inside = t < 0.5",
           (f"{LOWERBOUND}::TestBumpKernel::test_peak_and_support",)),
    Mutant("m_omega: omega[j] factor dropped", "lowerbound.py",
           "        return amp * bump_kernel(k * (t - centers[j])) * omega[j]",
           "        return amp * bump_kernel(k * (t - centers[j]))",
           (f"{LOWERBOUND}::TestEncodedFunction::"
            "test_peaks_at_active_centers_only",)),
    Mutant("m_omega: no upper clamp on the cell", "lowerbound.py",
           "np.fmin(np.fmax(np.floor(k * t), 0.0), k - 1.0)",
           "np.fmax(np.floor(k * t), 0.0)",
           (f"{LOWERBOUND}::TestSingleBump::"
            "test_edges_and_outside_points_match_the_bump_loop",)),
    Mutant("protocol: no payload recount", "lowerbound.py",
           "        if payload_units != units:", "        if False:",
           (f"{LOWERBOUND}::TestRunProtocol::"
            "test_a_payload_that_is_not_the_footprint_is_refused",)),
    # the boundaries
    Mutant("ingest: no finiteness check on y", "engine.py",
           "        if not np.isfinite(ys).all():\n"
           "            raise ValueError(\"batch contains non-finite y values\")\n",
           "",
           (f"{ENGINE}::TestIngest::test_non_finite_y_rejected_atomically",)),
    Mutant("ingest: no one-dimensional check", "engine.py",
           "        if ts.ndim != 1:\n"
           "            raise ValueError(\"t and y batches must be "
           "one-dimensional\")\n",
           "",
           (f"{ENGINE}::TestIngest::"
            "test_a_batch_that_is_not_one_dimensional_is_refused",)),
    Mutant("service: no depth scan", "service.py",
           "    if len(raw) > 2 * MAX_DEPTH and _nesting_depth(raw) > MAX_DEPTH:",
           "    if False:",
           (f"{SERVICE}::TestDecodeRequest",)),
    Mutant("service: no number-type check on points", "service.py",
           "    if not {*map(type, ts), *map(type, ys)} <= _NUMBERS:",
           "    if False:",
           (f"{SERVICE}::TestRegistry::test_non_numbers_in_points_rejected",)),
    Mutant("service: a bool accepted as a stream id", "service.py",
           "    if isinstance(stream_id, bool) or not isinstance(stream_id, "
           "(str, int)):",
           "    if not isinstance(stream_id, (str, int)):",
           (f"{SERVICE}::TestSocketService::"
            "test_stream_id_is_a_string_or_an_integer",)),
    Mutant("basis: lo == hi accepted", "basis.py",
           "        if not self.lo < self.hi:",
           "        if not self.lo <= self.hi:",
           (ENGINE_FLAGS,)),
    Mutant("basis: a negative margin accepted", "basis.py",
           "        if self.extension_margin < 0:", "        if False:",
           (ENGINE_FLAGS,)),
    Mutant("engine: a basis with no identifiable function accepted",
           "engine.py",
           "        if basis_mod.identifiable_count(reg_basis) == 0:",
           "        if False:",
           (f"{COUNT}::test_a_basis_with_no_identifiable_function_is_refused",
            ENGINE_FLAGS)),
    Mutant("service: C_rho = 0 accepted", "service.py",
           "        if self.C_rho <= 0:", "        if self.C_rho < 0:",
           (f"{SERVICE}::TestRegistry::test_c_rho_must_be_positive",)),
    Mutant("service: an unknown query kind answered", "service.py",
           "            raise ValueError(f\"unknown query kind "
           "{reprlib.repr(kind)}\")",
           "            return {}",
           (f"{SERVICE}::TestRegistry::"
            "test_unknown_query_kind_is_a_request_error",)),
    Mutant("service: a blank line read as a request", "service.py",
           "            elif not raw.strip():\n                continue\n",
           "",
           (f"{SERVICE}::TestSocketService::test_blank_lines_get_no_reply",)),
    Mutant("cli: no catch of a file it cannot open", "cli.py",
           "    except (StreamRegError, OSError) as exc:",
           "    except StreamRegError as exc:",
           (f"{SERVICE}::TestCli::test_a_missing_file_is_an_error",)),
    Mutant("cli: no domain check on a CSV row", "cli.py",
           "        if not spec.lo <= t <= spec.hi:", "        if False:",
           (f"{SERVICE}::TestCli::test_bad_row_reports_its_line",)),
    Mutant("cli: no finiteness check on a CSV y", "cli.py",
           "        if not math.isfinite(y):", "        if False:",
           (f"{SERVICE}::TestCli::test_bad_row_reports_its_line",)),
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
        # write a patch of the failing example, which a mutant has no use for
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
