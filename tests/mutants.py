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
import re
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

# pytest's summary line, such as "1 failed in 2.31s" or "3 passed in 1.20s"
SUMMARY = re.compile(r"\b\d+ (failed|passed)\b")

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
COMPOSITE = "tests/test_harness.py::TestCompositeExperiments"
ENGINE_FLAGS = f"{SERVICE}::TestCli::test_engine_flags_out_of_range_are_errors"
BUDGET = ("tests/test_dependencies.py::"
          "test_importing_the_cli_loads_no_unserved_module")

# the CLI's test of CSV rows at t = lo and t = hi
ENDS = f"{SERVICE}::TestCli::test_rows_at_both_ends_of_the_domain_are_data"

# the loader's size-first slot guard
GUARD = "        if slots != min(opened, q_id):\n"

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
           (f"{CHECKPOINT}::test_corrupt_payload_raises",
            f"{ENGINE}::TestDesignRecord::"
            "test_a_sketch_record_holds_one_theta_per_slot")),
    Mutant("loader: no finiteness check on G and theta", "engine.py",
           "        finite = np.isfinite(G).all() and np.isfinite(theta).all()",
           "        finite = True",
           (f"{CHECKPOINT}::test_corrupt_payload_raises",)),
    Mutant("loader: == for the typed comparison", "engine.py",
           "                if key in record and _same(value, record[key])}",
           "                if key in record and value == record[key]}",
           (f"{CHECKPOINT}::test_single_field_mutation_is_rejected",)),
    Mutant("ingest: no identifiable count", "engine.py",
           "            self.start, n_new, basis_mod.identifiable_count(spec))",
           "            self.start, n_new, basis_mod.NEVER)",
           (f"{COUNT}::test_an_extended_stream_stops_at_its_count",)),
    # the conditioning certificate
    Mutant("certificate: rho W left out of the kappa bound", "engine.py",
           "    hi = hi + rho * float(w.sum())", "    hi = hi",
           (CONDITIONING,)),
    Mutant("certificate: sqrt(2) dropped from bounds", "density.py",
           "        spread = math.sqrt(2.0) * rest", "        spread = rest",
           (CONDITIONING,)),
    Mutant("certificate: factor q dropped from the threshold", "engine.py",
           "    if A.shape[0] * kappa < 1.0 / RCOND_FLOOR:",
           "    if kappa < 1.0 / RCOND_FLOOR:",
           (f"{CONDITIONING}::test_gate_threshold_is_q_kappa",)),
    Mutant("solve: no finiteness check on the system", "engine.py",
           "    if not (np.isfinite(anorm) and np.isfinite(rhs).all()):",
           "    if not np.isfinite(rhs).all():",
           (f"{ENGINE}::TestSolve::test_non_finite_system_is_refused",)),
    Mutant("certificate: interval kept at a margin", "engine.py",
           "design.bounds() if spec.extension_margin == 0.0 else None)",
           "design.bounds())",
           (f"{CONDITIONING}::test_certificate_needs_margin_zero",)),
    Mutant("certificate: no rounding allowance in the kappa bound",
           "engine.py",
           "    delta = 8 * (w.size + 1) ** 2 * _EPS * hi",
           "    delta = 0.0",
           (f"{CONDITIONING}::test_a_lower_end_within_rounding_proves_nothing",)),
    # a diagonal W as its diagonal, A factored where it is formed
    Mutant("penalty: dense W at margin 0", "basis.py",
           "            W = length * c * (1.0 / length) * c\n",
           "            W = np.diag(length * c * (1.0 / length) * c)\n",
           (f"{ENGINE}::TestMemory::"
            "test_a_margin_zero_cold_solve_holds_two_systems",)),
    Mutant("penalty: identity penalty dense at a margin", "basis.py",
           "        W = np.ones(q)\n",
           "        W = np.ones(q) if spec.extension_margin == 0.0 "
           "else np.eye(q)\n",
           (f"{ENGINE}::TestMemory::"
            "test_an_identity_cold_solve_at_a_margin_holds_two_systems",)),
    Mutant("solve: dpotrf on a copy", "engine.py",
           "    c, info = lapack.dpotrf(A.T, lower=1, clean=0, overwrite_a=1)",
           "    c, info = lapack.dpotrf(A.T, lower=1, clean=0)",
           (f"{ENGINE}::TestMemory::"
            "test_a_margin_zero_cold_solve_holds_two_systems",)),
    Mutant("solve: the zeros off the diagonal lose their sign", "engine.py",
           "        np.add(H, rho * 0.0, out=A)",
           "        np.add(H, 0.0, out=A)",
           (f"{ENGINE}::TestSolve::test_system_has_the_bits_of_h_plus_rho_w",)),
    Mutant("solve: max-abs norm for the 1-norm", "engine.py",
           '    anorm = lapack.dlange("1", A.T)',
           '    anorm = lapack.dlange("M", A.T)',
           (f"{ENGINE}::TestSolve::"
            "test_dpocon_reads_the_1_norm_of_the_system",)),
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
    Mutant("fold: a slot starting on the batch's first point read as a tail",
           "scheduler.py",
           "    first = start.size if start[-1] <= n_old + 1 else",
           "    first = start.size if start[-1] < n_old + 1 else",
           ("tests/test_scheduler.py::TestFold::"
            "test_matches_the_basis_matrix_fold",)),
    Mutant("fold: zk.sum() for the unit tail sums", "basis.py",
           "mu[i] = np.dot(zk, row[lo - base:])",
           "mu[i] = (zk.sum() if w is None\n"
           "                     else np.dot(zk, row[lo - base:]))",
           ("tests/test_scheduler.py::TestFold",)),
    Mutant("fold: the tails' weight row keeps the unit weights", "basis.py",
           "row[:] = 1.0 if w is None else w[base:]", "row[:] = 1.0",
           ("tests/test_scheduler.py::TestFold",)),
    Mutant("sketch: no clamp on a new slot's old count", "density.py",
           "np.maximum(counts - m, 0) * theta", "(counts - m) * theta",
           ("tests/test_density.py::TestUpdate::"
            "test_a_slot_opening_mid_batch_keeps_the_sign_of_its_sum",)),
    # the tables
    Mutant("tables: z formed at K = 0, where no power reads it", "basis.py",
           "    if K:\n        np.multiply(2j * np.pi",
           "    if True:\n        np.multiply(2j * np.pi",
           (f"{MOMENTS}::test_k_zero_forms_no_power_of_z",)),
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
           "    return SPARE_BYTES // (16 * _table_shape(K)[1])",
           "    return SPARE_BYTES // 16",
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
    # the caps that share a stream
    Mutant("shared stream: one slot kept past cap_q", "harness.py",
           "    q = sched.cap_q\n", "    q = sched.cap_q + 1\n",
           (f"{COMPOSITE}::test_a_derived_engine_is_the_capped_stream",)),
    Mutant("shared stream: the stream's own mem_cap left in the record",
           "harness.py",
           "        {**record, **cut,\n"
           "         \"config\": {**record[\"config\"], "
           "\"mem_cap\": sched.mem_cap}})",
           "        {**record, **cut})",
           (f"{COMPOSITE}::test_a_derived_engine_is_the_capped_stream",)),
    Mutant("shared stream: streamed at the group's smallest cap",
           "harness.py",
           "    lead = max(picks, key=lambda k: picks[k][1].cap_q)",
           "    lead = min(picks, key=lambda k: picks[k][1].cap_q)",
           (f"{COMPOSITE}::test_a_shared_stream_gives_each_cap_its_lone_rows",
            )),
    # the lower-bound protocol
    Mutant("kernel: no clamp of 1 - 4 t t", "lowerbound.py",
           "np.fmax(1.0 - 4.0 * t * t, 0.0)", "(1.0 - 4.0 * t * t)",
           (f"{LOWERBOUND}::TestBumpKernel::"
            "test_has_the_bits_of_the_masked_kernel",)),
    Mutant("kernel: maximum for fmax, so NaN leaks", "lowerbound.py",
           "np.fmax(1.0 - 4.0 * t * t, 0.0)",
           "np.maximum(1.0 - 4.0 * t * t, 0.0)",
           (f"{LOWERBOUND}::TestBumpKernel::"
            "test_has_the_bits_of_the_masked_kernel",)),
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
    Mutant("batch reader: no finiteness check on y", "engine.py",
           "    if not np.isfinite(ys).all():\n"
           "        raise ValueError(\"batch contains non-finite y values\")\n",
           "",
           (f"{ENGINE}::TestIngest::test_non_finite_y_rejected_atomically",
            f"{ENGINE}::TestBatchFit::"
            "test_a_non_finite_y_is_refused_before_the_solve")),
    Mutant("batch reader: no one-dimensional check", "engine.py",
           "    if ts.ndim != 1:\n"
           "        raise ValueError(\"t and y batches must be "
           "one-dimensional\")\n",
           "",
           (f"{ENGINE}::TestIngest::"
            "test_a_batch_that_is_not_one_dimensional_is_refused",
            f"{ENGINE}::TestBatchFit::"
            "test_normal_equations_refuse_a_sample_that_is_not_one_dimensional"
            )),
    Mutant("uniform design: no domain check", "density.py",
           "        basis_mod._check_points(self.domain, t)\n", "",
           (f"{SERVICE}::TestRegistry::test_density_query_known_uniform",)),
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
    Mutant("tuning: no schedule check of the grid's h", "tuning.py",
           "            SchedulerConfig(h=h)  # the schedule's own rule for h",
           "            pass",
           ("tests/test_tuning.py::TestGridValidation::"
            "test_each_h_passes_the_schedules_rule_at_construction",)),
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
    Mutant("service: an over-long line's rest read as requests", "service.py",
           "                self._skip_line()\n", "",
           (f"{SERVICE}::TestSocketService::"
            "test_long_line_keeps_connection_alive",)),
    Mutant("cli: no fsync of the new checkpoint before its rename", "cli.py",
           "            os.fsync(fh.fileno())\n", "",
           (f"{SERVICE}::TestCli::"
            "test_a_checkpoint_is_synced_before_and_after_its_rename",)),
    # the import budget
    Mutant("basis: LAPACK's path from an imported scipy", "basis.py",
           "lapack = _load_flapack([os.path.join(p, \"linalg\") for p in "
           "_scipy_dirs()])",
           "import scipy\n"
           "lapack = _load_flapack([os.path.join(p, \"linalg\") for p in "
           "scipy.__path__])",
           (BUDGET,)),
    Mutant("quadrature: the reference rule built at import", "quadrature.py",
           "    return np.polynomial.legendre.leggauss(NODES_PER_PANEL)\n",
           "    return np.polynomial.legendre.leggauss(NODES_PER_PANEL)\n"
           "\n\n_reference()\n",
           (BUDGET,)),
    Mutant("cli: secrets imported for a temp-file name", "cli.py",
           "import signal\n", "import secrets\nimport signal\n",
           (BUDGET,)),
    Mutant("cli: no catch of a file it cannot open", "cli.py",
           "    except (StreamRegError, OSError) as exc:",
           "    except StreamRegError as exc:",
           (f"{SERVICE}::TestCli::test_a_missing_file_is_an_error",)),
    Mutant("cli: no domain check on a CSV row", "cli.py",
           "        if not spec.lo <= t <= spec.hi:", "        if False:",
           (f"{SERVICE}::TestCli::test_bad_row_reports_its_line",)),
    # the extreme value each boundary accepts
    Mutant("loader: n = 2**63 accepted", "engine.py",
           "    if type(n) is not int or not 0 <= n < 2 ** 63:",
           "    if type(n) is not int or not 0 <= n <= 2 ** 63:",
           (f"{CHECKPOINT}::test_n_past_the_int64_range_is_refused_at_once",)),
    Mutant("scheduler: mem_cap = 1 refused", "scheduler.py",
           "        if self.mem_cap is not None and self.mem_cap < 1:",
           "        if self.mem_cap is not None and self.mem_cap <= 1:",
           (f"{ENGINE}::TestMemory::"
            "test_the_least_memory_cap_keeps_one_slot",)),
    Mutant("cli: a CSV row at t = lo refused", "cli.py",
           "        if not spec.lo <= t <= spec.hi:",
           "        if not spec.lo < t <= spec.hi:",
           (ENDS,)),
    Mutant("cli: a CSV row at t = hi refused", "cli.py",
           "        if not spec.lo <= t <= spec.hi:",
           "        if not spec.lo <= t < spec.hi:",
           (ENDS,)),
    Mutant("cli: a query grid of one point refused", "cli.py",
           "    if args.grid < 1:", "    if args.grid <= 1:",
           (f"{SERVICE}::TestCli::test_a_grid_of_one_point_writes_one_row",)),
    Mutant("cli: a query at rho = 0 refused", "cli.py",
           "    if args.rho is not None and not 0 <= args.rho < math.inf:",
           "    if args.rho is not None and not 0 < args.rho < math.inf:",
           (f"{SERVICE}::TestCli::"
            "test_query_at_rho_zero_solves_the_unpenalized_system",)),
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
    "SURVIVED" or "ERROR".  The detail of a kill or a survival is pytest's
    summary line, not what a handler thread printed after it (such as
    socketserver's traceback); that of an error is the output's end."""
    code, seconds, output = pytest_in_copy(mutant.tests, mutant)
    last = ([line for line in output.splitlines() if SUMMARY.search(line)]
            or [""])[-1]
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
