"""Synthetic stream experiments: targets, RMISE, rate and memory studies.

Targets on [0, 1]:

    m1(t) = exp(sin(2*pi*t))                      smooth periodic
    m2(t) = |t - 0.4|                             non-periodic, kink at 0.4
    m3(t) = sum_k k^(-1.5) g_k(t)                 rough periodic series with
                                                  g_1 = 1, g_{2k} = cos(2k*pi*t),
                                                  g_{2k+1} = sin(2k*pi*t)

m3 is truncated at M3_TERMS terms; the omitted coefficients are k^(-1.5)
against unit-bounded harmonics, so the truncation level is fixed once and
shared by every consumer.  The truncated series is synthesized exactly on a
dyadic grid of N points by FFT and evaluated elsewhere by linear
interpolation (the highest retained frequency is far below the grid Nyquist,
keeping the interpolation error around 1e-5 in sup norm).  The grid nodes j/N
are exact in binary, so the cell that holds t is floor(t N) and needs no
search.

Because m3 has no frequency at or above M/2 for M = N/L, its grid splits
into L interleaved slices that each take an M-point transform: the nodes
(a + L b)/N, b = 0..M-1, sample m3(t + a/N) on the grid b/M, and shifting m3
by a/N multiplies its k-th coefficient by exp(2 pi i a k / N).  So
table[a + L b] = irfft_M(Y^a)[b] with Y^a_k = X_k exp(2 pi i a k / N) / L,
exactly whenever X_k = 0 for k >= M/2 (Markel's FFT pruning, IEEE Trans.
Audio Electroacoust. 19, 1971), and the build holds one M-point spectrum in
place of an N-point one.
"""

import csv
import functools
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import basis as basis_mod
from . import quadrature
from .basis import BasisSpec, PenaltySpec, is_count, is_real, require
from .engine import OnePassRegressor, batch_fit
from .errors import StreamRegError
from .scheduler import SchedulerConfig
from .tuning import TuningGrid, cv_select, cv_table, rho_at

M3_TERMS = 100_000
_M3_GRID_LOG2 = 21

EXTENSION_MARGINS = {"m1": 0.1, "m2": 0.1, "m3": 0.0}

# Every experiment fits with the roughness penalty and a density sketch.
PENALTY = PenaltySpec("roughness")

# The rate experiment fixes the slot growth q ~ n^RATE_H rather than tuning it.
RATE_H = 1 / 3

# Points per engine call on the streaming path, between checkpoints.  The
# engine's ledger depends on n alone, so the call size moves only the
# rounding of G and theta.  Calls of 2000 points were the fastest of 100 to
# 8000 on an m3 replicate at h = 0.4: smaller calls pay more fixed cost per
# point, larger ones were no faster.
STREAM_CALL = 2000

# Points per chunk of a replicate's target and noise (``_replicate_data``):
# each temporary of a chunk, 64 KiB, lies below glibc's mmap threshold, so
# the chunks reuse heap memory rather than map fresh pages, whatever n is.
REPLICATE_CHUNK = 1 << 13

REPORT_COLUMNS = ("method", "target", "n", "rmise", "q_mean",
                  "mem_units_mean", "wall_ms", "failures")


def m1(t):
    return np.exp(np.sin(2.0 * np.pi * np.asarray(t, dtype=float)))


def m2(t):
    return np.abs(np.asarray(t, dtype=float) - 0.4)


@functools.cache
def _m3_interp_table():
    """m3 at the grid nodes j/N, j = 0..N, N = 2**_M3_GRID_LOG2: for
    m3 = 1 + sum_k a_k cos(2 pi k t) + b_k sin(2 pi k t), the inverse real
    FFT of the half spectrum X_0 = N, X_k = (N/2)(a_k - i b_k).

    The highest frequency K = M3_TERMS // 2 lies below M/2 for M the least
    power of two above 2K, so the grid is built as L = N/M slices: slice a
    is table[a::L] = irfft_M(Y^a), Y^a_k = X_k exp(2 pi i a k / N) / L
    (exact for X_k = 0 at k >= M/2; see the module docstring).  X / L is
    the M-point spectrum of m3, exact because L is a power of two, and one
    buffer of it is turned in place from slice to slice by exp(2 pi i k / N).

    One slice is transformed and written into the table at a time, so the
    build holds one M-point slice, the spectrum and the twiddles beside the
    table: 3.4 MiB by tracemalloc, against 6.4 MiB with four slices at a
    time.  Each slice's strided write costs time: in 20 fresh processes on
    one pinned core of a 2-vCPU VM, builds of one, two and four slices at a
    time took medians of 77, 76 and 64 ms.
    """
    N = 1 << _M3_GRID_LOG2
    K = M3_TERMS // 2
    M = 1 << (2 * K).bit_length()
    L = N // M
    ks = np.arange(1, K + 1)
    spectrum = np.zeros(M // 2 + 1, dtype=complex)
    spectrum[0] = M
    spectrum.real[ks] = (M / 2) * (2.0 * ks) ** -1.5
    spectrum.imag[ks] = -(M / 2) * np.where(
        2 * ks + 1 <= M3_TERMS, (2.0 * ks + 1.0) ** -1.5, 0.0)
    twiddle = np.exp((2j * np.pi / N) * np.arange(M // 2 + 1))
    table = np.empty(N + 1)
    by_slice = table[:N].reshape(M, L)  # column a is slice a
    piece = np.empty(M)
    for a in range(L):
        np.fft.irfft(spectrum, M, out=piece)
        by_slice[:, a] = piece
        spectrum *= twiddle
    table[N] = table[0]
    return table


def m3(t):
    """np.interp(t, j/N, table) with the cell index floor(t N) in place of
    np.interp's binary search, and its arithmetic: slope (y_{j+1} - y_j) /
    (x_{j+1} - x_j), value slope (t - x_j) + y_j, y_j at a node and at
    t = 1, the end values outside [0, 1]."""
    vals = _m3_interp_table()
    cells = vals.size - 1
    # the same steps as the expression, written into five arrays of t's
    # size (and two masks) in place: no other temporary of that size
    x = np.array(t, dtype=float, ndmin=1)
    np.clip(x, 0.0, 1.0, out=x)
    # NaN lands in the last cell and stays NaN
    xj = np.multiply(x, cells)
    np.fmin(xj, cells - 1.0, out=xj)
    np.floor(xj, out=xj)
    j = xj.astype(np.intp)
    xj /= cells  # the node j/N, exact in binary
    at_node, at_end = x == xj, x == 1.0
    yj = vals[j]
    j += 1
    out = vals[j]
    out -= yj
    out /= 1.0 / cells
    np.subtract(x, xj, out=x)
    out *= x
    out += yj
    np.copyto(out, yj, where=at_node)
    out[at_end] = vals[cells]
    return out.reshape(np.shape(t))


TARGETS = {"m1": m1, "m2": m2, "m3": m3}


@dataclass(frozen=True)
class Scenario:
    """One simulation setting: target, stream shape, noise and seeding."""

    target: str = "m1"
    n: int = 100_000
    B: int = 100
    snr: float = 2.0
    seed: int = 0
    replicates: int = 100

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        require(is_count, "an integer", self, "n", "B", "seed", "replicates")
        require(is_real, "a finite number", self, "snr")
        if min(self.n, self.B, self.replicates) < 1 or self.snr <= 0:
            raise ValueError("n, B, replicates must be positive; snr > 0")


@functools.cache
def signal_power(target):
    """E|m(T)|^2 under the uniform design, by quadrature."""
    fn = TARGETS[target]
    return quadrature.integrate(lambda x: fn(x) ** 2, 0.0, 1.0, 4096)


def noise_sigma(sc):
    """Noise standard deviation implied by the scenario's SNR convention."""
    return float(np.sqrt(signal_power(sc.target) / sc.snr))


def rmise(ise_values):
    """Root mean integrated squared error from per-replicate ISE values."""
    ise_values = np.asarray(ise_values, dtype=float)
    if ise_values.size < 1:
        raise ValueError("need at least one replicate")
    return float(np.sqrt(np.mean(ise_values)))


def integrated_squared_error(predict, target):
    """int_0^1 (m - m_hat)^2 by quadrature for the target named ``target``
    (a key of ``TARGETS``); ``predict`` maps t-array to values."""
    x, w = quadrature.rule(0.0, 1.0, 2048)
    diff = TARGETS[target](x) - predict(x)
    return float(np.dot(w, diff * diff))


@dataclass
class ExperimentReport:
    """Row-per-checkpoint experiment results, serializable as CSV."""

    rows: list = field(default_factory=list)
    failures: int = 0

    def add(self, **row):
        self.rows.append({k: row.get(k) for k in REPORT_COLUMNS})

    def column(self, name):
        return [r[name] for r in self.rows]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for r in self.rows:
                writer.writerow([r[c] for c in REPORT_COLUMNS])

    def write_gnuplot(self, path, csv_path):
        with open(path, "w") as fh:
            fh.write(
                "set datafile separator ','\n"
                "set logscale xy\n"
                "set xlabel 'n'\nset ylabel 'RMISE'\n"
                f"plot '{csv_path}' using 3:4 skip 1 with linespoints"
                " title 'RMISE'\n"
            )


def _replicate_data(sc, replicate):
    """The replicate's n design points and responses m(t) + noise.  The
    target and the noise go in REPLICATE_CHUNK points at a time: the same
    draws in the same order as one call at n, so the same bits, with no
    temporary of n points beside t and y."""
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, replicate]))
    ts = rng.uniform(0.0, 1.0, sc.n)
    ys = np.empty(sc.n)
    target, sigma = TARGETS[sc.target], noise_sigma(sc)
    for lo in range(0, sc.n, REPLICATE_CHUNK):
        part = slice(lo, lo + REPLICATE_CHUNK)
        ys[part] = target(ts[part])
        ys[part] += rng.normal(0.0, sigma, ys[part].size)
    return ts, ys


def _counts(checkpoints):
    """The checkpoints as sorted ints, each checked to be an integer."""
    checkpoints = list(checkpoints)
    if not all(map(is_count, checkpoints)):
        raise ValueError(f"checkpoints must be integers, got {checkpoints!r}")
    return sorted(map(int, checkpoints))


def run_experiment(sc, checkpoints, method="streaming", mem_caps=(None,),
                   fixed_h=None):
    """Tune each replicate once, stream it once per distinct picked h, and
    record RMISE at each checkpoint under every memory cap.

    Every replicate builds one CV table on its warm-up prefix (one pass
    total: the warm-up observations are streamed as well).  For each cap in
    ``mem_caps`` (None = unconstrained) it selects (C_rho, h) from that
    table under the cap's deployability screen.  The caps that picked the
    same h share one stream (``_stream``), which ingests the full replicate
    in calls that end on every checkpoint and otherwise every STREAM_CALL
    points, and snapshots each cap's estimate at every checkpoint; ``sc.B``
    only fixes where checkpoints may fall.  ``method`` selects the
    streaming engine or the non-streaming baseline refit on all retained
    data.  Rows are grouped by cap in the order given.  A replicate whose
    tuning or stream fails keeps the checkpoints it reached before it
    failed: each row's ``failures`` is the number of replicates missing
    from that row, and the report's ``failures`` the number of (replicate,
    cap) runs that failed anywhere.  A cap's rows are those of a run with
    that cap alone, but for the rounding of G and theta when a larger cap
    shares its h (RMISE within 1e-12 relative).
    """
    if method not in ("streaming", "batch_oracle"):
        raise ValueError(f"unknown method {method!r}")
    checkpoints = _counts(checkpoints)
    if not checkpoints or checkpoints[-1] > sc.n:
        raise ValueError("checkpoints must be non-empty and <= n")
    if checkpoints[0] < 1:
        raise ValueError(f"checkpoints must be >= 1, got {checkpoints[0]}")
    if len(set(checkpoints)) < len(checkpoints):
        raise ValueError("checkpoints must be distinct")
    if any(c % sc.B for c in checkpoints):
        raise ValueError("checkpoints must align with batch boundaries")
    caps = list(mem_caps)
    if not caps:
        raise ValueError("mem_caps must be non-empty")
    if len(set(caps)) < len(caps):
        raise ValueError("mem_caps must be distinct")
    grid = TuningGrid(n0=min(TuningGrid.n0, sc.n))
    if fixed_h is not None:
        grid = replace(grid, h_grid=(fixed_h,))
    spec = BasisSpec(0.0, 1.0, extension_margin=EXTENSION_MARGINS[sc.target])
    marks = set(checkpoints)
    ends = sorted(marks.union(range(STREAM_CALL, checkpoints[-1],
                                    STREAM_CALL)))

    # (ISE, active count, memory units) of each replicate, per cap and
    # checkpoint
    fits = {(k, c): [] for k in range(len(caps)) for c in checkpoints}
    failures = 0
    t0 = time.perf_counter()

    for r in range(sc.replicates):
        ts, ys = _replicate_data(sc, r)
        rows = cv_table(ts, ys, grid, PENALTY, spec)
        # (C_rho, schedule) of each cap whose selection succeeded
        picks = {}
        for k, cap in enumerate(caps):
            try:
                pick = cv_select(rows, spec, n_deploy=sc.n, mem_cap=cap)
            except StreamRegError:
                failures += 1
                continue
            picks[k] = (pick["C_rho"],
                        SchedulerConfig(h=pick["h"], mem_cap=cap))
        if method == "streaming":
            for h in dict.fromkeys(sched.h for _, sched in picks.values()):
                failures += _stream(sc, spec, ts, ys, ends, marks, {
                    k: pick for k, pick in picks.items() if pick[1].h == h},
                    fits)
        else:
            for k, (C_rho, sched) in picks.items():
                try:
                    for c in checkpoints:
                        q = sched.active_count(c)
                        rho = rho_at(C_rho, sched.h, c, PENALTY.zeta)
                        coef = batch_fit(ts[:c], ys[:c], spec, q, rho,
                                         PENALTY)
                        fits[k, c].append((integrated_squared_error(
                            lambda x: basis_mod.series(spec, coef, x),
                            sc.target), q, 0))
                except StreamRegError:
                    failures += 1

    n_rows = len(caps) * len(checkpoints)
    wall_ms = round((time.perf_counter() - t0) * 1000.0 / n_rows, 3)
    report = ExperimentReport(failures=failures)
    for k in range(len(caps)):
        for c in checkpoints:
            err, q, mem = (np.transpose(fits[k, c]) if fits[k, c]
                           else [[np.nan]] * 3)
            report.add(method=method, target=sc.target, n=c,
                       rmise=rmise(err), q_mean=float(np.mean(q)),
                       mem_units_mean=float(np.mean(mem)), wall_ms=wall_ms,
                       failures=sc.replicates - len(fits[k, c]))
    return report


def _stream(sc, spec, ts, ys, ends, marks, picks, fits):
    """Stream one replicate once for ``picks``, {cap index: (C_rho,
    schedule)} of caps whose schedules share one h, and append each cap's
    (ISE, active count, memory units) at every checkpoint c to
    ``fits[k, c]``, c in ``marks``.  Returns the number of caps that failed.

    Under one h a capped schedule opens the first cap_q slots of the
    uncapped one, at the same times, so G and theta of a capped stream are
    the leading slots of a larger cap's, up to their rounding.  The stream
    runs at the largest cap_q; at each checkpoint every other cap's engine
    is the stream's checkpoint cut to that cap (``_leading_slots``).  A
    refused estimate drops that cap's later checkpoints; a refused ingest
    fails every cap still live.
    """
    lead = max(picks, key=lambda k: picks[k][1].cap_q)
    reg = OnePassRegressor(spec, PENALTY, picks[lead][1])
    live = dict(picks)
    for lo, hi in zip([0, *ends], ends):
        try:
            reg.ingest(ts[lo:hi], ys[lo:hi])
        except StreamRegError:
            return len(picks)
        if hi not in marks:
            continue
        record = reg.checkpoint() if live.keys() - {lead} else None
        for k, (C_rho, sched) in list(live.items()):
            engine = reg if k == lead else _leading_slots(record, sched)
            try:
                rho = rho_at(C_rho, sched.h, hi, PENALTY.zeta)
                fits[k, hi].append((integrated_squared_error(
                    lambda x: engine.estimate(x, rho), sc.target),
                    engine.active_count, engine.memory_footprint()))
            except StreamRegError:
                del live[k]
        if not live:
            break
    return len(picks) - len(live)


def _leading_slots(record, sched):
    """The engine under ``sched`` of the stream whose checkpoint is
    ``record``, taken at the same h and a cap_q at least sched's: the
    record's first cap_q slots under sched's memory cap.  The loader checks
    the cut ledger against sched's schedule."""
    q = sched.cap_q
    cut = {key: record[key][:q] for key in ("G", "start", "theta",
                                            "theta_start")}
    return OnePassRegressor.from_checkpoint(
        {**record, **cut,
         "config": {**record["config"], "mem_cap": sched.mem_cap}})


def phase_transition_experiment(sc, mem_caps, checkpoints):
    """Run the experiment under each memory cap (None = unconstrained).

    A constant cap should make the RMISE curve plateau while the uncapped
    run keeps improving; both curves are emitted for comparison.
    """
    report = run_experiment(sc, checkpoints, mem_caps=mem_caps)
    per_cap = len(report.rows) // len(mem_caps)
    for i, row in enumerate(report.rows):
        cap = mem_caps[i // per_cap]
        row["method"] = ("streaming_uncapped" if cap is None
                         else f"streaming_cap{cap}")
    return report


def rate_experiment(sc, beta_hypothesis, checkpoints):
    """Least-squares slope of log RMISE vs log n against -beta/(2*beta+1),
    with the slot growth fixed at h = RATE_H.

    Returns (slope, hypothesized_slope, report, skipped); the slope test is
    skipped when the RMISE values are numerically zero.
    """
    if not (is_real(beta_hypothesis) and beta_hypothesis > 0):
        raise ValueError(f"beta must be a finite number > 0, got "
                         f"{beta_hypothesis!r}")
    checkpoints = _counts(checkpoints)
    if len(set(checkpoints)) < 3 or checkpoints[-1] < 100 * checkpoints[0]:
        raise ValueError("need >= 3 distinct checkpoints over >= 2 decades")
    report = run_experiment(sc, checkpoints, fixed_h=RATE_H)
    values = np.asarray(report.column("rmise"), dtype=float)
    hypothesized = -beta_hypothesis / (2.0 * beta_hypothesis + 1.0)
    if np.any(values <= 1e-12):
        return float("nan"), hypothesized, report, True
    slope = float(np.polyfit(np.log(checkpoints), np.log(values), 1)[0])
    return slope, hypothesized, report, False


SCENARIO_KEYS = {f.name: f.type for f in fields(Scenario)}


def load_scenario(path):
    """Read a scenario from a flat key-value text file (key = value lines);
    a key may appear once."""
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in SCENARIO_KEYS:
                raise ValueError(f"unknown scenario key {key!r}")
            if key in values:
                raise ValueError(f"repeated scenario key {key!r}")
            values[key] = SCENARIO_KEYS[key](raw.strip())
    return Scenario(**values)
