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
dyadic grid by FFT and evaluated elsewhere by linear interpolation (the
highest retained frequency is far below the grid Nyquist, keeping the
interpolation error around 1e-5 in sup norm).
"""

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import basis as basis_mod
from . import quadrature
from .basis import BasisSpec, PenaltySpec
from .engine import OnePassRegressor, batch_fit
from .errors import StreamRegError
from .scheduler import SchedulerConfig
from .tuning import TuningGrid, cv_select, rho_at

M3_TERMS = 100_000
_M3_GRID_LOG2 = 21

EXTENSION_MARGINS = {"m1": 0.1, "m2": 0.1, "m3": 0.0}

# Every experiment fits with the roughness penalty and a density sketch.
PENALTY = PenaltySpec("roughness")

REPORT_COLUMNS = ("method", "target", "n", "rmise", "q_mean",
                  "mem_units_mean", "wall_ms", "failures")


def m1(t):
    return np.exp(np.sin(2.0 * np.pi * np.asarray(t, dtype=float)))


def m2(t):
    return np.abs(np.asarray(t, dtype=float) - 0.4)


def m3_partial_sum(t, k_max=M3_TERMS, chunk=4096):
    """Direct truncated series evaluation; oracle-grade but slow."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.full(t.shape, 1.0)  # j = 1 term
    freqs = np.arange(1, k_max // 2 + 1)
    for lo in range(0, freqs.size, chunk):
        ks = freqs[lo: lo + chunk]
        ang = 2.0 * np.pi * np.outer(t, ks)
        c_coef = (2.0 * ks) ** -1.5
        s_coef = np.where(2 * ks + 1 <= k_max, (2.0 * ks + 1.0) ** -1.5, 0.0)
        out += np.cos(ang) @ c_coef + np.sin(ang) @ s_coef
    return out


_m3_table = None


def _m3_interp_table():
    global _m3_table
    if _m3_table is None:
        N = 1 << _M3_GRID_LOG2
        ks = np.arange(1, M3_TERMS // 2 + 1)
        coef = np.zeros(N, dtype=complex)
        coef[0] = 1.0
        coef[ks] = (2.0 * ks) ** -1.5 + 1j * np.where(
            2 * ks + 1 <= M3_TERMS, (2.0 * ks + 1.0) ** -1.5, 0.0)
        vals = np.real(np.fft.fft(coef))
        grid = np.arange(N + 1) / N
        _m3_table = (grid, np.append(vals, vals[0]))
    return _m3_table


def m3(t):
    grid, vals = _m3_interp_table()
    return np.interp(np.asarray(t, dtype=float), grid, vals)


TARGETS = {"m1": m1, "m2": m2, "m3": m3}


def target_eval(target, t):
    """Evaluate a named target (or a callable custom target)."""
    scalar = np.isscalar(t)
    fn = TARGETS[target] if isinstance(target, str) else target
    out = fn(np.atleast_1d(np.asarray(t, dtype=float)))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class Scenario:
    """One simulation setting: target, stream shape, noise and seeding."""

    target: str = "m1"
    n: int = 100_000
    B: int = 100
    snr: float = 2.0
    seed: int = 0
    replicates: int = 100
    noiseless: bool = False

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if min(self.n, self.B, self.replicates) < 1 or self.snr <= 0:
            raise ValueError("n, B, replicates must be positive; snr > 0")


_signal_power_cache = {}


def signal_power(target):
    """E|m(T)|^2 under the uniform design, by quadrature."""
    if target not in _signal_power_cache:
        fn = TARGETS[target]
        _signal_power_cache[target] = quadrature.integrate(
            lambda x: fn(x) ** 2, 0.0, 1.0, 4096)
    return _signal_power_cache[target]


def noise_sigma(sc):
    """Noise standard deviation implied by the scenario's SNR convention."""
    if sc.noiseless:
        return 0.0
    return float(np.sqrt(signal_power(sc.target) / sc.snr))


def generate_stream(sc, rng=None):
    """Yield (t, y) batches of size B; deterministic given the seed."""
    if rng is None:
        rng = np.random.default_rng(sc.seed)
    sigma = noise_sigma(sc)
    fn = TARGETS[sc.target]
    produced = 0
    while produced < sc.n:
        size = min(sc.B, sc.n - produced)
        ts = rng.uniform(0.0, 1.0, size)
        ys = fn(ts)
        if sigma > 0:
            ys = ys + rng.normal(0.0, sigma, size)
        produced += size
        yield ts, ys


def rmise(ise_values):
    """Root mean integrated squared error from per-replicate ISE values."""
    ise_values = np.asarray(ise_values, dtype=float)
    if ise_values.size < 1:
        raise ValueError("need at least one replicate")
    return float(np.sqrt(np.mean(ise_values)))


def integrated_squared_error(predict, target):
    """int_0^1 (m - m_hat)^2 by quadrature; ``predict`` maps t-array to values."""
    x, w = quadrature.rule(0.0, 1.0, 2048)
    fn = TARGETS[target] if isinstance(target, str) else target
    diff = fn(x) - predict(x)
    return float(np.dot(w, diff * diff))


@dataclass
class ExperimentReport:
    """Row-per-checkpoint experiment results, serializable as CSV."""

    rows: list = field(default_factory=list)
    failures: int = 0

    def add(self, **row):
        self.rows.append({k: row.get(k) for k in REPORT_COLUMNS})

    def column(self, name, method=None):
        return [r[name] for r in self.rows if method is None or r["method"] == method]

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
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, replicate]))
    ts = rng.uniform(0.0, 1.0, sc.n)
    ys = TARGETS[sc.target](ts)
    sigma = noise_sigma(sc)
    if sigma > 0:
        ys = ys + rng.normal(0.0, sigma, sc.n)
    return ts, ys


def run_experiment(sc, checkpoints, method="streaming", grid=None,
                   mem_cap=None, fixed_h=None, method_label=None):
    """Tune, stream, and record RMISE at each checkpoint.

    Every replicate selects (C_rho, h) by cross-validation on its warm-up
    prefix (one pass total: the warm-up observations are streamed as well),
    then ingests the full stream, snapshotting the estimate at every
    checkpoint.  ``method`` selects the streaming engine or the non-streaming
    baseline refit on all retained data.
    """
    if method not in ("streaming", "batch_oracle"):
        raise ValueError(f"unknown method {method!r}")
    checkpoints = sorted(int(c) for c in checkpoints)
    if not checkpoints or checkpoints[-1] > sc.n:
        raise ValueError("checkpoints must be non-empty and <= n")
    if any(c % sc.B for c in checkpoints):
        raise ValueError("checkpoints must align with batch boundaries")
    if grid is None:
        grid = TuningGrid(n0=min(1000, sc.n))
    if fixed_h is not None:
        grid = replace(grid, h_grid=(fixed_h,))
    spec = BasisSpec(0.0, 1.0, extension_margin=EXTENSION_MARGINS[sc.target])

    ise = {c: [] for c in checkpoints}
    q_sum = {c: 0.0 for c in checkpoints}
    mem_sum = {c: 0.0 for c in checkpoints}
    failures = 0
    t0 = time.perf_counter()

    for r in range(sc.replicates):
        ts, ys = _replicate_data(sc, r)
        try:
            C_rho, h, _ = cv_select(ts[: grid.n0], ys[: grid.n0], grid,
                                    PENALTY, spec, n_deploy=sc.n,
                                    mem_cap=mem_cap)
            sched = SchedulerConfig(h=h, mem_cap=mem_cap)
            if method == "streaming":
                reg = OnePassRegressor(spec, PENALTY, sched, batch_size=sc.B)
                for lo in range(0, sc.n, sc.B):
                    reg.ingest(ts[lo: lo + sc.B], ys[lo: lo + sc.B])
                    n_seen = reg.n
                    if n_seen in ise:
                        rho = rho_at(C_rho, h, n_seen, PENALTY.zeta)
                        ise[n_seen].append(integrated_squared_error(
                            lambda x: reg.estimate(x, rho), sc.target))
                        q_sum[n_seen] += reg.active_count
                        mem_sum[n_seen] += reg.memory_footprint()
                    if n_seen >= checkpoints[-1]:
                        break
            else:
                for c in checkpoints:
                    q = sched.active_count(c)
                    rho = rho_at(C_rho, h, c, PENALTY.zeta)
                    coef = batch_fit(ts[:c], ys[:c], spec, q, rho, PENALTY)
                    ise[c].append(integrated_squared_error(
                        lambda x: basis_mod.series(spec, coef, x), sc.target))
                    q_sum[c] += q
                    mem_sum[c] += 0.0
        except StreamRegError:
            failures += 1

    wall_ms = (time.perf_counter() - t0) * 1000.0
    label = method_label or method
    report = ExperimentReport(failures=failures)
    for c in checkpoints:
        n_ok = len(ise[c])
        report.add(
            method=label, target=sc.target, n=c,
            rmise=rmise(ise[c]) if n_ok else float("nan"),
            q_mean=q_sum[c] / n_ok if n_ok else float("nan"),
            mem_units_mean=mem_sum[c] / n_ok if n_ok else float("nan"),
            wall_ms=round(wall_ms / len(checkpoints), 3),
            failures=failures,
        )
    return report


def phase_transition_experiment(sc, mem_caps, checkpoints, **kwargs):
    """Run the experiment once per memory cap (None = unconstrained).

    A constant cap should make the RMISE curve plateau while the uncapped
    run keeps improving; both curves are emitted for comparison.
    """
    report = ExperimentReport()
    for cap in mem_caps:
        label = "streaming_uncapped" if cap is None else f"streaming_cap{cap}"
        part = run_experiment(sc, checkpoints, method="streaming",
                              mem_cap=cap, method_label=label, **kwargs)
        report.rows.extend(part.rows)
        report.failures += part.failures
    return report


def rate_experiment(sc, beta_hypothesis, checkpoints, fixed_h=1 / 3, **kwargs):
    """Least-squares slope of log RMISE vs log n against -beta/(2*beta+1).

    Returns (slope, hypothesized_slope, report, skipped); the slope test is
    skipped when the RMISE values are numerically zero.
    """
    checkpoints = sorted(int(c) for c in checkpoints)
    if len(checkpoints) < 3 or checkpoints[-1] < 100 * checkpoints[0]:
        raise ValueError("need >= 3 checkpoints spanning >= 2 decades")
    report = run_experiment(sc, checkpoints, method="streaming",
                            fixed_h=fixed_h, **kwargs)
    values = np.asarray(report.column("rmise"), dtype=float)
    hypothesized = -beta_hypothesis / (2.0 * beta_hypothesis + 1.0)
    if np.any(values <= 1e-12):
        return float("nan"), hypothesized, report, True
    slope = float(np.polyfit(np.log(checkpoints), np.log(values), 1)[0])
    return slope, hypothesized, report, False


SCENARIO_KEYS = {"target": str, "n": int, "B": int, "snr": float,
                 "seed": int, "replicates": int,
                 "noiseless": lambda s: s.lower() in ("1", "true", "yes")}


def load_scenario(path):
    """Read a scenario from a flat key-value text file (key = value lines)."""
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
            values[key] = SCENARIO_KEYS[key](raw.strip())
    return Scenario(**values)
