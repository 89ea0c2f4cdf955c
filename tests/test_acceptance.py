"""End-to-end acceptance suite.

Eleven criteria, one test each, in the order below.  Every test prints a
single PASS/FAIL line (visible with ``pytest -s``) and then asserts; the
tolerances are pinned and must not be loosened.

  1  replay equivalence of the slot sums and coefficients
  2  closed-form agreement with the projection and batch estimators
  3  roughness penalty matrix values
  4  memory ledger bounds
  5  consistency and relative efficiency on a smooth target
  6  active basis count on the piecewise-cubic target at n = 1e5
  7  empirical convergence-rate slope on the rough target
  8  memory-cap phase transition (capped plateau, uncapped improvement)
  9  index-problem protocol error rates and payload accounting
 10  streaming density sketch accuracy and normalization
 11  checkpoint round-trip and CLI determinism

The full suite takes several minutes; the heavy Monte Carlo tests
(5, 7, 8, 9) dominate.
"""

import csv
import json

import numpy as np
import pytest

from oracles import second_derivative_matrix
from streamreg.basis import BasisSpec, PenaltySpec, eval_matrix, penalty_matrix
from streamreg.cli import main as cli_main
from streamreg.engine import OnePassRegressor, batch_fit
from streamreg.harness import (Scenario, phase_transition_experiment,
                               rate_experiment, run_experiment)
from streamreg.lowerbound import run_protocol
from streamreg.quadrature import integrate
from streamreg.scheduler import SchedulerConfig

ROUGH = PenaltySpec("roughness")


def verdict(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def feed(engine, ts, ys, batch):
    for i in range(0, len(ts), batch):
        engine.ingest(ts[i:i + batch], ys[i:i + batch])


def rel_close(a, b, tol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def test_criterion_01_replay_equivalence():
    """50 randomized streams: G and the solved coefficients match a
    from-scratch replay of the full stream within 1e-10 relative error."""
    rng = np.random.default_rng(2026)
    ok = True
    for trial in range(50):
        n = int(rng.integers(300, 10_001))
        batch = int(rng.integers(7, 301))
        mem_cap = None if trial % 3 else 30
        margin = 0.1 if trial % 2 else 0.0
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        ts = rng.uniform(0.0, 1.0, n)
        ys = np.sin(3.0 * ts) + ts + rng.normal(0.0, 0.3, n)
        eng = OnePassRegressor(spec, ROUGH, SchedulerConfig(mem_cap=mem_cap))
        feed(eng, ts, ys, batch)

        vals = eval_matrix(spec, eng.G.size, ts)
        g_replay = np.array([
            np.dot(vals[eng.start[j] - 1:, j], ys[eng.start[j] - 1:])
            for j in range(eng.G.size)
        ])
        ok &= rel_close(eng.G, g_replay, 1e-10)

        dvals = eval_matrix(eng.density.basis, eng.density.theta.size, ts)
        th_replay = np.array([
            np.mean(dvals[eng.start[j] - 1:, j])
            for j in range(eng.density.theta.size)
        ])
        ok &= rel_close(eng.density.theta, th_replay, 1e-10)

        q = eng.active_count
        counts = n - eng.start[:q] + 1
        W = penalty_matrix(spec, ROUGH, q)  # its diagonal at margin 0
        A = eng.gram(q)[0] + 0.05 * (np.diag(W) if W.ndim == 1 else W)
        coef_replay = np.linalg.solve(A, g_replay[:q] / counts)
        ok &= rel_close(eng.coefficients(0.05), coef_replay, 1e-10)
    verdict(1, "replay equivalence", ok)


def test_criterion_02_closed_form_agreement():
    """With a known uniform density, no extension and all slots active from
    the start, the unpenalized streaming solution is the plain projection
    estimator; with the empirical Gram substituted it equals the batch fit."""
    rng = np.random.default_rng(5)
    n, q = 4000, 7
    ts = rng.uniform(0.0, 1.0, n)
    ys = np.sin(2.0 * np.pi * ts) + rng.normal(0.0, 0.2, n)
    unit = BasisSpec(0.0, 1.0)
    eng = OnePassRegressor(unit, ROUGH, SchedulerConfig(q0=q, mem_cap=3 * q),
                           known_uniform_density=True)
    feed(eng, ts, ys, 100)
    projection = eval_matrix(unit, q, ts).T @ ys / n
    ok = rel_close(eng.coefficients(0.0), projection, 1e-10)

    ext = BasisSpec(0.0, 1.0, extension_margin=0.1)
    eng2 = OnePassRegressor(ext, ROUGH, SchedulerConfig(q0=q, mem_cap=3 * q),
                            known_uniform_density=True)
    feed(eng2, ts, ys, 100)
    Phi = eval_matrix(ext, q, ts)
    H_emp = Phi.T @ Phi / n
    eng2.gram = lambda q: (H_emp, None)
    for rho in (0.0, 1e-3, 0.5):
        streamed = eng2.solve_coefficients(rho)
        batched = batch_fit(ts, ys, ext, q, rho, ROUGH)
        ok &= rel_close(streamed, batched, 1e-10)
    verdict(2, "closed-form agreement", ok)


def test_criterion_03_penalty_matrix():
    """Roughness penalty: diagonal (2 k pi)^4 without extension; with a 0.1
    margin the matrix matches an independent Gauss-Legendre quadrature of
    the second-derivative products over the data domain."""
    q = 7
    unit = BasisSpec(0.0, 1.0)
    W = np.diag(penalty_matrix(unit, ROUGH, q))  # W from its diagonal
    freqs = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    expected = (2.0 * np.pi * freqs) ** 4
    ok = bool(np.allclose(np.diag(W), expected, rtol=1e-8, atol=1e-8))
    ok &= bool(np.allclose(W, np.diag(np.diag(W)), atol=1e-8))

    ext = BasisSpec(0.0, 1.0, extension_margin=0.1)
    W_ext = penalty_matrix(ext, ROUGH, q)
    x, w = np.polynomial.legendre.leggauss(240)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    D2 = second_derivative_matrix(ext, q, nodes)
    oracle = D2.T @ (weights[:, None] * D2)
    ok &= bool(np.allclose(W_ext, oracle, rtol=1e-8, atol=1e-8))
    verdict(3, "penalty matrix", ok)


def test_criterion_04_memory_ledger():
    """Footprint stays within 3(q+p)+16 and len(G) < 4q at every batch
    boundary up to n = 1e5; a cap of 30 units is never exceeded by more
    than the 16 fixed scalars (46 total)."""
    rng = np.random.default_rng(3)
    n = 100_000
    ts = rng.uniform(0.0, 1.0, n)
    ys = np.sin(2.0 * np.pi * ts) + rng.normal(0.0, 0.2, n)
    spec = BasisSpec(0.0, 1.0, extension_margin=0.1)
    eng = OnePassRegressor(spec, ROUGH, SchedulerConfig())
    capped = OnePassRegressor(spec, ROUGH, SchedulerConfig(mem_cap=30))
    ok = True
    for lo in range(0, n, 500):
        eng.ingest(ts[lo:lo + 500], ys[lo:lo + 500])
        capped.ingest(ts[lo:lo + 500], ys[lo:lo + 500])
        q = eng.active_count
        p = eng.density.active_count
        ok &= eng.memory_footprint() <= 3 * (q + p) + 16
        ok &= len(eng.G) < 4 * q
        ok &= capped.memory_footprint() <= 46
    verdict(4, "memory ledger", ok)


def test_criterion_05_consistency_and_efficiency():
    """Smooth target, SNR 2, batches of 100, 20 replicates: the streaming
    RMISE at n = 1e5 is at most a third of the value at n = 1e3, and at
    most 1.5x the non-streaming baseline refit on the same data."""
    sc = Scenario(target="m1", n=100_000, B=100, snr=2.0,
                  replicates=20, seed=0)
    stream = run_experiment(sc, [1_000, 100_000], method="streaming")
    batch = run_experiment(sc, [100_000], method="batch_oracle")
    by_n = {r["n"]: r["rmise"] for r in stream.rows}
    ratio = by_n[100_000] / batch.rows[0]["rmise"]
    ok = (stream.failures == 0 and batch.failures == 0
          and by_n[100_000] <= by_n[1_000] / 3.0
          and ratio <= 1.5)
    print(f"  rmise(1e3)={by_n[1_000]:.4f} rmise(1e5)={by_n[100_000]:.4f} "
          f"stream/batch={ratio:.3f}")
    verdict(5, "consistency and efficiency", ok)


def test_criterion_06_basis_count():
    """The tuner settles on roughly twenty active basis functions for the
    piecewise-cubic target at n = 1e5 (mean over 20 replicates in [12, 30])."""
    sc = Scenario(target="m2", n=100_000, B=100, snr=2.0,
                  replicates=20, seed=0)
    report = run_experiment(sc, [100_000], method="streaming")
    q_mean = report.rows[0]["q_mean"]
    print(f"  mean active count at n=1e5: {q_mean:.2f}")
    verdict(6, "basis count", report.failures == 0 and 12 <= q_mean <= 30)


def test_criterion_07_rate_slope():
    """Rough target with q ~ n^(1/3): the log-log RMISE slope over
    n in {1e3, 1e4, 1e5} (20 replicates) lies in [-0.50, -0.20]."""
    sc = Scenario(target="m3", n=100_000, B=100, snr=2.0,
                  replicates=20, seed=0)
    slope, hypothesized, report, skipped = rate_experiment(
        sc, 1.0, [1_000, 10_000, 100_000])
    print(f"  slope={slope:.4f} (hypothesized {hypothesized:.4f})")
    ok = (not skipped and report.failures == 0
          and -0.50 <= slope <= -0.20)
    verdict(7, "rate slope", ok)


@pytest.mark.slow
def test_criterion_08_phase_transition():
    """A 30-unit cap freezes the rough-target error between n = 1e4 and
    n = 1e5 (relative change <= 0.1) while the uncapped run improves by at
    least 20% on the same seeds.  High SNR puts the capped run on its
    approximation-bias floor by n = 1e4."""
    sc = Scenario(target="m3", n=100_000, B=100, snr=20.0,
                  replicates=20, seed=0)
    report = phase_transition_experiment(sc, [None, 30], [10_000, 100_000])
    rows = {(r["method"], r["n"]): r["rmise"] for r in report.rows}
    cap4 = rows[("streaming_cap30", 10_000)]
    cap5 = rows[("streaming_cap30", 100_000)]
    un4 = rows[("streaming_uncapped", 10_000)]
    un5 = rows[("streaming_uncapped", 100_000)]
    plateau = abs(cap5 - cap4) / cap4
    improvement = (un4 - un5) / un4
    print(f"  capped change={plateau:.4f} uncapped improvement="
          f"{improvement:.4f}")
    ok = (report.failures == 0 and plateau <= 0.1 and improvement >= 0.2)
    verdict(8, "phase transition", ok)


@pytest.mark.slow
def test_criterion_09_lowerbound_protocol():
    """Index problem, k = 8 bits, n = 1e5, 200 trials: per-bit error at most
    0.1 with unconstrained memory, at least 0.25 when the engine is capped
    below k/4 active functions, and the transmitted unit count equals the
    engine footprint in every trial."""
    uncapped = run_protocol(k=8, beta=1.0, c_K=0.1, n=100_000,
                            trials=200, seed=0)
    capped = run_protocol(k=8, beta=1.0, c_K=0.1, n=100_000,
                          trials=200, seed=0, mem_cap=5)
    units_ok = all(row[3] == rep.transmitted_units
                   for rep in (uncapped, capped) for row in rep.rows)
    print(f"  uncapped error={uncapped.error_rate:.3f} "
          f"capped error={capped.error_rate:.3f} "
          f"units {uncapped.transmitted_units}/{capped.transmitted_units}")
    ok = (uncapped.error_rate <= 0.1 and capped.error_rate >= 0.25
          and units_ok)
    verdict(9, "lower-bound protocol", ok)


def test_criterion_10_density_sketch():
    """Uniform input, p ~ n^(1/5): the seed-averaged sup-grid error of the
    density sketch is non-increasing over n in {1e3, 1e4, 1e5}, and the
    normalized sketch integrates to 1 +- 1e-8."""
    spec = BasisSpec(0.0, 1.0)
    grid = np.linspace(0.0, 1.0, 801)
    errors = []
    for n in (1_000, 10_000, 100_000):
        sups = []
        for rep in range(10):
            rng = np.random.default_rng(np.random.SeedSequence([123, rep]))
            ts = rng.uniform(0.0, 1.0, n)
            eng = OnePassRegressor(spec, ROUGH, SchedulerConfig(h=0.2))
            feed(eng, ts, np.zeros(n), 100)
            sups.append(float(np.max(np.abs(eng.density.evaluate(grid)
                                            - 1.0))))
        errors.append(float(np.mean(sups)))
    monotone = errors[0] >= errors[1] >= errors[2]

    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 1.0, 100_000)
    eng = OnePassRegressor(spec, ROUGH, SchedulerConfig(h=0.2))
    feed(eng, ts, np.zeros(ts.size), 1_000)
    mass = integrate(eng.density.evaluate_normalized, 0.0, 1.0, 1 << 16)
    print(f"  sup errors {errors[0]:.4f} -> {errors[1]:.4f} -> "
          f"{errors[2]:.4f}, normalized mass {mass:.10f}")
    verdict(10, "density sketch",
            monotone and abs(mass - 1.0) <= 1e-8)


def test_criterion_11_checkpoint_and_cli_determinism(tmp_path, capsys):
    """Checkpoints round-trip byte-identically, a resumed engine matches an
    uninterrupted one exactly, and repeated CLI queries emit byte-identical
    output."""
    rng = np.random.default_rng(11)
    ts = rng.uniform(0.0, 1.0, 1_200)
    ys = np.sin(2.0 * np.pi * ts) + rng.normal(0.0, 0.2, 1_200)
    spec = BasisSpec(0.0, 1.0, extension_margin=0.1)

    full = OnePassRegressor(spec, ROUGH, SchedulerConfig())
    feed(full, ts, ys, 100)
    payload = full.checkpoint_json()
    ok = OnePassRegressor.from_checkpoint(payload).checkpoint_json() == payload

    half = OnePassRegressor(spec, ROUGH, SchedulerConfig())
    feed(half, ts[:600], ys[:600], 100)
    resumed = OnePassRegressor.from_checkpoint(half.checkpoint_json())
    feed(resumed, ts[600:], ys[600:], 100)
    ok &= resumed.checkpoint_json() == payload

    data = tmp_path / "stream.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in zip(ts, ys):
            writer.writerow([repr(float(t)), repr(float(y))])
    ckpt = tmp_path / "state.json"
    ok &= cli_main(["ingest-csv", "--input", str(data),
                    "--checkpoint", str(ckpt)]) == 0
    ok &= json.loads(ckpt.read_text())["n"] == 1_200
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ok &= cli_main(["query", "--checkpoint", str(ckpt),
                    "--out", str(out1)]) == 0
    ok &= cli_main(["query", "--checkpoint", str(ckpt),
                    "--out", str(out2)]) == 0
    ok &= out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    verdict(11, "checkpoint and CLI determinism", ok)
