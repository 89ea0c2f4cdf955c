import json

import numpy as np
import pytest

from streamreg.basis import BasisSpec, PenaltySpec, eval_matrix
from streamreg.density import DensityState
from streamreg.engine import OnePassRegressor, batch_fit, SCALAR_UNITS
from streamreg.errors import (CheckpointError, DomainError,
                              IllConditionedSystemError)
from streamreg.scheduler import SchedulerConfig

UNIT = BasisSpec(0.0, 1.0)
ROUGH = PenaltySpec("roughness")


def make_engine(known=True, **sched_kwargs):
    return OnePassRegressor(UNIT, ROUGH, SchedulerConfig(**sched_kwargs),
                            known_uniform_density=known)


def feed(engine, ts, ys, batch=100):
    for i in range(0, len(ts), batch):
        engine.ingest(ts[i:i + batch], ys[i:i + batch])


def sample(n, seed, fn):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0, 1, n)
    return ts, fn(ts)


class TestIngest:
    def test_replay_oracle(self):
        """The slot sums must match a from-scratch pass over the full stream."""
        ts, ys = sample(3000, 0, lambda t: np.sin(7 * t) + t)
        ys += np.random.default_rng(1).normal(0, 0.3, ts.size)
        eng = make_engine()
        feed(eng, ts, ys, batch=37)
        vals = eval_matrix(UNIT, eng.G.size, ts)
        expected = np.array([
            np.dot(vals[eng.start[j] - 1:, j], ys[eng.start[j] - 1:])
            for j in range(eng.G.size)
        ])
        np.testing.assert_allclose(eng.G, expected, rtol=1e-10, atol=1e-12)

    def test_batch_split_invariance(self):
        """Regrouping the stream into different batches leaves G unchanged."""
        ts, ys = sample(2000, 2, lambda t: t ** 2)
        a = make_engine()
        b = make_engine()
        feed(a, ts, ys, batch=100)
        feed(b, ts, ys, batch=17)
        np.testing.assert_allclose(a.G, b.G, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(a.start, b.start)

    def test_mid_batch_slot_opening(self):
        # slot 6 opens at tau(6) = floor(0.5 * floor((3)^3)) = 13; feed 20
        # points in one batch and slot 6 must only see points 13..20
        sched = SchedulerConfig()
        assert sched.tau(6) == 13
        ts, ys = sample(20, 3, lambda t: 1.0 + t)
        eng = make_engine()
        eng.ingest(ts, ys)
        vals = eval_matrix(UNIT, eng.G.size, ts)
        assert eng.start[5] == 13
        assert eng.G[5] == pytest.approx(np.dot(vals[12:, 5], ys[12:]), rel=1e-12)

    def test_domain_violation_is_atomic(self):
        eng = make_engine()
        eng.ingest([0.5], [1.0])
        g_before = eng.G.copy()
        with pytest.raises(DomainError):
            eng.ingest([0.2, -0.1], [1.0, 1.0])
        assert eng.n == 1
        np.testing.assert_array_equal(eng.G, g_before)

    def test_non_finite_y_rejected_atomically(self):
        eng = make_engine(known=False)
        eng.ingest([0.5, 0.25], [1.0, 2.0])
        before = eng.checkpoint_json()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                eng.ingest([0.2, 0.7], [1.0, bad])
        assert eng.checkpoint_json() == before

    def test_overflowing_y_rejected_atomically(self):
        # each y is finite, but the slot sums overflow: in one batch of ten,
        # or only once a second batch adds to the first
        for known in (True, False):
            eng = make_engine(known=known)
            eng.ingest([0.5, 0.25], [1.0, 2.0])
            before = eng.checkpoint_json()
            with pytest.raises(ValueError):
                eng.ingest([0.5] * 10, [1e308] * 10)
            assert eng.checkpoint_json() == before
            eng.ingest([0.5], [1e308])
            before = eng.checkpoint_json()
            with pytest.raises(ValueError):
                eng.ingest([0.5], [1e308])
            assert eng.checkpoint_json() == before
            assert np.isfinite(eng.estimate(0.3, 1e-3))

    def test_shared_basis_leaves_the_sketch_unchanged(self):
        # at margin 0 the sketch folds the engine's own basis matrix; with a
        # margin it must evaluate its unextended basis itself
        ts = np.random.default_rng(16).beta(2, 3, 9000)
        for margin in (0.0, 0.1):
            spec = BasisSpec(0.0, 1.0, extension_margin=margin)
            eng = OnePassRegressor(spec, ROUGH, SchedulerConfig())
            alone = DensityState(UNIT, SchedulerConfig())
            # single points, then batches that open slots strictly inside
            for lo, hi in [(0, 1), (1, 2), (2, 40), (40, 900), (900, 9000)]:
                opens = eng.start.size
                eng.ingest(ts[lo:hi], np.ones(hi - lo))
                alone.update(ts[lo:hi])
                np.testing.assert_array_equal(eng.density.theta, alone.theta)
                np.testing.assert_array_equal(eng.density.start, alone.start)
            assert eng.start.size > opens and eng.start[-1] > 900 + 1

    def test_length_mismatch_rejected(self):
        eng = make_engine()
        with pytest.raises(ValueError):
            eng.ingest([0.1, 0.2], [1.0])

    def test_empty_batch_rejected(self):
        eng = make_engine()
        with pytest.raises(ValueError):
            eng.ingest([], [])


class TestSolve:
    def test_matches_batch_fit_when_all_slots_full(self):
        # with fixed_q <= q0 every slot starts at observation 1, so the
        # streaming statistics coincide with the batch moments exactly
        ts, ys = sample(500, 4, lambda t: np.exp(t))
        ys += np.random.default_rng(5).normal(0, 0.1, ts.size)
        eng = make_engine(fixed_q=5)
        feed(eng, ts, ys, batch=50)
        Phi = eval_matrix(UNIT, 5, ts)
        H = Phi.T @ Phi / ts.size
        for rho in (0.0, 1e-3, 0.5):
            streamed = eng.solve_coefficients(rho, gram=H)
            batched = batch_fit(ts, ys, UNIT, 5, rho, ROUGH)
            np.testing.assert_allclose(streamed, batched, rtol=1e-10,
                                       atol=1e-12)

    def test_noise_free_harmonic_recovery(self):
        # y = sqrt(2) cos(2 pi t) is the second basis function; with the
        # uniform Gram known, rho = 0 recovers it up to sampling error
        ts, _ = sample(5000, 6, lambda t: t)
        ys = np.sqrt(2.0) * np.cos(2 * np.pi * ts)
        eng = make_engine(fixed_q=5)
        feed(eng, ts, ys)
        coef = eng.solve_coefficients(0.0)
        grid = np.linspace(0, 1, 401)
        fit = eng.estimate(grid, 0.0)
        truth = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        assert abs(coef[1] - 1.0) < 0.05
        assert np.max(np.abs(fit - truth)) <= 0.05

    def test_penalty_shrinks_high_harmonics(self):
        ts, ys = sample(2000, 7, lambda t: np.sqrt(2) * np.cos(6 * np.pi * t))
        eng = make_engine(fixed_q=9)
        feed(eng, ts, ys)
        small = eng.solve_coefficients(1e-6)
        large = eng.solve_coefficients(1e-1)
        assert abs(large[5]) < abs(small[5])

    def test_singular_gram_raises_with_diagnostic(self):
        eng = make_engine(fixed_q=2)
        eng.ingest([0.1, 0.6], [1.0, 2.0])
        bad = np.zeros((2, 2))
        with pytest.raises(IllConditionedSystemError) as exc_info:
            eng.solve_coefficients(0.0, gram=bad)
        assert exc_info.value.min_eigenvalue <= 0.0

    def test_negative_rho_rejected(self):
        eng = make_engine(fixed_q=2)
        eng.ingest([0.1], [1.0])
        with pytest.raises(ValueError):
            eng.solve_coefficients(-1.0)

    def test_query_before_data_raises(self):
        eng = make_engine()
        with pytest.raises(IllConditionedSystemError):
            eng.solve_coefficients(0.1)

    def test_cache_invalidated_by_ingest(self):
        ts, ys = sample(200, 8, lambda t: t)
        eng = make_engine(fixed_q=3)
        feed(eng, ts, ys)
        first = eng.estimate(0.5, 1e-3)
        eng.ingest([0.9, 0.1], [5.0, -5.0])
        assert eng.estimate(0.5, 1e-3) != first

    def test_density_unknown_path_runs(self):
        ts, ys = sample(3000, 9, lambda t: 1.0 + t)
        eng = make_engine(known=False)
        feed(eng, ts, ys)
        fit = eng.estimate(np.array([0.25, 0.75]), 1e-2)
        assert np.all(np.isfinite(fit))


class TestMemory:
    def test_footprint_formula(self):
        ts, ys = sample(1000, 10, lambda t: t)
        eng = make_engine(known=False)
        feed(eng, ts, ys)
        expected = (eng.G.size + eng.start.size + eng.density.theta.size
                    + eng.density.start.size + SCALAR_UNITS)
        assert eng.memory_footprint() == expected

    def test_capped_engine_stays_under_budget(self):
        ts, ys = sample(20000, 11, lambda t: t)
        eng = make_engine(known=False, mem_cap=30)
        feed(eng, ts, ys)
        assert eng.memory_footprint() <= 30 + 16
        assert eng.G.size <= 10


class TestCheckpoint:
    def test_round_trip_is_byte_exact(self):
        ts, ys = sample(1500, 12, lambda t: np.cos(t))
        eng = make_engine(known=False)
        feed(eng, ts, ys)
        payload = eng.checkpoint_json()
        resumed = OnePassRegressor.from_checkpoint(payload)
        assert resumed.checkpoint_json() == payload

    def test_resume_then_ingest_matches_uninterrupted(self):
        ts, ys = sample(2000, 13, lambda t: t + np.sin(4 * t))
        full = make_engine(known=False)
        feed(full, ts, ys)
        half = make_engine(known=False)
        feed(half, ts[:1000], ys[:1000])
        resumed = OnePassRegressor.from_checkpoint(half.checkpoint_json())
        feed(resumed, ts[1000:], ys[1000:])
        np.testing.assert_array_equal(resumed.G, full.G)
        np.testing.assert_array_equal(resumed.density.theta,
                                      full.density.theta)
        assert resumed.estimate(0.3, 1e-2) == full.estimate(0.3, 1e-2)

    def test_small_h_runs_on_its_initial_slots(self):
        # with h = 0.001 the activation time (C_q*j)^(1/h) of every slot past
        # q0 overflows a float: those slots never open
        eng = make_engine(known=False, h=0.001)
        feed(eng, *sample(500, 17, np.cos))
        np.testing.assert_array_equal(eng.start, np.ones(5, dtype=np.int64))
        assert np.isfinite(eng.estimate(0.3, 1e-2))
        payload = eng.checkpoint_json()
        resumed = OnePassRegressor.from_checkpoint(payload)
        assert resumed.checkpoint_json() == payload
        feed(resumed, *sample(100, 18, np.cos))
        assert resumed.start.size == 5

    def test_small_h_checkpoint_loads(self):
        # a record with h = 0.001, written without ever ingesting under it,
        # loads; a schedule that overflows is a corrupt record
        eng = make_engine(known=False)
        feed(eng, *sample(10, 19, np.cos))
        record = eng.checkpoint()
        record["config"]["h"] = 0.001
        assert OnePassRegressor.from_checkpoint(record).checkpoint() == record
        record["config"]["C_q"] = 1e-320
        with pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint(record)

    def test_corrupt_payload_raises(self):
        with pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint("{not json")
        with pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint(json.dumps({"format": "other"}))
        for garbage in (b"\xff", "null", "[]"):
            with pytest.raises(CheckpointError):
                OnePassRegressor.from_checkpoint(garbage)
        eng = make_engine(fixed_q=2)
        eng.ingest([0.5], [1.0])
        record = eng.checkpoint()
        del record["G"]
        with pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint(record)
        # records that parse but disagree with the schedule, with the sketch
        # or with finiteness; the unmutated records load
        sketch, known = make_engine(known=False), make_engine(known=True)
        for eng in (sketch, known):
            feed(eng, *sample(5000, 15, np.sin))
        good, good_known = sketch.checkpoint(), known.checkpoint()
        G, start = good["G"], good["start"]
        theta, theta_start = good["theta"], good["theta_start"]
        bad = [dict(n=-5), dict(n=4999.7), dict(n=True), dict(n=0),
               dict(n=10 ** 18), dict(n=10 ** 400),
               dict(G=[float("nan")] + G[1:]),
               dict(theta=theta[:-1] + [float("inf")]),
               dict(theta=theta[:-1]),
               dict(theta_start=theta_start[:-1]),
               dict(theta_start=theta_start[:-1] + [theta_start[-1] + 1]),
               dict(start=start[:-1] + [start[-1] + 1]),
               dict(start=start[:-1] + [10 ** 30]),
               dict(G=G[:-1], start=start[:-1], theta=theta[:-1],
                    theta_start=theta_start[:-1])]
        for fields in bad:
            with pytest.raises(CheckpointError):
                OnePassRegressor.from_checkpoint({**good, **fields})
        for fields in (dict(theta=[0.0] * len(G)), dict(theta_start=start)):
            with pytest.raises(CheckpointError):
                OnePassRegressor.from_checkpoint({**good_known, **fields})
        for record in (good, good_known, make_engine(known=False).checkpoint()):
            assert OnePassRegressor.from_checkpoint(record).checkpoint() \
                == record


class TestBatchFit:
    def test_interpolates_span_member(self):
        # noise-free target inside the span: penalized fit with rho = 0 is the
        # exact least squares solution, which reproduces the coefficients
        rng = np.random.default_rng(14)
        ts = rng.uniform(0, 1, 400)
        truth = np.array([0.5, -1.0, 2.0])
        ys = eval_matrix(UNIT, 3, ts) @ truth
        coef = batch_fit(ts, ys, UNIT, 3, 0.0, ROUGH)
        np.testing.assert_allclose(coef, truth, rtol=1e-10, atol=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            batch_fit([], [], UNIT, 3, 0.0, ROUGH)
