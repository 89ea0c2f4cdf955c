import tracemalloc

import numpy as np
import pytest

from streamreg import quadrature
from streamreg.basis import BasisSpec, PenaltySpec, eval_matrix
from streamreg.density import DensityState
from streamreg.engine import OnePassRegressor
from streamreg.errors import DegenerateDensityError, DomainError, StateError
from streamreg.scheduler import SchedulerConfig

UNIT = BasisSpec(0.0, 1.0)


def make_state(**sched_kwargs):
    return DensityState(UNIT, SchedulerConfig(**sched_kwargs))


def replay_theta(state, stream):
    """Independent recomputation of every slot mean from the retained stream."""
    ts = np.concatenate(stream)
    n = ts.size
    vals = eval_matrix(state.basis, state.theta.size, ts)
    out = np.empty(state.theta.size)
    for j in range(state.theta.size):
        lo = state.start[j] - 1
        out[j] = vals[lo:, j].sum() / (n - lo)
    return out


class TestUpdate:
    def test_constant_slot_averages_to_one(self):
        state = make_state(q0=1, mem_cap=3)
        state.update([0.1, 0.5, 0.9, 0.3, 0.7])
        np.testing.assert_allclose(state.theta, [1.0])

    def test_running_mean_arithmetic(self):
        state = make_state(q0=1, mem_cap=3)
        state.theta = np.array([0.4])
        state.start = np.array([1], dtype=np.int64)
        state.n = 10
        # psi_1 = 1 on [0,1]: a batch of 5 contributes slot-sum 5, but force 6
        # by replaying the formula directly with a synthetic batch sum
        counts_old, batch_sum, n_new = 10, 6.0, 15
        expected = (counts_old * 0.4 + batch_sum) / n_new
        assert expected == pytest.approx(2.0 / 3.0)

    def test_replay_oracle_mixed_batches(self):
        rng = np.random.default_rng(3)
        state = make_state()
        stream = []
        for _ in range(60):
            batch = rng.uniform(0, 1, rng.integers(1, 40))
            stream.append(batch)
            state.update(batch)
        expected = replay_theta(state, stream)
        np.testing.assert_allclose(state.theta, expected, rtol=1e-10, atol=1e-12)

    def test_out_of_domain_batch_rejected_atomically(self):
        state = make_state()
        state.update([0.2, 0.4])
        before = (state.n, state.theta.copy())
        with pytest.raises(DomainError):
            state.update([0.5, 1.5])
        assert state.n == before[0]
        np.testing.assert_array_equal(state.theta, before[1])

    def test_slot_count_stays_bounded(self):
        rng = np.random.default_rng(4)
        state = make_state()
        for _ in range(200):
            state.update(rng.uniform(0, 1, 50))
        p = state.schedule.active_count(state.n)
        assert state.theta.size <= 4 * p
        assert state.theta.size == state.start.size


class TestEvaluate:
    def test_uniform_single_slot(self):
        state = make_state(q0=1, mem_cap=3)
        state.update(np.linspace(0.05, 0.95, 19))
        for t in (0.0, 0.33, 1.0):
            assert state.evaluate(t) == pytest.approx(1.0)

    def test_direct_series_evaluation(self):
        state = make_state(q0=2, mem_cap=6)
        state.theta = np.array([1.0, 0.5])
        state.start = np.array([1, 1], dtype=np.int64)
        state.n = 10
        assert state.evaluate(0.0) == pytest.approx(1.0 + 0.5 * np.sqrt(2))

    def test_no_active_slot_errors(self):
        state = make_state()
        with pytest.raises(StateError):
            state.evaluate(0.5)

    def test_uniform_density_sup_error(self):
        rng = np.random.default_rng(11)
        state = make_state(q0=9, mem_cap=27)
        for _ in range(100):
            state.update(rng.uniform(0, 1, 100))
        grid = np.linspace(0, 1, 501)
        assert np.max(np.abs(state.evaluate(grid) - 1.0)) < 0.15


class TestNormalized:
    def test_already_a_density(self):
        state = make_state(q0=1, mem_cap=3)
        state.update(np.linspace(0.01, 0.99, 50))
        assert state.evaluate_normalized(0.4) == pytest.approx(1.0, abs=1e-9)

    def test_clipped_linear_analytic(self):
        # f_hat(t) = 2t - 0.5 = 0.5*phi_1 + c*phi_3-style ramp is not exactly
        # in a 2-slot Fourier span, so drive the formula through a stub state.
        class Ramp(DensityState):
            def __init__(self):
                super().__init__(UNIT, SchedulerConfig(q0=1, mem_cap=3))
                self.n = 1
                self.theta = np.array([1.0])
                self.start = np.array([1], dtype=np.int64)

            def evaluate(self, t):
                t = np.asarray(t, dtype=float)
                return 2.0 * t - 0.5

        state = Ramp()
        # positive part integrates to (2t-0.5) on [0.25, 1]: 9/16
        t = np.array([0.0, 0.25, 0.75, 1.0])
        expected = np.maximum(2 * t - 0.5, 0.0) / (9.0 / 16.0)
        np.testing.assert_allclose(state.evaluate_normalized(t), expected,
                                   atol=1e-8)

    def test_everywhere_nonpositive_is_degenerate(self):
        class Negative(DensityState):
            def __init__(self):
                super().__init__(UNIT, SchedulerConfig(q0=1, mem_cap=3))
                self.n = 1
                self.theta = np.array([1.0])
                self.start = np.array([1], dtype=np.int64)

            def evaluate(self, t):
                return -np.ones_like(np.asarray(t, dtype=float))

        with pytest.raises(DegenerateDensityError):
            Negative().evaluate_normalized(0.5)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        state = make_state()
        for _ in range(30):
            state.update(rng.beta(2, 3, 100))
        total = quadrature.integrate(state.evaluate_normalized, 0, 1, 1 << 16)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_cached_normalizer_follows_every_ingest(self):
        # the live engine reuses its normalizer between ingests; a reloaded
        # copy computes it afresh
        rng = np.random.default_rng(12)
        eng = OnePassRegressor(UNIT, PenaltySpec("roughness"),
                               SchedulerConfig())
        grid = np.array([0.0, 0.3, 0.77, 1.0])
        # 1-point batches, and batches that open slots strictly inside them
        for size in [1] * 8 + [500, 1, 2000, 1, 7000]:
            eng.ingest(rng.beta(2, 3, size), rng.normal(size=size))
            copy = OnePassRegressor.from_checkpoint(eng.checkpoint_json())
            for _ in range(2):
                np.testing.assert_array_equal(eng.density_at(grid),
                                              copy.density_at(grid))
                assert eng.density_at(0.3) == copy.density_at(0.3)

    def test_normalizer_builds_no_basis_matrix(self):
        # a (32768 x q) basis matrix at q = 92 alone takes 24 MB
        rng = np.random.default_rng(13)
        state = make_state()
        for _ in range(100):
            state.update(rng.uniform(0, 1, 1000))
        assert state.active_count == 92
        tracemalloc.start()
        try:
            state.evaluate_normalized(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestGram:
    def test_uniform_data_close_to_identity(self):
        rng = np.random.default_rng(8)
        state = make_state()
        for _ in range(200):
            state.update(rng.uniform(0, 1, 100))
        H = state.gram(UNIT, 3)
        np.testing.assert_allclose(H, np.eye(3), atol=0.08)
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_extended_basis_matches_quadrature_oracle(self):
        ext = BasisSpec(0.0, 1.0, extension_margin=0.1)

        class Flat(DensityState):
            def __init__(self):
                super().__init__(UNIT, SchedulerConfig(q0=1, mem_cap=3))
                self.n = 1
                self.theta = np.array([1.0])
                self.start = np.array([1], dtype=np.int64)

            def evaluate(self, t):
                return np.ones_like(np.asarray(t, dtype=float))

        H = Flat().gram(ext, 2)
        x, w = quadrature.rule(0.0, 1.0, 4096)
        V = eval_matrix(ext, 2, x)
        oracle = V.T @ (w[:, None] * V)
        np.testing.assert_allclose(H, oracle, atol=1e-8)

    def test_gram_is_psd(self):
        rng = np.random.default_rng(9)
        state = make_state()
        for _ in range(20):
            state.update(rng.beta(0.5, 0.5, 50))
        for q in (2, 6, 11):
            H = state.gram(UNIT, q)
            assert np.linalg.eigvalsh(H).min() >= -1e-8
