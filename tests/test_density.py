import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import update_theta_two_branch
from streamreg import quadrature
from streamreg.basis import (BasisSpec, PenaltySpec, eval_matrix,
                             gram_from_moments, moments)
from streamreg.density import DensityState
from streamreg.engine import OnePassRegressor
from streamreg.errors import DegenerateDensityError, DomainError, StateError
from streamreg.scheduler import SchedulerConfig

UNIT = BasisSpec(0.0, 1.0)


def make_engine(**sched_kwargs):
    """An engine whose sketch the tests drive: the engine owns the ledger."""
    return OnePassRegressor(UNIT, PenaltySpec("roughness"),
                            SchedulerConfig(**sched_kwargs))


def feed(eng, ts):
    """Ingest the predictors ts with y = 0; the sketch reads t only."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    eng.ingest(ts, np.zeros(ts.size))


def stub(evaluate):
    """A sketch whose raw estimate is ``evaluate``.  Its theta, 1 + sqrt(2)
    cos(2 pi t) with minimum 1 - sqrt(2), fails the certificate, so every
    normalizer and Gram goes through ``evaluate`` by quadrature."""
    state = DensityState(UNIT)
    state.theta = np.array([1.0, 1.0])
    state.active_count = 2
    state.evaluate = evaluate
    assert not state.certified()
    return state


def replay_theta(eng, stream):
    """Independent recomputation of every slot mean from the retained stream."""
    ts = np.concatenate(stream)
    n = ts.size
    theta = eng.density.theta
    vals = eval_matrix(eng.density.basis, theta.size, ts)
    out = np.empty(theta.size)
    for j in range(theta.size):
        lo = eng.start[j] - 1
        out[j] = vals[lo:, j].sum() / (n - lo)
    return out


class TestUpdate:
    def test_constant_slot_averages_to_one(self):
        eng = make_engine(q0=1, mem_cap=3)
        feed(eng, [0.1, 0.5, 0.9, 0.3, 0.7])
        np.testing.assert_allclose(eng.density.theta, [1.0])

    def test_running_mean_arithmetic(self):
        # theta_1 = 0.4 over 10 points, then a synthetic slot sum of 6 over
        # the next 5: (10 * 0.4 + 6) / 15
        state = DensityState(UNIT)
        state.theta = np.array([0.4])
        state.update(np.array([1], dtype=np.int64), np.array([6.0]), 10, 15)
        np.testing.assert_allclose(state.theta, [2.0 / 3.0], rtol=1e-15)

    def test_a_slot_opening_mid_batch_keeps_the_sign_of_its_sum(self):
        # slot 2 opens at tau = 13 inside a batch of observations 11..15:
        # its old count is 0, not 10 - 13 + 1 = -2, so its zero adds to a
        # -0.0 sum as +0.0, as the two-branch update gives
        state = DensityState(UNIT)
        state.theta = np.array([0.4])
        args = (np.array([1, 13], dtype=np.int64), np.array([6.0, -0.0]),
                10, 15)
        want = update_theta_two_branch(state.theta, *args)
        state.update(*args)
        assert state.theta.tobytes() == want.tobytes()
        assert str(state.theta[1]) == "0.0"

    # first batches, batches that open slots strictly inside them, and
    # batches at the cap of 30 units (10 slots), which open none
    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=10),
           margin=st.sampled_from([0.0, 0.1]),
           mem_cap=st.sampled_from([None, 30]), seed=st.integers(0, 2 ** 16))
    @example(sizes=[400, 1, 399, 400, 250], margin=0.0, mem_cap=30, seed=0)
    @example(sizes=[11, 9, 11, 12, 20], margin=0.1, mem_cap=None, seed=0)
    def test_one_formula_matches_the_two_branch_oracle(self, sizes, margin,
                                                       mem_cap, seed):
        rng = np.random.default_rng(seed)
        eng = OnePassRegressor(BasisSpec(0.0, 1.0, extension_margin=margin),
                               PenaltySpec("roughness"),
                               SchedulerConfig(mem_cap=mem_cap))
        sketch, update, calls = eng.density, eng.density.update, []

        def checked(start, sums, n_old, n_new):
            want = update_theta_two_branch(sketch.theta, start, sums, n_old,
                                           n_new)
            update(start, sums, n_old, n_new)
            assert sketch.theta.dtype == want.dtype
            assert sketch.theta.tobytes() == want.tobytes()
            calls.append(n_new)

        sketch.update = checked
        for size in sizes:
            ts = rng.uniform(0.0, 1.0, size)
            eng.ingest(ts, np.sin(5 * ts) + rng.normal(0.0, 0.3, size))
        assert calls == list(np.cumsum(sizes))

    def test_replay_oracle_mixed_batches(self):
        rng = np.random.default_rng(3)
        eng = make_engine()
        stream = []
        for _ in range(60):
            batch = rng.uniform(0, 1, rng.integers(1, 40))
            stream.append(batch)
            feed(eng, batch)
        expected = replay_theta(eng, stream)
        np.testing.assert_allclose(eng.density.theta, expected, rtol=1e-10,
                                   atol=1e-12)

    def test_out_of_domain_batch_rejected_atomically(self):
        eng = make_engine()
        feed(eng, [0.2, 0.4])
        before = (eng.n, eng.density.theta.copy())
        with pytest.raises(DomainError):
            feed(eng, [0.5, 1.5])
        assert eng.n == before[0]
        np.testing.assert_array_equal(eng.density.theta, before[1])

    def test_slot_count_stays_bounded(self):
        rng = np.random.default_rng(4)
        eng = make_engine()
        for _ in range(200):
            feed(eng, rng.uniform(0, 1, 50))
        p = eng.schedule.active_count(eng.n)
        assert eng.density.active_count == p
        assert eng.density.theta.size <= 4 * p
        assert eng.density.theta.size == eng.start.size


class TestEvaluate:
    def test_uniform_single_slot(self):
        eng = make_engine(q0=1, mem_cap=3)
        feed(eng, np.linspace(0.05, 0.95, 19))
        for t in (0.0, 0.33, 1.0):
            assert eng.density.evaluate(t) == pytest.approx(1.0)

    def test_direct_series_evaluation(self):
        state = DensityState(UNIT)
        state.theta = np.array([1.0, 0.5])
        state.active_count = 2
        assert state.evaluate(0.0) == pytest.approx(1.0 + 0.5 * np.sqrt(2))

    def test_no_active_slot_errors(self):
        with pytest.raises(StateError):
            make_engine().density.evaluate(0.5)

    def test_uniform_density_sup_error(self):
        rng = np.random.default_rng(11)
        eng = make_engine(q0=9, mem_cap=27)
        for _ in range(100):
            feed(eng, rng.uniform(0, 1, 100))
        grid = np.linspace(0, 1, 501)
        assert np.max(np.abs(eng.density.evaluate(grid) - 1.0)) < 0.15


class TestNormalized:
    def test_already_a_density(self):
        eng = make_engine(q0=1, mem_cap=3)
        feed(eng, np.linspace(0.01, 0.99, 50))
        assert eng.density.evaluate_normalized(0.4) == pytest.approx(1.0,
                                                                    abs=1e-9)

    def test_clipped_linear_analytic(self):
        # f_hat(t) = 2t - 0.5 = 0.5*phi_1 + c*phi_3-style ramp is not exactly
        # in a 2-slot Fourier span, so drive the formula through a stub state.
        state = stub(lambda t: 2.0 * np.asarray(t, dtype=float) - 0.5)
        # positive part integrates to (2t-0.5) on [0.25, 1]: 9/16
        t = np.array([0.0, 0.25, 0.75, 1.0])
        expected = np.maximum(2 * t - 0.5, 0.0) / (9.0 / 16.0)
        np.testing.assert_allclose(state.evaluate_normalized(t), expected,
                                   atol=1e-8)

    def test_everywhere_nonpositive_is_degenerate(self):
        state = stub(lambda t: -np.ones_like(np.asarray(t, dtype=float)))
        with pytest.raises(DegenerateDensityError):
            state.evaluate_normalized(0.5)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(5)
        eng = make_engine()
        for _ in range(30):
            feed(eng, rng.beta(2, 3, 100))
        total = quadrature.integrate(eng.density.evaluate_normalized, 0, 1,
                                     1 << 16)
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
        # a (32768 x q) basis matrix at q = 92 alone takes 24 MB; Beta(2, 3)
        # data leave the sketch uncertified, so the quadrature runs
        rng = np.random.default_rng(13)
        eng = make_engine()
        for _ in range(100):
            feed(eng, rng.beta(2, 3, 1000))
        assert eng.density.active_count == 92
        assert not eng.density.certified()
        tracemalloc.start()
        try:
            eng.density.evaluate_normalized(0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestGram:
    def test_uniform_data_close_to_identity(self):
        rng = np.random.default_rng(8)
        eng = make_engine()
        for _ in range(200):
            feed(eng, rng.uniform(0, 1, 100))
        H = eng.density.gram(UNIT, 3)
        np.testing.assert_allclose(H, np.eye(3), atol=0.08)
        np.testing.assert_allclose(H, H.T, atol=1e-12)

    def test_extended_basis_matches_quadrature_oracle(self):
        ext = BasisSpec(0.0, 1.0, extension_margin=0.1)
        flat = stub(lambda t: np.ones_like(np.asarray(t, dtype=float)))
        H = flat.gram(ext, 2)
        x, w = quadrature.rule(0.0, 1.0, 4096)
        V = eval_matrix(ext, 2, x)
        oracle = V.T @ (w[:, None] * V)
        np.testing.assert_allclose(H, oracle, atol=1e-8)

    def test_gram_needs_a_basis_count_and_an_active_slot(self):
        with pytest.raises(ValueError, match="q must be >= 1"):
            make_engine().density.gram(UNIT, 0)
        # a sketch with no active slot is not certified, so the quadrature's
        # evaluate refuses it
        sketch = make_engine().density
        assert not sketch.certified()
        with pytest.raises(StateError, match="no active slot yet"):
            sketch.gram(UNIT, 3)

    def test_gram_is_psd(self):
        rng = np.random.default_rng(9)
        eng = make_engine()
        for _ in range(20):
            feed(eng, rng.beta(0.5, 0.5, 50))
        for q in (2, 6, 11):
            H = eng.density.gram(UNIT, q)
            assert np.linalg.eigvalsh(H).min() >= -1e-8


def sketch_of(draw, seed):
    """The sketch of a 1e5-point stream drawn 1000 points at a time."""
    rng = np.random.default_rng(seed)
    eng = make_engine()
    for _ in range(100):
        feed(eng, draw(rng))
    assert eng.density.active_count == 92
    return eng.density


def quadrature_z(state, n_nodes):
    """int max(0, f_hat) over [0, 1] by the composite Gauss rule."""
    x, w = quadrature.rule(0.0, 1.0, n_nodes)
    return float(np.dot(w, np.maximum(state.evaluate(x), 0.0)))


def quadrature_gram(state, q):
    """The Gram under the clipped normalized density by quadrature."""
    p = state.active_count
    x, w = quadrature.rule(0.0, 1.0, quadrature.node_count(q, p))
    fx = np.maximum(state.evaluate(x), 0.0)
    mu, = moments(UNIT, 2 * (q // 2), x, (w * fx / float(np.dot(w, fx)),),
                  ())
    return gram_from_moments(UNIT, q, mu)


@pytest.fixture(scope="module")
def uniform_sketch():
    return sketch_of(lambda rng: rng.uniform(0, 1, 1000), 31)


@pytest.fixture(scope="module")
def beta_sketch():
    return sketch_of(lambda rng: rng.beta(2, 3, 1000), 32)


class TestCertificate:
    def test_uniform_is_certified_and_beta_is_not(self, uniform_sketch,
                                                  beta_sketch):
        assert uniform_sketch.certified() is True
        assert beta_sketch.certified() is False
        # the Beta(2, 3) sketch dips below zero near t = 1
        assert beta_sketch.evaluate(np.linspace(0, 1, 4097)).min() < 0

    def test_certified_closed_forms_match_quadrature(self, uniform_sketch):
        state = uniform_sketch
        z = float(state.theta[0])  # theta_1 sqrt(P) with P = 1
        assert z == pytest.approx(quadrature_z(state, 1 << 15), rel=1e-13)
        grid = np.linspace(0, 1, 257)
        np.testing.assert_array_equal(state.evaluate_normalized(grid),
                                      np.maximum(state.evaluate(grid), 0) / z)
        for q in (1, 2, 3, 92, 93, 200):
            H = state.gram(UNIT, q)
            np.testing.assert_array_equal(H, H.T)
            assert np.max(np.abs(H - quadrature_gram(state, q))) < 1e-13

    def test_uncertified_sketch_keeps_the_quadrature_to_the_bit(
            self, beta_sketch):
        state = beta_sketch
        p = state.active_count
        z = quadrature_z(state, max(1 << 15, 8 * p))
        grid = np.linspace(0, 1, 257)
        np.testing.assert_array_equal(state.evaluate_normalized(grid),
                                      np.maximum(state.evaluate(grid), 0) / z)
        for q in (1, 2, 3, 92, 93):
            np.testing.assert_array_equal(state.gram(UNIT, q),
                                          quadrature_gram(state, q))

    def test_certified_queries_build_no_quadrature_rule(self, monkeypatch):
        calls = []
        rule = quadrature.rule

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(quadrature, "rule", counted)
        # a fresh sketch: the module fixtures may have cached a normalizer
        state = sketch_of(lambda rng: rng.uniform(0, 1, 1000), 33)
        state.evaluate_normalized(0.3)
        state.evaluate_normalized(np.linspace(0, 1, 11))
        state.gram(UNIT, 92)
        assert calls == []
        # an extended regression basis keeps its quadrature Gram
        state.gram(BasisSpec(0.0, 1.0, extension_margin=0.1), 5)
        assert len(calls) == 1

    @settings(max_examples=150, deadline=None)
    @given(p=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
           offset=st.one_of(st.floats(-1e-11, 1e-11), st.floats(-0.5, 0.5)),
           decay=st.booleans(), aligned=st.booleans())
    # the bound's figure is positive but inside its slack, and f_hat
    # evaluates to -1e-14 at lo: without the slack this sketch is certified
    @example(p=64, seed=26, offset=3e-16, decay=False, aligned=True)
    def test_coefficient_bound_is_sound(self, p, seed, offset, decay,
                                        aligned):
        # theta_1 sits ``offset`` (relative) from the bound's threshold
        # sqrt(2) sum_{j>=2} |theta_j|; the bound's slack, 8 p eps of the
        # l1 norm, is under 1.1e-12 of it for p <= 300
        rng = np.random.default_rng(seed)
        rest = rng.normal(size=p - 1)
        if decay:
            rest /= np.arange(2, p + 1)
        if aligned:
            # negative cosines only: f_hat(lo) is the bound itself, so a
            # negative offset makes f_hat(lo) < 0
            rest[0::2] = -np.abs(rest[0::2])
            rest[1::2] = 0.0
        edge = np.sqrt(2.0) * np.abs(rest).sum()
        first = edge * (1.0 + offset) if p > 1 else offset
        state = DensityState(UNIT)
        state.theta = np.concatenate([[first], rest])
        state.active_count = p
        certified = state.certified()
        assert type(certified) is bool
        if state._nonnegative(p):  # certified today stays certified
            assert certified
        if certified:
            assert state.evaluate(np.linspace(0, 1, 1 << 16)).min() >= 0
        if offset > 1e-11:  # clear of the slack: the bound alone decides
            assert certified and state._bounded_below(p)

    def test_bound_certifies_uniform_and_both_tests_refuse_beta(
            self, uniform_sketch, beta_sketch):
        assert uniform_sketch._bounded_below(uniform_sketch.active_count)
        p = beta_sketch.active_count
        assert not beta_sketch._bounded_below(p)
        assert not beta_sketch._nonnegative(p)
        assert beta_sketch.certified() is False

    @pytest.mark.parametrize("first, certified", [(2.003072675002, False),
                                                  (2.00307267501, True)])
    def test_grid_test_keeps_its_rounding_allowance(self, first, certified):
        # f_hat = first + 2 cos(2 pi t - pi/4), which the coefficient bound
        # cannot certify: on the grid, its minimum first - 2 clears pi K / N
        # times its maximum by 1e-12, inside the slack N eps (first + 2) =
        # 3.6e-12 that covers the FFT's rounding, or by 1e-11, outside it
        state = DensityState(UNIT)
        state.theta, state.active_count = np.array([first, 1.0, 1.0]), 3
        assert not state._bounded_below(3)
        assert state.certified() is certified

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
           offset=st.floats(-0.02, 0.1))
    def test_certificate_is_sound(self, p, seed, offset):
        # random coefficients, shifted so that the minimum over a grid sits
        # at ``offset`` times the spread of the values
        rng = np.random.default_rng(seed)
        probe = DensityState(UNIT)
        probe.theta = rng.normal(size=p) / np.arange(1, p + 1)
        probe.active_count = p
        vals = probe.evaluate(np.linspace(0, 1, 4097))
        theta = probe.theta.copy()
        theta[0] += offset * (np.ptp(vals) or 1.0) - vals.min()
        state = DensityState(UNIT)
        state.theta, state.active_count = theta, p
        if not state.certified():
            return
        assert state.evaluate(np.linspace(0, 1, 1 << 16)).min() >= 0
        z = float(theta[0])
        assert abs(z - quadrature_z(state, max(1 << 15, 8 * p))) <= 1e-12 * z
        assert state.evaluate_normalized(0.5) == max(state.evaluate(0.5),
                                                     0.0) / z
