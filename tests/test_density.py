import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (UNIT, feed, make_engine, replay_ledger, sample,
                     traced_peak, update_theta_two_branch)
from streamreg import basis, quadrature, scheduler
from streamreg.basis import BasisSpec, eval_matrix, gram_from_moments, moments
from streamreg.density import DensityState, UniformDensity
from streamreg.engine import OnePassRegressor
from streamreg.errors import DegenerateDensityError, DomainError, StateError
from streamreg.scheduler import SchedulerConfig


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


class TestUpdate:
    def test_constant_slot_averages_to_one(self):
        eng = make_engine(known=False, q0=1, mem_cap=3)
        feed(eng, [0.1, 0.5, 0.9, 0.3, 0.7])
        np.testing.assert_allclose(eng.density.theta, [1.0])

    def test_running_mean_arithmetic(self):
        # theta_1 = 0.4 over 10 points, then a synthetic slot sum of 6 over
        # the next 5: (10 * 0.4 + 6) / 15
        state = DensityState(UNIT)
        state.theta = np.array([0.4])
        state.update(np.array([6.0]), np.array([15], dtype=np.int64), 5)
        np.testing.assert_allclose(state.theta, [2.0 / 3.0], rtol=1e-15)

    def test_a_slot_opening_mid_batch_keeps_the_sign_of_its_sum(
            self, monkeypatch):
        # slot 6 opens at tau = 13 inside a batch of observations 11..15:
        # its old count is 0, not 10 - 13 + 1 = -2, so its zero adds to a
        # -0.0 sum as +0.0, as the two-branch update gives.  The fold's dot
        # products start from +0.0 and give no -0.0 sum, so one is put in.
        def fold(*args):
            sums = scheduler.fold(*args)
            sums[0][5] = -0.0
            return sums

        eng = make_engine(known=False)
        feed(eng, np.linspace(0.0, 1.0, 10))
        before, n_old = eng.density.theta, eng.n
        monkeypatch.setattr("streamreg.engine.fold", fold)
        ts = np.linspace(0.1, 0.9, 5)
        feed(eng, ts)
        assert eng.start.tolist() == [1, 1, 1, 1, 1, 13]
        sums = fold(UNIT, ts, (None,), eng.start, n_old)[0]
        want = update_theta_two_branch(before, eng.start, sums, n_old, eng.n)
        assert eng.density.theta.tobytes() == want.tobytes()
        assert str(eng.density.theta[5]) == "0.0"

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
        eng = make_engine(known=False,
                          spec=BasisSpec(0.0, 1.0, extension_margin=margin),
                          mem_cap=mem_cap)
        sketch, update, calls = eng.density, eng.density.update, []

        def recorded(sums, counts, m):
            calls.append((sketch.theta, sums))
            update(sums, counts, m)

        sketch.update = recorded
        for size in sizes:
            n_old = eng.n
            ts = rng.uniform(0.0, 1.0, size)
            eng.ingest(ts, np.sin(5 * ts) + rng.normal(0.0, 0.3, size))
            (before, sums), = calls
            calls.clear()
            # the oracle takes the engine's start vector, not its counts
            want = update_theta_two_branch(before, eng.start, sums, n_old,
                                           eng.n)
            assert sketch.theta.dtype == want.dtype
            assert sketch.theta.tobytes() == want.tobytes()

    def test_replay_oracle_mixed_batches(self):
        rng = np.random.default_rng(3)
        eng = make_engine(known=False)
        stream = []
        for _ in range(60):
            batch = rng.uniform(0, 1, rng.integers(1, 40))
            stream.append(batch)
            feed(eng, batch)
        ts = np.concatenate(stream)
        expected = replay_ledger(UNIT, SchedulerConfig(), ts,
                                 np.zeros(ts.size))[2]
        np.testing.assert_allclose(eng.density.theta, expected, rtol=1e-10,
                                   atol=1e-12)

    def test_out_of_domain_batch_rejected_atomically(self):
        eng = make_engine(known=False)
        feed(eng, [0.2, 0.4])
        before = (eng.n, eng.density.theta.copy())
        with pytest.raises(DomainError):
            feed(eng, [0.5, 1.5])
        assert eng.n == before[0]
        np.testing.assert_array_equal(eng.density.theta, before[1])

    def test_slot_count_stays_bounded(self):
        rng = np.random.default_rng(4)
        eng = make_engine(known=False)
        for _ in range(200):
            feed(eng, rng.uniform(0, 1, 50))
        p = eng.schedule.active_count(eng.n)
        assert eng.density.active_count == p
        assert eng.density.theta.size <= 4 * p
        assert eng.density.theta.size == eng.start.size


class TestUniformDensity:
    """The known-uniform design answers the sketch's queries in closed form
    and holds nothing."""

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    def test_answers_in_closed_form(self, margin):
        spec = BasisSpec(-1.0, 3.0, extension_margin=margin)
        design = make_engine(known=True, spec=spec).density
        assert isinstance(design, UniformDensity)
        assert (design.basis, design.active_count, design.certified()) \
            == (None, None, None)
        assert design.theta.size == 0
        assert design.bounds() == (0.25, 0.25)
        assert design.gram(spec, 7).tobytes() \
            == basis.gram_uniform(spec, 7).tobytes()
        value = design.evaluate_normalized(0.5)
        assert type(value) is float and value == 0.25
        grid = np.array([[-1.0, 0.0], [2.0, 3.0]])
        np.testing.assert_array_equal(design.evaluate_normalized(grid),
                                      np.full((2, 2), 0.25))
        for t in (3.5, np.nan, [0.0, -2.0]):
            with pytest.raises(DomainError):
                design.evaluate_normalized(t)

    def test_a_known_ingest_folds_only_the_responses(self, monkeypatch):
        # the engine asks the design for a basis of unit-weight sums, and a
        # known density has none, so every fold weights the y alone
        calls = []

        def counted(spec, K, ts, weights, tails):
            calls.append(len(weights))
            return basis.moments(spec, K, ts, weights, tails)

        monkeypatch.setattr("streamreg.scheduler.moments", counted)
        eng = make_engine(known=True)
        feed(eng, *sample(500, 40, np.sin), batch=70)
        assert calls == [1] * 8


class TestEvaluate:
    def test_uniform_single_slot(self):
        eng = make_engine(known=False, q0=1, mem_cap=3)
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
            make_engine(known=False).density.evaluate(0.5)

    def test_uniform_density_sup_error(self):
        rng = np.random.default_rng(11)
        eng = make_engine(known=False, q0=9, mem_cap=27)
        for _ in range(100):
            feed(eng, rng.uniform(0, 1, 100))
        grid = np.linspace(0, 1, 501)
        assert np.max(np.abs(eng.density.evaluate(grid) - 1.0)) < 0.15


class TestNormalized:
    def test_already_a_density(self):
        eng = make_engine(known=False, q0=1, mem_cap=3)
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
        eng = make_engine(known=False)
        for _ in range(30):
            feed(eng, rng.beta(2, 3, 100))
        total = quadrature.integrate(eng.density.evaluate_normalized, 0, 1,
                                     1 << 16)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_cached_normalizer_follows_every_ingest(self):
        # the live engine reuses its normalizer between ingests; a reloaded
        # copy computes it afresh
        rng = np.random.default_rng(12)
        eng = make_engine(known=False)
        grid = np.array([0.0, 0.3, 0.77, 1.0])
        # 1-point batches, and batches that open slots strictly inside them
        for size in [1] * 8 + [500, 1, 2000, 1, 7000]:
            eng.ingest(rng.beta(2, 3, size), rng.normal(size=size))
            copy = OnePassRegressor.from_checkpoint(eng.checkpoint_json())
            live, loaded = eng.density, copy.density
            for _ in range(2):
                np.testing.assert_array_equal(live.evaluate_normalized(grid),
                                              loaded.evaluate_normalized(grid))
                assert live.evaluate_normalized(0.3) \
                    == loaded.evaluate_normalized(0.3)

    def test_normalizer_builds_no_basis_matrix(self):
        # a (32768 x q) basis matrix at q = 92 alone takes 24 MB; Beta(2, 3)
        # data leave the sketch uncertified, so the quadrature runs
        rng = np.random.default_rng(13)
        eng = make_engine(known=False)
        for _ in range(100):
            feed(eng, rng.beta(2, 3, 1000), batch=1000)
        assert eng.density.active_count == 92
        assert not eng.density.certified()
        peak = traced_peak(eng.density.evaluate_normalized, 0.5)
        assert peak < 8 * 2 ** 20


class TestGram:
    def test_uniform_data_close_to_identity(self):
        rng = np.random.default_rng(8)
        eng = make_engine(known=False)
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
            make_engine(known=False).density.gram(UNIT, 0)
        # a sketch with no active slot is not certified, so the quadrature's
        # evaluate refuses it
        sketch = make_engine(known=False).density
        assert not sketch.certified()
        with pytest.raises(StateError, match="no active slot yet"):
            sketch.gram(UNIT, 3)

    def test_gram_is_psd(self):
        rng = np.random.default_rng(9)
        eng = make_engine(known=False)
        for _ in range(20):
            feed(eng, rng.beta(0.5, 0.5, 50))
        for q in (2, 6, 11):
            H = eng.density.gram(UNIT, q)
            assert np.linalg.eigvalsh(H).min() >= -1e-8


def sketch_of(draw, seed):
    """The sketch of a 1e5-point stream drawn 1000 points at a time."""
    rng = np.random.default_rng(seed)
    eng = make_engine(known=False)
    for _ in range(100):
        feed(eng, draw(rng), batch=1000)
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
