import math
import resource

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (ROUGH, UNIT, eval_basis, eval_matrix_trig, eval_vector,
                     penalty_as_matrix, projection_residual,
                     roughness_penalty_dense, roughness_penalty_diagonal,
                     run_fresh, sup_sum_squares, weighted_gram)
from streamreg import basis
from streamreg.basis import (BasisSpec, PenaltySpec, eval_matrix,
                             gram_from_moments, gram_uniform,
                             identifiable_count, moments, penalty_matrix,
                             series)
from streamreg.errors import DomainError
from streamreg import quadrature

EXTENDED = BasisSpec(0.0, 1.0, extension_margin=0.1)


class TestEval:
    def test_constant_function(self):
        assert eval_basis(UNIT, 1, 0.73) == pytest.approx(1.0)

    def test_cosine_zero(self):
        assert eval_basis(UNIT, 2, 0.25) == pytest.approx(0.0, abs=1e-12)

    def test_extended_period_formula(self):
        # P = 1.2, offset -0.1: phi_2(0) = sqrt(2/1.2) cos(2*pi*0.1/1.2)
        expected = np.sqrt(2 / 1.2) * np.cos(2 * np.pi * 0.1 / 1.2)
        assert eval_basis(EXTENDED, 2, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_vector_trivial(self):
        np.testing.assert_allclose(eval_vector(UNIT, 1, 0.5), [1.0])
        np.testing.assert_allclose(eval_vector(UNIT, 3, 0.0),
                                   [1.0, np.sqrt(2), 0.0], atol=1e-12)

    def test_vector_quarter_period(self):
        np.testing.assert_allclose(
            eval_vector(UNIT, 5, 0.25),
            [1.0, 0.0, np.sqrt(2), -np.sqrt(2), 0.0], atol=1e-12)

    def test_vector_matches_single_eval(self):
        rng = np.random.default_rng(7)
        for t in rng.uniform(0, 1, 5):
            v = eval_vector(EXTENDED, 9, t)
            for j in range(1, 10):
                assert v[j - 1] == pytest.approx(eval_basis(EXTENDED, j, t))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_basis(UNIT, 0, 0.5)
        with pytest.raises(DomainError):
            eval_basis(UNIT, 2, 1.5)


class TestEvalMatrix:
    """The recurrence in ``eval_matrix`` against one cos/sin per column."""

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 3.0), (0.25, 0.5)])
    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("q", [1, 2, 3, 92, 93, 901, 1801])
    def test_matches_trig_oracle(self, lo, hi, margin, q):
        spec = BasisSpec(lo, hi, extension_margin=margin)
        t = np.concatenate([[lo, hi],
                            np.random.default_rng(q).uniform(lo, hi, 300)])
        got = eval_matrix(spec, q, t)
        oracle = eval_matrix_trig(spec, q, t)
        assert got.shape == oracle.shape == (t.size, q)
        # the error of z^k grows with the frequency k of the column; at most
        # 4e-15 * max(1, q // 2) * sqrt(2/P) over the whole matrix
        k = np.maximum(np.arange(1, q + 1) // 2, 1)
        assert np.all(np.abs(got - oracle)
                      <= 4e-15 * k * np.sqrt(2.0 / spec.period))

    @pytest.mark.parametrize("spec", [UNIT, EXTENDED, BasisSpec(-1.0, 3.0)])
    @pytest.mark.parametrize("q", [1, 2, 92, 93, 901])
    def test_rows_do_not_depend_on_the_batch(self, spec, q):
        t = np.concatenate([[spec.lo, spec.hi],
                            np.random.default_rng(q).uniform(spec.lo, spec.hi,
                                                             200)])
        batch = eval_matrix(spec, q, t)
        alone = np.vstack([eval_matrix(spec, q, x) for x in t])
        assert batch.tobytes() == alone.tobytes()


class TestOrthonormality:
    @pytest.mark.parametrize("q", [1, 4, 9, 16])
    def test_gram_is_identity_without_extension(self, q):
        x, w = quadrature.rule(0.0, 1.0, 2048)
        V = eval_matrix(UNIT, q, x)
        G = V.T @ (w[:, None] * V)
        np.testing.assert_allclose(G, np.eye(q), atol=1e-8)

    def test_gram_identity_on_shifted_domain(self):
        spec = BasisSpec(-2.0, 3.0)
        x, w = quadrature.rule(-2.0, 3.0, 2048)
        V = eval_matrix(spec, 7, x)
        np.testing.assert_allclose(V.T @ (w[:, None] * V), np.eye(7), atol=1e-8)


class TestPenaltyMatrix:
    def test_identity_kind(self):
        # at margin 0 the penalty is its diagonal
        np.testing.assert_array_equal(
            penalty_as_matrix(penalty_matrix(UNIT, PenaltySpec("identity"),
                                             3)), np.eye(3))

    def test_roughness_closed_form(self):
        W = penalty_as_matrix(penalty_matrix(UNIT, ROUGH, 3))
        np.testing.assert_allclose(
            W, np.diag([0.0, (2 * np.pi) ** 4, (2 * np.pi) ** 4]), rtol=1e-12)

    def test_roughness_extended_matches_quadrature_oracle(self):
        q = 3
        W = penalty_matrix(EXTENDED, ROUGH, q)
        # independent oracle: 2048-node composite rule applied entrywise
        x, w = quadrature.rule(0.0, 1.0, 2048)
        P = EXTENDED.period
        oracle = np.empty((q, q))
        for j in range(1, q + 1):
            for l in range(1, q + 1):
                kj, kl = j // 2, l // 2
                fj = eval_matrix(EXTENDED, j, x)[:, j - 1] * (2 * kj * np.pi / P) ** 2
                fl = eval_matrix(EXTENDED, l, x)[:, l - 1] * (2 * kl * np.pi / P) ** 2
                oracle[j - 1, l - 1] = np.dot(w, fj * fl)
        np.testing.assert_allclose(W, oracle, atol=1e-8)

    @pytest.mark.parametrize("spec", [UNIT, BasisSpec(-2.5, 7.3),
                                      BasisSpec(0.0, 0.3), EXTENDED])
    def test_roughness_matches_the_dense_product_to_the_bit(self, spec):
        # at margin 0 the dense product has the diagonal formula's bits,
        # signed zeros too
        margin_zero = spec.extension_margin == 0
        for q in range(1, 301) if margin_zero else (1, 92):
            W = penalty_matrix(spec, ROUGH, q)
            want = roughness_penalty_dense(spec, q)
            assert np.array_equal(penalty_as_matrix(W), want)
            assert penalty_as_matrix(W).tobytes() == want.tobytes()
            if margin_zero:
                assert W.tobytes() == \
                    roughness_penalty_diagonal(spec, q).tobytes()

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("kind", ["identity", "roughness"])
    def test_memo_equals_a_fresh_build_and_is_read_only(self, margin, kind):
        spec, pen = BasisSpec(0.0, 1.0, margin), PenaltySpec(kind)
        for q in (1, 2, 7, 92, 93):
            W = penalty_matrix(spec, pen, q)
            assert penalty_matrix(spec, pen, q) is W
            fresh = penalty_matrix.__wrapped__(spec, pen, q)
            assert W.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                W[0, 0] = 1.0
            with pytest.raises(ValueError):
                W += 0.0

    def test_memo_holds_at_most_sixteen(self):
        assert penalty_matrix.cache_info().maxsize == 16
        for q in range(1, 40):
            for spec in (UNIT, EXTENDED):
                penalty_matrix(spec, ROUGH, q)
                assert penalty_matrix.cache_info().currsize <= 16

    # The keys one round of the benchmark's Monte Carlo workload asks for,
    # in order: cross-validation at the five default h, the uncapped and
    # capped streams at their two checkpoints, then the lower-bound protocol
    # uncapped and at cap 5.
    ROUND_KEYS = [*(("roughness", q) for q in (7, 11, 20, 31, 63, 79, 200,
                                              10, 10)),
                  *(("identity", q) for q in (92, 92, 1, 1))]

    def test_memo_holds_a_monte_carlo_round(self):
        penalty_matrix.cache_clear()
        for _ in range(2):
            misses = penalty_matrix.cache_info().misses
            for kind, q in self.ROUND_KEYS:
                penalty_matrix(UNIT, PenaltySpec(kind), q)
        # the second pass rebuilds no W
        assert penalty_matrix.cache_info().misses == misses

    @pytest.mark.parametrize("spec", [UNIT, EXTENDED])
    @pytest.mark.parametrize("kind", ["identity", "roughness"])
    def test_symmetric_psd_with_bounded_spectrum(self, spec, kind):
        pen = PenaltySpec(kind)
        for q in (1, 5, 12):
            W = penalty_as_matrix(penalty_matrix(spec, pen, q))
            assert np.max(np.abs(W - W.T)) <= 1e-12
            eigs = np.linalg.eigvalsh(W)
            assert eigs.min() >= -1e-8
            # lambda_max(W) <= C q^zeta with a generous constant
            scale = (2 * np.pi / spec.period) ** 4 if kind == "roughness" else 1.0
            assert eigs.max() <= 2.0 * scale * q ** pen.zeta + 1e-9


class TestSupSumSquares:
    def test_single_function(self):
        assert sup_sum_squares(UNIT, 1) == pytest.approx(1.0)

    def test_trig_identity_q3(self):
        assert sup_sum_squares(UNIT, 3) == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_trig_identity_any_odd_q(self, k):
        q = 2 * k + 1
        assert sup_sum_squares(UNIT, q) == pytest.approx(q, abs=1e-6)

    def test_linear_growth_bound(self):
        # (C, alpha)-bound with C = 1, alpha = 1 for the periodic family
        for q in (3, 7, 15, 31):
            assert sup_sum_squares(UNIT, q) <= q + 1e-6


class TestProjectionResidual:
    def test_member_of_span(self):
        target = lambda t: eval_matrix(UNIT, 3, t)[:, 2]
        assert projection_residual(target, UNIT, 5, "L2") <= 1e-10

    def test_zero_function(self):
        assert projection_residual(lambda t: np.zeros_like(t), UNIT, 4, "L2") <= 1e-12

    def test_monotone_in_q(self):
        target = lambda t: np.exp(np.sin(2 * np.pi * t))
        values = [projection_residual(target, UNIT, q, "L2")
                  for q in (1, 3, 5, 9, 15)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-8

    def test_m3_matches_tail_sum_oracle(self):
        from streamreg.harness import M3_TERMS, m3
        q = 9
        # oracle: the L2 residual of the truncated series is the root of the
        # squared-coefficient tail in the orthonormal family; the unnormalized
        # harmonic of index j carries weight j^-1.5 and norm 1/sqrt(2).
        j = np.arange(q + 1, M3_TERMS + 1)
        oracle = np.sqrt(np.sum(j ** -3.0) / 2.0)
        # node count sized for the highest retained frequency of the series
        value = projection_residual(m3, UNIT, q, "L2", n_nodes=1 << 17)
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_sup_norm_mode(self):
        target = lambda t: eval_matrix(UNIT, 2, t)[:, 1]
        assert projection_residual(target, UNIT, 5, "sup") <= 1e-8


class TestGramUniform:
    def test_identity_when_periodic(self):
        np.testing.assert_array_equal(gram_uniform(UNIT, 4), np.eye(4))

    def test_extended_matches_quadrature(self):
        H = gram_uniform(EXTENDED, 3)
        x, w = quadrature.rule(0.0, 1.0, 4096)
        V = eval_matrix(EXTENDED, 3, x)
        oracle = V.T @ (w[:, None] * V)
        np.testing.assert_allclose(H, oracle, atol=1e-8)
        assert np.linalg.eigvalsh(H).min() >= -1e-8


DOMAINS = [(0.0, 1.0), (-1.0, 3.0), (0.25, 0.5)]
GRAM_QS = [1, 2, 3, 92, 93, 301, 600]


def weighted_nodes(lo, hi, q, seed):
    """The Gram quadrature's nodes on [lo, hi] with random positive weights."""
    x, w = quadrature.rule(lo, hi, quadrature.node_count(q, 0))
    return x, w * np.random.default_rng(seed).uniform(0.0, 2.0, w.size)


class TestIdentifiableCount:
    @pytest.mark.parametrize("lo, hi, margin", [
        (0.0, 1.0, 0.1), (0.0, 100.0, 10.0), (0.0, 0.01, 0.001),
        (-5.0, 5.0, 1.0)])
    def test_a_margin_of_a_tenth_gives_39_in_any_units(self, lo, hi, margin):
        assert identifiable_count(BasisSpec(lo, hi, margin)) == 39

    @pytest.mark.parametrize("lo, hi, margin", [
        (0.0, 1.0, 0.1), (0.0, 1.0, 0.3), (-1.0, 3.0, 0.3), (0.0, 1.0, 0.05),
        (0.0, 1.0, 1.0), (0.0, 1.0, 10.0), (0.0, 100.0, 2.0)])
    def test_count_is_the_last_q_above_the_floor(self, lo, hi, margin):
        spec = BasisSpec(lo, hi, margin)
        q = identifiable_count(spec)

        def least(q):
            return np.linalg.eigvalsh(gram_uniform(spec, q)).min() * (hi - lo)

        assert least(q) >= basis.GRAM_EIG_FLOOR > least(q + 1)

    def test_margin_zero_has_no_count(self):
        assert identifiable_count(UNIT) == basis.NEVER
        assert identifiable_count(BasisSpec(-3.0, 1e6)) == basis.NEVER

    def test_count_is_computed_once_per_spec(self, monkeypatch):
        spec = BasisSpec(0.0, 2.0, 0.4)
        count = identifiable_count(spec)

        def gram(*args):
            raise AssertionError("a Gram was built")

        monkeypatch.setattr(basis, "gram_uniform", gram)
        assert identifiable_count(spec) == count

    def test_search_stops_at_its_limit(self, monkeypatch):
        # a margin of 1% of the domain has 349 identifiable functions
        spec = BasisSpec(0.0, 1.0, 0.01)
        basis._extended_count.cache_clear()
        monkeypatch.setattr(basis, "MAX_IDENTIFIABLE", 128)
        try:
            assert identifiable_count(spec) == 128
            assert identifiable_count(EXTENDED) == 39
        finally:
            basis._extended_count.cache_clear()
        monkeypatch.undo()
        assert identifiable_count(spec) == 349


class TestMoments:
    @pytest.mark.parametrize("M", [0, 1, 2, 3, 8, 9, 184, 600])
    def test_matches_direct_sum(self, M):
        # M + 1 = 1, 4 and 9 fill the r x r table exactly; the others do not
        spec = BasisSpec(-1.0, 3.0, extension_margin=0.3)
        x, w = weighted_nodes(-1.0, 3.0, 92, M)
        m = np.arange(M + 1)
        direct = np.exp((2j * np.pi / spec.period)
                        * np.outer(m, x - spec.origin)) @ w
        unit, got = moments(spec, M, x, (None, w), ())
        assert got.shape == (M + 1,)
        assert np.max(np.abs(got - direct)) <= 1e-15 * (M + 1) * w.sum()
        assert unit.tobytes() == moments(spec, M, x, (np.ones(x.size),),
                                         ())[0].tobytes()
        # an array weight writes into the tables, so it must come last
        with pytest.raises(ValueError, match="last"):
            moments(spec, M, x, (w, None), ())

    @pytest.mark.parametrize("q", [3, 92, 301])
    def test_node_order_does_not_matter(self, q):
        x, w = weighted_nodes(0.0, 1.0, q, q)
        mu, = moments(EXTENDED, 2 * (q // 2), x, (w,), ())
        H = gram_from_moments(EXTENDED, q, mu)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(x.size)
            mu, = moments(EXTENDED, 2 * (q // 2), x[order], (w[order],), ())
            Hp = gram_from_moments(EXTENDED, q, mu)
            assert np.max(np.abs(Hp - H)) <= 1e-15 * np.max(np.abs(H))


    def test_k_zero_forms_no_power_of_z(self):
        # at K = 0 the tables are the row of ones alone: z's row is left as
        # it was, so the call takes no complex exp, and the moments are
        # the weights' sums as a dot product with that row
        m = 1000
        t = np.random.default_rng(4).uniform(0.0, 1.0, m)
        w = np.cos(3 * t)
        buf = np.full(basis._table_shape(0)[1] * m, 7.0 + 7.0j)
        low, high, r = basis._tables(UNIT, 0, t, buf)
        assert (low.shape, high, r) == ((1, m), None, 1)
        assert np.all(low == 1.0) and np.all(buf[m:] == 7.0 + 7.0j)
        unit, got = moments(UNIT, 0, t, (None, w), [(0, 0), (0, 600)])
        assert unit.tolist() == [m, m, m - 600]
        mu0 = (low @ w)[0]
        assert got.tobytes() == np.array(
            [mu0, np.dot(low[0], w), np.dot(low[0, 600:], w[600:])]).tobytes()

    @pytest.mark.parametrize("K", [0, 5, 40])
    def test_chunks_are_summed_in_chunk_order(self, K, monkeypatch):
        # chunks of 7 points over 40: tails that open in the first chunk,
        # on a chunk's first and last point, in the last chunk, at the end
        # and past it; each chunk reads a tail from max(lo, its start)
        m, chunk = 40, 7
        rng = np.random.default_rng(K)
        t, w = rng.uniform(0.0, 1.0, m), rng.normal(0.0, 1.0, m)
        tails = [(k, lo) for k in {0, min(1, K), K}
                 for lo in (3, 7, 13, 36, 40, 45)]
        want = None
        for s in range(0, m, chunk):
            part = moments(EXTENDED, K, t[s:s + chunk], (None, w[s:s + chunk]),
                           [(k, max(lo - s, 0)) for k, lo in tails])
            if want is None:
                want = part
            else:
                for mu, more in zip(want, part):
                    mu += more
        rows = basis._table_shape(K)[1]
        monkeypatch.setattr(basis, "SPARE_BYTES", 16 * rows * chunk)
        assert basis.chunk_points(K) == chunk
        got = moments(EXTENDED, K, t, (None, w), tails)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", [UNIT, EXTENDED])
    def test_chunks_stay_within_the_fold_rounding(self, spec, monkeypatch):
        # engine.normal_equations' moments at n = 1e5, q = 92 (its 32 MiB
        # of tables are folded in chunks) against one chunk, with tails
        # from several chunks: a moment summed in chunks c_1, c_2, ... is
        # within fold_rounding(chunk sizes, 2K, 1) of its exact value,
        # relative to sum |w_i| over its points, and the one-chunk moment
        # within fold_rounding([n], 2K, 0)
        n, K = 100_000, 92
        rng = np.random.default_rng(9)
        t = rng.uniform(0.0, 1.0, n)
        y = np.sin(5 * t) + rng.normal(0.0, 0.3, n)
        tails = [(k, lo) for k in (0, 1, 17, K) for lo in (5, 30_011, 99_999)]
        chunked = moments(spec, K, t, (None, y), tails)
        step = basis.chunk_points(K)
        assert step < n
        monkeypatch.setattr(basis, "SPARE_BYTES", 1 << 30)
        whole = moments(spec, K, t, (None, y), tails)
        sizes = [min(step, n - s) for s in range(0, n, step)]
        gamma = (oracles.fold_rounding(sizes, 2 * K, 1)
                 + oracles.fold_rounding([n], 2 * K, 0))
        for w, a, b in zip((np.ones(n), y), chunked, whole):
            abs_w = np.abs(w)
            scale = np.array([math.fsum(abs_w)] * (K + 1)
                             + [math.fsum(abs_w[lo:]) for _, lo in tails])
            assert np.all(np.abs(a.real - b.real) <= gamma * scale)
            assert np.all(np.abs(a.imag - b.imag) <= gamma * scale)
            assert a.tobytes() != b.tobytes()

    def test_a_call_holds_two_rows_for_its_tails(self):
        # The tail moments of both weights take two rows of the points,
        # however many tails there are: 60 tails hold less than one row
        # more than 1 tail
        m, K = 2000, 40
        t = np.random.default_rng(3).uniform(0.0, 1.0, m)
        y = np.sin(5 * t)
        moments(UNIT, K, t, (None, y), ())  # the spare takes the tables

        def peak(count):
            tails = [(1 + j % K, 7 * j) for j in range(count)]
            return oracles.traced_peak(moments, UNIT, K, t, (None, y), tails)

        none, one, many = peak(0), peak(1), peak(60)
        assert one <= none + 2 * 16 * m + 2 * 16
        assert many < one + 16 * m

    def test_a_call_faults_in_the_same_pages_at_any_number_of_tails(self):
        # With glibc's mmap threshold fixed at 128 KiB, as the benchmark
        # fixes it, each row of 16 384 points is a mapping of its own whose
        # pages fault in when written.  Rows taken per tail made the faults
        # grow by about 256 a tail (293 at 1 tail, 10 265 at 40); rows
        # taken per call fault in the same pages at 1 tail and at 40
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from streamreg.basis import BasisSpec, moments\n"
            "m, K = 16_384, 40\n"
            "t = np.random.default_rng(5).uniform(0.0, 1.0, m)\n"
            "y = np.sin(5 * t)\n"
            "def faults(count):\n"
            "    tails = [(1 + j % K, 7 * j) for j in range(count)]\n"
            "    moments(BasisSpec(0.0, 1.0), K, t, (None, y), tails)\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    moments(BasisSpec(0.0, 1.0), K, t, (None, y), tails)\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    return after - before\n"
            "print(faults(1), faults(40))\n")
        out = run_fresh(code, MALLOC_MMAP_THRESHOLD_="131072",
                        MALLOC_TRIM_THRESHOLD_="67108864")
        one, many = map(int, out.split())
        row_pages = 16 * 16_384 // resource.getpagesize()
        assert many < one + row_pages


class TestGramFromMoments:
    @pytest.mark.parametrize("lo, hi", DOMAINS)
    @pytest.mark.parametrize("margin", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("q", GRAM_QS)
    def test_matches_dense_oracle(self, lo, hi, margin, q):
        spec = BasisSpec(lo, hi, extension_margin=margin)
        x, w = weighted_nodes(lo, hi, q, q)
        mu, = moments(spec, 2 * (q // 2), x, (w,), ())
        H = gram_from_moments(spec, q, mu)
        oracle = weighted_gram(spec, q, x, w)
        assert H.shape == (q, q)
        np.testing.assert_array_equal(H, H.T)
        assert np.max(np.abs(H - oracle)) <= 4e-15 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("spec", [UNIT, BasisSpec(-2.0, 3.5),
                                      EXTENDED, BasisSpec(-2.0, 3.5, 0.1)])
    def test_gathers_have_the_complex_assembly_bits(self, spec):
        # random complex moments, mu_0 included and some exactly zero, so
        # signed zeros and a non-real mu_0 are covered too
        rng = np.random.default_rng(2101)
        for q in range(1, 131):
            mu = rng.normal(size=2 * (q // 2) + 1) \
                + 1j * rng.normal(size=2 * (q // 2) + 1)
            mu[rng.random(mu.size) < 0.2] *= 0.0
            H = gram_from_moments(spec, q, mu)
            oracle = oracles.gram_from_moments(spec, q, mu)
            assert H.shape == oracle.shape == (q, q)
            assert H.flags.c_contiguous
            assert H.tobytes() == oracle.tobytes(), q

    @pytest.mark.parametrize("lo, hi", DOMAINS)
    @pytest.mark.parametrize("margin", [0.1, 0.3])
    @pytest.mark.parametrize("q", GRAM_QS)
    def test_uniform_closed_form_matches_fine_quadrature(self, lo, hi,
                                                         margin, q):
        # the oracle is a composite Gauss rule with 4x the Gram's nodes; its
        # own error grows with q and with a short domain, so the bound is
        # 1e-13 of max |H| rather than a few ulps
        spec = BasisSpec(lo, hi, extension_margin=margin)
        x, w = quadrature.rule(lo, hi, 4 * quadrature.node_count(q, 0))
        oracle = weighted_gram(spec, q, x, w / (hi - lo))
        H = gram_uniform(spec, q)
        np.testing.assert_array_equal(H, H.T)
        assert np.max(np.abs(H - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("spec", [UNIT, EXTENDED, BasisSpec(-1.0, 3.0, 0.3)])
    def test_penalty_is_symmetric_to_the_bit(self, spec):
        for q in (1, 2, 7, 92, 93):
            W = penalty_matrix(spec, ROUGH, q)
            np.testing.assert_array_equal(W, W.T)


class TestSeries:
    """``series`` against the basis-matrix product it replaces."""

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 3.0)])
    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("q", [1, 2, 3, 92, 93, 901])
    def test_array_matches_matrix_oracle(self, lo, hi, margin, q):
        spec = BasisSpec(lo, hi, extension_margin=margin)
        rng = np.random.default_rng(q)
        coef = rng.normal(size=q) / np.arange(1, q + 1)
        t = np.concatenate([[lo, hi], rng.uniform(lo, hi, 500)])
        oracle = eval_matrix(spec, q, t) @ coef
        got = series(spec, coef, t)
        assert got.shape == t.shape
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @staticmethod
    def horner_gap(spec, coef, t):
        """The scalar series' distance from the basis-vector product, and
        its bound.  Horner's rule and the product each round within about
        2 q u sqrt(2/P) ||coef||_1 (the complex products and the powers
        z^k); the bound, 8 q u, covers both."""
        got = series(spec, coef, t)
        assert type(got) is float
        want = (eval_matrix(spec, coef.size, t) @ coef)[0]
        u = np.finfo(float).eps / 2
        return abs(got - want), (8 * coef.size * u * np.sqrt(2.0 / spec.period)
                                 * np.abs(coef).sum())

    @pytest.mark.parametrize("spec", [UNIT, EXTENDED])
    @pytest.mark.parametrize("q", [1, 2, 92, 93])
    def test_scalar_within_the_horner_bound(self, spec, q):
        coef = np.random.default_rng(q).normal(size=q)
        for t in (0.0, 0.3, 1.0):
            gap, bound = self.horner_gap(spec, coef, t)
            assert gap <= bound

    @settings(max_examples=300, deadline=None)
    @given(q=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
           domain=st.sampled_from([(0.0, 1.0), (-1.0, 3.0), (2.5, 2.75)]),
           margin=st.sampled_from([0.0, 0.1]),
           where=st.one_of(st.sampled_from(["lo", "hi"]),
                           st.floats(0.0, 1.0)))
    def test_scalar_horner_bound_property(self, q, seed, domain, margin,
                                          where):
        lo, hi = domain
        spec = BasisSpec(lo, hi, extension_margin=margin)
        t = {"lo": lo, "hi": hi}.get(where)
        if t is None:
            t = min(lo + where * (hi - lo), hi)
        coef = np.random.default_rng(seed).normal(size=q)
        gap, bound = self.horner_gap(spec, coef, t)
        assert gap <= bound

    @pytest.mark.parametrize("spec", [UNIT, EXTENDED])
    def test_scalar_matches_the_array_branch(self, spec):
        coef = np.random.default_rng(5).normal(size=93)
        t = np.array([0.0, 0.3, 1.0])
        scalars = [series(spec, coef, x) for x in t]
        np.testing.assert_allclose(scalars, series(spec, coef, t),
                                   rtol=0, atol=1e-13)
        assert series(spec, coef, np.float64(0.3)) == scalars[1]
        assert series(spec, coef, np.array(0.3)) == scalars[1]

    @pytest.mark.parametrize("t", [float("nan"), -0.1, 1.5, float("inf"),
                                   -float("inf"), np.float64("nan")])
    def test_scalar_outside_the_domain_rejected(self, t):
        with pytest.raises(DomainError):
            series(UNIT, np.ones(5), t)

    def test_out_of_domain_rejected(self):
        coef = np.ones(5)
        for t in ([0.5, 1.5], [-0.1], np.array([[0.2], [2.0]])):
            with pytest.raises(DomainError):
                series(UNIT, coef, t)
        with pytest.raises(DomainError):
            series(UNIT, np.zeros(0), [0.5])
