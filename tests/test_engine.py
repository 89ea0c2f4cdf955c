import copy
import functools
import itertools
import json
import math
import re
import resource
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg

from streamreg import basis, service
from streamreg.basis import (SPARE_BYTES, BasisSpec, PenaltySpec,
                             eval_matrix, penalty_matrix)
from oracles import (ROUGH, UNIT, feed, make_engine,
                     normal_equations_out_of_place, partition_tolerance,
                     penalty_as_matrix, replay_ledger, run_fresh, sample,
                     traced_peak, weighted_gram, within)
from streamreg.density import DensityState
from streamreg.engine import (RCOND_FLOOR, OnePassRegressor, SCALAR_UNITS,
                              _kappa_bound, batch_fit,
                              normal_equations, penalized_solve)
from streamreg.errors import (CheckpointError, DomainError,
                              IllConditionedSystemError)
from streamreg.scheduler import SchedulerConfig, slot_counts
from streamreg.service import (MAX_LINE_BYTES, ServiceConfig, StreamRegistry,
                               decode_request, handle_request)
from streamreg.tuning import TuningGrid, cv_table

def table_bytes(q, m, count):
    """Bytes of the buffer ``basis.moments`` takes for the power tables of
    phi_1..phi_q at m points and ``count`` weights: m times their bytes at
    one point."""
    return m * 16 * basis._table_shape(q // 2, count)[1]


class TestIngest:
    @pytest.mark.parametrize("known", [False, True])
    def test_a_sketched_ingest_takes_its_slot_counts_once(self, monkeypatch,
                                                          known):
        # the engine hands the sketch each batch's counts, so the sketch
        # derives none; a known-uniform engine takes none while ingesting
        calls = []

        def counted(start, n):
            calls.append(n)
            return slot_counts(start, n)

        monkeypatch.setattr("streamreg.engine.slot_counts", counted)
        eng = make_engine(known=known)
        sizes = [7, 60, 400, 1]
        ts, ys = sample(sum(sizes), 3, np.cos)
        for part in np.split(np.arange(ts.size), np.cumsum(sizes)[:-1]):
            eng.ingest(ts[part], ys[part])
        assert calls == ([] if known else np.cumsum(sizes).tolist())

    def test_replay_oracle(self):
        """The slot sums must match a from-scratch pass over the full stream."""
        ts, ys = sample(3000, 0, lambda t: np.sin(7 * t) + t)
        ys += np.random.default_rng(1).normal(0, 0.3, ts.size)
        eng = make_engine(known=True)
        feed(eng, ts, ys, batch=37)
        expected = replay_ledger(UNIT, SchedulerConfig(), ts, ys)[1]
        np.testing.assert_allclose(eng.G, expected, rtol=1e-10, atol=1e-12)

    def test_batch_split_invariance(self):
        """Regrouping the stream into different batches leaves G unchanged."""
        ts, ys = sample(2000, 2, lambda t: t ** 2)
        a = make_engine(known=True)
        b = make_engine(known=True)
        feed(a, ts, ys, batch=100)
        feed(b, ts, ys, batch=17)
        np.testing.assert_allclose(a.G, b.G, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(a.start, b.start)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("sketch", [False, True])
    @pytest.mark.parametrize("mem_cap", [None, 30])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 16))
    def test_partition_moves_only_the_rounding(self, margin, sketch, mem_cap,
                                               data, n, seed):
        # the ledger (n, start) is a function of n alone, so cutting one
        # stream into other calls moves G and theta by no more than the
        # rounding both call sequences explain; within one partition a
        # resume at any call boundary stays byte-exact
        ts, ys = sample(n, seed, lambda t: np.sin(6 * t))
        ys += np.random.default_rng(seed).normal(0, 0.5, n)
        cuts = st.sets(st.integers(1, n - 1), max_size=8) if n > 1 \
            else st.just(set())
        parts = [np.split(np.arange(n), sorted(data.draw(cuts)))
                 for _ in range(2)]
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)

        a, b = (make_engine(known=not sketch, spec=spec, mem_cap=mem_cap)
                for _ in range(2))
        marks = []  # a's checkpoint after each call
        for idx in parts[0]:
            a.ingest(ts[idx], ys[idx])
            marks.append(a.checkpoint_json())
        for idx in parts[1]:
            b.ingest(ts[idx], ys[idx])
        assert a.n == b.n == n
        assert a.start.tolist() == b.start.tolist()
        sizes = [[idx.size for idx in part] for part in parts]
        tol = partition_tolerance(ys, a.start, spec.period, 1, *sizes)
        assert np.all(np.abs(a.G - b.G) <= tol)
        if sketch:
            tol = partition_tolerance(np.ones(n), a.start,
                                      a.density.basis.period, 3, *sizes)
            assert np.all(np.abs(a.density.theta - b.density.theta)
                          <= tol / slot_counts(a.start, a.n))
        for cut in range(1, len(parts[0])):
            resumed = OnePassRegressor.from_checkpoint(marks[cut - 1])
            for idx in parts[0][cut:]:
                resumed.ingest(ts[idx], ys[idx])
            assert resumed.checkpoint_json() == marks[-1]

    def test_mid_batch_slot_opening(self):
        # slot 6 opens at tau(6) = floor(0.5 * floor((3)^3)) = 13; feed 20
        # points in one batch and slot 6 must only see points 13..20
        sched = SchedulerConfig()
        assert sched.tau(6) == 13
        ts, ys = sample(20, 3, lambda t: 1.0 + t)
        eng = make_engine(known=True)
        eng.ingest(ts, ys)
        vals = eval_matrix(UNIT, eng.G.size, ts)
        assert eng.start[5] == 13
        assert eng.G[5] == pytest.approx(np.dot(vals[12:, 5], ys[12:]), rel=1e-12)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("sketch", [True, False])
    def test_one_call_allocates_only_its_tables(self, margin, sketch):
        # a 2000-point call at n = 98 000 under h = 0.4 folds 263 slots,
        # two of which open inside it; its tables, z^0..z^12 and
        # (z^12)^0..(z^12)^10 times each of the unit and the y weights with
        # a sketch (the y alone without), take 1.1 MB (0.8 MB).  At margin
        # 0.1 the stream stops at its identifiable count, 39 slots, and G
        # and the sketch fold in calls of one weight each
        m = 2000
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        eng = make_engine(known=not sketch, spec=spec, h=0.4)
        ts, ys = sample(100_000, 21, lambda t: np.sin(5 * t))
        feed(eng, ts[:-m], ys[:-m], batch=m)
        slots = eng.start.size
        twin = OnePassRegressor.from_checkpoint(eng.checkpoint_json())
        peak = traced_peak(eng.ingest, ts[-m:], ys[-m:])
        s = eng.start.size
        assert (slots, s) == ((261, 263) if margin == 0 else (39, 39))
        # Each weight forms its rows in the tables, and a tail is a dot
        # product of two of their rows, so beside one set of tables a call
        # holds O(s) arrays only: the new start vector, G, the sketch's
        # and the call's per-slot sums, the moments and the product of the
        # tables, count (K // r + 1) x r.  That is less than one complex
        # row of the points, 16 m = 31 KiB; a weighted copy of a weight's
        # rows, 16 (K // r + 1) m = 344 KiB, or the ufunc buffers of a
        # broadcast weighting, 2 x 16 np.getbufsize() = 256 KiB, break the
        # bound.
        count = 2 if sketch and margin == 0 else 1
        beside = 80 * s + 4096
        assert beside < 16 * m
        assert peak <= table_bytes(s, m, count) + beside
        # the same call again finds the tables' buffer in the spare and
        # allocates none of their bytes
        again = traced_peak(twin.ingest, ts[-m:], ys[-m:])
        assert again <= beside
        assert twin.checkpoint_json() == eng.checkpoint_json()

    def test_domain_violation_is_atomic(self):
        eng = make_engine(known=True)
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
            # named as what it is, not as the overflow it would also cause
            with pytest.raises(ValueError, match="non-finite y"):
                eng.ingest([0.2, 0.7], [1.0, bad])
        assert eng.checkpoint_json() == before

    def test_nan_t_rejected_atomically(self):
        # the domain check is one min/max test, which NaN must still fail
        for known in (True, False):
            eng = make_engine(known=known)
            eng.ingest([0.5, 0.25], [1.0, 2.0])
            before = eng.checkpoint_json()
            for bad in ([np.nan], [0.2, np.nan], [np.nan, 0.7, 1.5]):
                with pytest.raises(DomainError):
                    eng.ingest(bad, [1.0] * len(bad))
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

    def test_a_batch_that_is_not_one_dimensional_is_refused(self,
                                                             monkeypatch):
        # refused by its shape before any table is built, and not by
        # numpy's broadcasting inside the fold.  The fold looks ``moments``
        # up in the scheduler, so the patch goes there, where a valid batch
        # shows that it bites
        def never(*args):
            raise AssertionError("a table was built")

        for known in (True, False):
            eng = make_engine(known=known)
            eng.ingest([0.5, 0.25], [1.0, 2.0])
            before = eng.checkpoint_json()
            with monkeypatch.context() as patch:
                patch.setattr("streamreg.scheduler.moments", never)
                for shape in ((2, 3), (1, 1)):
                    with pytest.raises(ValueError, match="one-dimensional"):
                        eng.ingest(np.full(shape, 0.5), np.ones(shape))
                with pytest.raises(AssertionError, match="a table was built"):
                    eng.ingest([0.5], [1.0])
            assert eng.checkpoint_json() == before

    @pytest.mark.parametrize("known", [False, True])
    def test_a_scalar_point_is_a_batch_of_one(self, known):
        # 0-d t and y make one point, and a 0-d t beside two y values is
        # refused with the state as it was
        scalar, listed = make_engine(known=known), make_engine(known=known)
        scalar.ingest(0.5, 1.0)
        listed.ingest([0.5], [1.0])
        scalar.ingest(np.float64(0.25), np.array(-2.0))
        listed.ingest(np.array([0.25]), [-2.0])
        before = listed.checkpoint_json()
        assert scalar.checkpoint_json() == before
        with pytest.raises(ValueError, match="equal length"):
            scalar.ingest(0.5, [1.0, 2.0])
        assert scalar.checkpoint_json() == before

    def test_shared_basis_leaves_the_sketch_unchanged(self):
        # at margin 0 the sketch folds the engine's own power tables, beside
        # y's block; with a margin it must evaluate its unextended basis
        # itself, alone.  The cap of 117 // 3 = 39 slots is the extended
        # basis's identifiable count, so both engines hold the same slots.
        # Below K = SPLIT_MIN the shared call's product has two rows and
        # the sketch's own one, which OpenBLAS may round otherwise, so theta
        # agrees within the fold's rounding; from SPLIT_MIN on a batch
        # folded from a common state has the same bits
        ts = np.random.default_rng(16).beta(2, 3, 9000)
        shared = make_engine(known=False, mem_cap=117)
        own = make_engine(known=False,
                          spec=BasisSpec(0.0, 1.0, extension_margin=0.1))
        # single points, then batches that open slots strictly inside
        sizes = []
        for lo, hi in [(0, 1), (1, 2), (2, 40), (40, 900)]:
            shared.ingest(ts[lo:hi], np.zeros(hi - lo))
            own.ingest(ts[lo:hi], np.zeros(hi - lo))
            np.testing.assert_array_equal(own.start, shared.start)
            sizes.append(hi - lo)
            tol = partition_tolerance(np.ones(hi), own.start, 1.0, 3, sizes,
                                      sizes)
            assert np.all(np.abs(own.density.theta - shared.density.theta)
                          <= tol / slot_counts(own.start, hi))
        assert own.start.size // 2 < basis.SPLIT_MIN
        opens = own.start.size
        own.density.theta = shared.density.theta.copy()
        shared.ingest(ts[900:], np.zeros(8100))
        own.ingest(ts[900:], np.zeros(8100))
        assert own.start.size // 2 >= basis.SPLIT_MIN
        np.testing.assert_array_equal(own.density.theta,
                                      shared.density.theta)
        assert own.start.size > opens and own.start[-1] > 900 + 1
        assert own.start.size == shared.start.size == 39

    def test_length_mismatch_rejected(self):
        eng = make_engine(known=True)
        with pytest.raises(ValueError):
            eng.ingest([0.1, 0.2], [1.0])

    def test_empty_batch_rejected(self):
        eng = make_engine(known=True)
        with pytest.raises(ValueError):
            eng.ingest([], [])


def signed_zero_system(q):
    """An SPD H of order q with signed zeros off its diagonal, symmetric to
    the bit, and a right-hand side for it."""
    rng = np.random.default_rng(q)
    B = rng.normal(size=(q, q))
    H = B @ B.T / q + (q + 1) * np.eye(q)

    def pairs(p):  # a symmetric mask off the diagonal
        upper = np.triu(rng.uniform(size=(q, q)) < p, 1)
        return upper | upper.T

    H[pairs(0.2)] *= 0.0  # zeros with the entries' signs
    H[pairs(0.5)] *= -1.0
    if q > 1:  # one negative zero at least
        H[0, 1] = H[1, 0] = -0.0
    return H, rng.normal(size=q)


class TestSolve:
    def test_matches_batch_fit_when_all_slots_full(self):
        # with the cap at q0 every slot starts at observation 1, so the
        # streaming statistics coincide with the batch moments exactly
        ts, ys = sample(500, 4, lambda t: np.exp(t))
        ys += np.random.default_rng(5).normal(0, 0.1, ts.size)
        eng = make_engine(known=True, q0=5, mem_cap=15)
        feed(eng, ts, ys, batch=50)
        Phi = eval_matrix(UNIT, 5, ts)
        H = Phi.T @ Phi / ts.size
        eng.gram = lambda q: (H, None)
        for rho in (0.0, 1e-3, 0.5):
            streamed = eng.solve_coefficients(rho)
            batched = batch_fit(ts, ys, UNIT, 5, rho, ROUGH)
            np.testing.assert_allclose(streamed, batched, rtol=1e-10,
                                       atol=1e-12)

    def test_noise_free_harmonic_recovery(self):
        # y = sqrt(2) cos(2 pi t) is the second basis function; with the
        # uniform Gram known, rho = 0 recovers it up to sampling error
        ts, _ = sample(5000, 6, lambda t: t)
        ys = np.sqrt(2.0) * np.cos(2 * np.pi * ts)
        eng = make_engine(known=True, q0=5, mem_cap=15)
        feed(eng, ts, ys)
        coef = eng.solve_coefficients(0.0)
        grid = np.linspace(0, 1, 401)
        fit = eng.estimate(grid, 0.0)
        truth = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        assert abs(coef[1] - 1.0) < 0.05
        assert np.max(np.abs(fit - truth)) <= 0.05

    def test_penalty_shrinks_high_harmonics(self):
        ts, ys = sample(2000, 7, lambda t: np.sqrt(2) * np.cos(6 * np.pi * t))
        eng = make_engine(known=True, q0=9, mem_cap=27)
        feed(eng, ts, ys)
        small = eng.solve_coefficients(1e-6)
        large = eng.solve_coefficients(1e-1)
        assert abs(large[5]) < abs(small[5])

    def test_singular_gram_raises_with_diagnostic(self):
        eng = make_engine(known=True, q0=2, mem_cap=6)
        eng.ingest([0.1, 0.6], [1.0, 2.0])
        eng.gram = lambda q: (np.zeros((2, 2)), None)
        with pytest.raises(IllConditionedSystemError,
                           match="not positive definite"):
            eng.solve_coefficients(0.0)

    def test_indefinite_gram_is_not_positive_definite(self):
        # Cholesky fails on an indefinite system, and the refusal says so
        # (q0 = 2 keeps the warm-up ridge out of A)
        eng = make_engine(known=True, q0=2, mem_cap=6)
        eng.ingest([0.1, 0.6], [1.0, 2.0])
        eng.gram = lambda q: (np.diag([1.0, -0.5]), None)
        with pytest.raises(IllConditionedSystemError,
                           match="not positive definite"):
            eng.solve_coefficients(0.0)

    @pytest.mark.parametrize("H", [np.zeros((3, 3)),
                                   np.diag([1.0, 1.0, 1e-13])])
    def test_refusal_computes_no_spectrum(self, monkeypatch, H):
        # a refusal reports LAPACK's own figures: a failed factorization
        # or the rcond that failed the gate, never an eigendecomposition
        def eigvalsh(*args, **kwargs):
            raise AssertionError("the refusal computed a spectrum")

        monkeypatch.setattr(linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        with pytest.raises(IllConditionedSystemError):
            penalized_solve(H, np.zeros((3, 3)), 0.0, np.ones(3), None)

    @pytest.mark.parametrize("kappa", [1e8, 1e12])
    def test_gate_follows_the_condition_number(self, kappa):
        # an SPD Gram with spectrum 1 .. 1/kappa: its 1-norm rcond is
        # within a factor q = 5 of 1/kappa, and RCOND_FLOOR = 1e-10 lies a
        # factor 100 from either kappa; the engine's solve and the batch
        # path's (the one batch_fit and the CV table make) gate alike
        q = 5
        eng = make_engine(known=True, q0=q, mem_cap=3 * q)
        feed(eng, *sample(50, 20, np.cos))
        Q = np.linalg.qr(np.random.default_rng(21).normal(size=(q, q)))[0]
        H = (Q * np.geomspace(1.0, 1.0 / kappa, q)) @ Q.T
        H = 0.5 * (H + H.T)
        eng.gram = lambda q: (H, None)
        rhs = eng.G / slot_counts(eng.start, eng.n)
        for solve in (eng.solve_coefficients,
                      lambda rho: penalized_solve(H, np.eye(q), rho, rhs,
                                                  None)[0]):
            if kappa > 1e10:
                with pytest.raises(IllConditionedSystemError) as exc_info:
                    solve(0.0)
                rcond = re.search(r"rcond (\S+) <=", str(exc_info.value))
                assert 0.0 < float(rcond[1]) <= RCOND_FLOOR
            else:
                coef = solve(0.0)
                np.testing.assert_allclose(H @ coef, rhs, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (1, 3)])
    def test_non_finite_system_is_refused(self, bad, at):
        # the solve calls LAPACK without scipy's finiteness checks, so it
        # refuses a NaN or inf in H or in the right-hand side itself, with
        # a ValueError and no coefficients
        q = 5
        eng = make_engine(known=True, q0=q, mem_cap=3 * q)
        feed(eng, *sample(50, 20, np.cos))
        H = np.eye(q)
        H[at] = H[at[::-1]] = bad
        eng.gram = lambda q: (H, None)
        # a certificate, here a false one, skips dpocon but not this check
        for solve in (eng.solve_coefficients, eng.coefficients,
                      lambda rho: penalized_solve(H, np.eye(q), rho,
                                                  np.ones(q), None),
                      lambda rho: penalized_solve(H, np.eye(q), rho,
                                                  np.ones(q), (1.0, 1.0))):
            with pytest.raises(ValueError, match="NaN or inf"):
                solve(1e-3)
        assert eng._coef_cache == {}
        rhs = np.ones(q)
        rhs[at[1]] = bad
        for spectrum in (None, (1.0, 1.0)):
            with pytest.raises(ValueError, match="NaN or inf"):
                penalized_solve(np.eye(q), np.eye(q), 1e-3, rhs, spectrum)

    def test_nan_rcond_fails_the_gate(self, monkeypatch):
        # the engine calls LAPACK through basis.lapack, so the patch goes
        # there: on scipy.linalg.lapack it would not reach the solve
        monkeypatch.setattr(basis.lapack, "dpocon",
                            lambda *args, **kwargs: (np.nan, 0))
        with pytest.raises(IllConditionedSystemError):
            penalized_solve(np.eye(3), np.eye(3), 0.0, np.ones(3), None)

    @pytest.mark.parametrize("q", [1, 92, 200])
    def test_system_has_the_bits_of_h_plus_rho_w(self, monkeypatch, q):
        # the solve must form and factor the matrix H + rho W gives, to the
        # bit, signed zeros too (rho = -0.0 makes rho W's zeros negative)
        H, rhs = signed_zero_system(q)
        factored = []
        dpotrf = basis.lapack.dpotrf

        def recorded(a, **kwargs):
            factored.append(a.T.copy())  # a is A.T, and dpotrf overwrites it
            return dpotrf(a, **kwargs)

        monkeypatch.setattr(basis.lapack, "dpotrf", recorded)
        for W, rho in ((penalty_matrix(UNIT, ROUGH, q), 1e-7),
                       (penalty_matrix(UNIT, ROUGH, q), -0.0),
                       (penalty_matrix(BasisSpec(0.0, 1.0, 0.1), ROUGH, q),
                        1e-9), (np.eye(q), 0.0)):
            A = H + rho * penalty_as_matrix(W)
            factored.clear()
            got = penalized_solve(H, W, rho, rhs, None)[0]
            assert [a.tobytes() for a in factored] == [A.tobytes()]
            c = linalg.lapack.dpotrf(A, lower=1, clean=0)[0]
            want = linalg.lapack.dpotrs(c, rhs, lower=1)[0]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [1, 2, 39, 92, 200])
    def test_dpocon_reads_the_1_norm_of_the_system(self, monkeypatch, q):
        # the norm dpocon takes has the bits of the greatest column sum of
        # |H + rho W|, for a diagonal W given as its diagonal and a dense
        # one, and with signed zeros in H and in rho W
        H, rhs = signed_zero_system(q)
        norms = []
        dpocon = basis.lapack.dpocon

        def recorded(c, anorm, **kwargs):
            norms.append(anorm)
            return dpocon(c, anorm, **kwargs)

        monkeypatch.setattr(basis.lapack, "dpocon", recorded)
        for W, rho in itertools.product(
                (penalty_matrix(UNIT, ROUGH, q),
                 penalty_matrix(BasisSpec(0.0, 1.0, 0.1), ROUGH, q)),
                (1e-7, -0.0)):
            norms.clear()
            assert penalized_solve(H, W, rho, rhs, None)[1]["gate"] == \
                "dpocon"
            want = np.abs(H + rho * penalty_as_matrix(W)).sum(0).max()
            assert [np.float64(a).tobytes() for a in norms] == \
                [want.tobytes()]

    def test_a_finite_system_whose_1_norm_overflows_is_refused(self):
        # A = c (3 I + S), S the symmetric 4 x 4 Hadamard matrix (S^2 = 4 I):
        # its eigenvalues c and 5 c are doubles and Cholesky factors it, but
        # at c = 3e307 its 1-norm 7 c is not.  Both gates then refuse it as
        # non-finite, the certificate's (from the true spectrum) as dpocon's;
        # at half that scale both solve it
        S = linalg.hadamard(4).astype(float)
        for c, refused in ((1.5e307, False), (3e307, True)):
            A = c * (3.0 * np.eye(4) + S)
            for spectrum, gate in (((c, 5.0 * c), "certificate"),
                                   (None, "dpocon")):
                solve = functools.partial(penalized_solve, A, np.zeros(4),
                                          0.0, np.ones(4), spectrum)
                if refused:
                    with pytest.raises(ValueError, match="NaN or inf"):
                        solve()
                else:
                    assert solve()[1]["gate"] == gate

    def test_negative_rho_rejected(self):
        eng = make_engine(known=True, q0=2, mem_cap=6)
        eng.ingest([0.1], [1.0])
        with pytest.raises(ValueError):
            eng.solve_coefficients(-1.0)

    def test_query_before_data_raises(self):
        eng = make_engine(known=True)
        with pytest.raises(IllConditionedSystemError):
            eng.solve_coefficients(0.1)

    def test_cache_invalidated_by_ingest(self):
        ts, ys = sample(200, 8, lambda t: t)
        eng = make_engine(known=True, q0=3, mem_cap=9)
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


def certificate_system(known, kind, q, lo, length, theta):
    """An engine's (H, spectrum) and W at q: known-uniform, or a sketch
    holding ``theta`` over q active slots."""
    spec = BasisSpec(lo, lo + length)
    eng = OnePassRegressor(spec, PenaltySpec(kind), SchedulerConfig(),
                           known_uniform_density=known)
    if not known:
        eng.density.theta = theta
        eng.density.active_count = q
    return *eng.gram(q), penalty_matrix(spec, PenaltySpec(kind), q)


class TestConditioningCertificate:
    @settings(max_examples=400, deadline=None)
    @given(known=st.booleans(), kind=st.sampled_from(["identity",
                                                      "roughness"]),
           q=st.integers(1, 120), log_rho=st.floats(-12.0, 2.0),
           lo=st.floats(-5.0, 5.0), log_length=st.floats(-1.0, 2.0),
           log_gap=st.floats(-13.0, 0.0), aligned=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_certificate_is_sound(self, known, kind, q, log_rho, lo,
                                  log_length, log_gap, aligned, seed):
        # sketches whose coefficient bound holds by a relative gap down to
        # 1e-13, so q kappa runs past 1 / RCOND_FLOOR; aligned cosines put
        # the density's minimum on the bound itself, so the bound is tight
        rng = np.random.default_rng(seed)
        theta = np.zeros(q)
        theta[0] = 10.0 ** rng.uniform(-3.0, 3.0)
        if q > 1:
            rest = rng.exponential(size=q - 1) * rng.choice([-1.0, 1.0],
                                                            size=q - 1)
            if aligned:
                rest[1::2] = 0.0  # sines
                rest = -np.abs(rest)
            theta[1:] = rest * (theta[0] * (1.0 - 10.0 ** log_gap)
                                / (np.sqrt(2.0) * np.abs(rest).sum()))
        H, spectrum, W = certificate_system(known, kind, q, lo,
                                            10.0 ** log_length, theta)
        rho = 10.0 ** log_rho
        rhs = rng.normal(size=q)
        try:
            coef, gate = penalized_solve(H, W, rho, rhs, spectrum)
        except IllConditionedSystemError:
            gate = None
        if gate is None or gate["gate"] != "certificate":
            return
        # dpocon, had it run, would have passed the system
        gated, record = penalized_solve(H, W, rho, rhs, None)
        assert record["rcond"] > RCOND_FLOOR
        assert gated.tobytes() == coef.tobytes()
        lam = np.linalg.eigvalsh(H + rho * penalty_as_matrix(W))
        assert 0.0 < lam[0] and lam[-1] / lam[0] <= gate["kappa_bound"]

    @pytest.mark.parametrize("known", [True, False])
    @pytest.mark.parametrize("kind", ["identity", "roughness"])
    @pytest.mark.parametrize("q", [1, 2, 92, 120])
    def test_near_uniform_systems_skip_dpocon(self, monkeypatch, known,
                                              kind, q):
        theta = np.full(q, 0.3 / q)
        theta[0] = 1.0
        H, spectrum, W = certificate_system(known, kind, q, 0.0, 1.0, theta)
        def dpocon(*args, **kwargs):
            raise AssertionError("dpocon was called")

        monkeypatch.setattr(basis.lapack, "dpocon", dpocon)
        coef, gate = penalized_solve(H, W, 1e-6, np.ones(q), spectrum)
        assert gate["gate"] == "certificate"
        assert gate["kappa_bound"] * q < 1.0 / RCOND_FLOOR
        # the patched routine is the one the solve calls when it has no
        # spectrum to certify
        with pytest.raises(AssertionError, match="dpocon was called"):
            penalized_solve(H, W, 1e-6, np.ones(q), None)

    @pytest.mark.parametrize("q", [1, 5, 100])
    def test_gate_threshold_is_q_kappa(self, q):
        # spectrum(H) = {1} and one penalty eigenvalue w: the bound is
        # (1 + w + delta) / (1 - delta), and the certificate stands in for
        # dpocon only while q times it stays below 1 / RCOND_FLOOR
        for factor, gate in [(0.5, "certificate"), (2.0, "dpocon")]:
            W = np.zeros((q, q))
            W[-1, -1] = factor / (q * RCOND_FLOOR)
            coef, record = penalized_solve(np.eye(q), W, 1.0, np.ones(q),
                                           (1.0, 1.0))
            assert record["gate"] == gate
            if gate == "certificate":
                assert q * record["kappa_bound"] < 1.0 / RCOND_FLOOR
                assert record["kappa_bound"] >= 1.0 + W[-1, -1]

    @pytest.mark.parametrize("q", [1, 5, 100])
    def test_a_lower_end_within_rounding_proves_nothing(self, q):
        # LAPACK factors the rounded H + rho W, whose eigenvalues may move by
        # delta = 8 (q + 1)^2 u of the largest: an interval whose lower end
        # is not above delta bounds no condition number
        w = np.ones(q)  # the diagonal of W = I_q
        delta = 8 * (q + 1) ** 2 * np.finfo(float).eps
        for lo in (1e-300, delta / 2, delta):
            assert _kappa_bound((lo, 1.0), w, 0.0) == math.inf
        assert _kappa_bound((2 * delta, 1.0), w, 0.0) == pytest.approx(
            (1.0 + delta) / delta)

    def test_certificate_needs_margin_zero(self):
        # at a margin the family is not orthonormal on [lo, hi], so no
        # design's bounds bound the Gram's spectrum: neither the known
        # density's nor those of a sketch certified by its coefficients
        spec = BasisSpec(0.0, 1.0, extension_margin=0.1)
        known, sketch = make_engine(known=True, spec=spec), \
            make_engine(known=False, spec=spec)
        sketch.density.theta = np.array([1.0, 0.1, 0.0, 0.05, 0.0])
        sketch.density.active_count = 5
        assert sketch.density.certified()
        assert sketch.density.bounds() is not None
        for eng in (known, sketch):
            assert eng.gram(5)[1] is None

    def test_grid_certified_sketch_proves_no_spectrum(self):
        # a bump whose coefficient bound fails but the grid test passes
        eng = make_engine(known=False)
        eng.density.theta = np.array([1.0, 0.6, 0.0, 0.2, 0.0])
        eng.density.active_count = 5
        assert eng.density.certified()
        H, spectrum = eng.gram(5)
        assert spectrum is None


class TestMemory:
    def test_footprint_formula(self):
        ts, ys = sample(1000, 10, lambda t: t)
        eng = make_engine(known=False)
        feed(eng, ts, ys)
        expected = (eng.G.size + eng.start.size + eng.density.theta.size
                    + len(eng.checkpoint()["theta_start"]) + SCALAR_UNITS)
        assert eng.memory_footprint() == expected

    def test_capped_engine_stays_under_budget(self):
        ts, ys = sample(20000, 11, lambda t: t)
        eng = make_engine(known=False, mem_cap=30)
        feed(eng, ts, ys)
        assert eng.memory_footprint() <= 30 + 16
        assert eng.G.size <= 10

    def test_the_least_memory_cap_keeps_one_slot(self):
        # mem_cap = 1 is the least cap the schedule accepts: one slot, and
        # the stream still answers
        schedule = SchedulerConfig(mem_cap=1)
        assert schedule.cap_q == 1
        eng = OnePassRegressor(UNIT, ROUGH, schedule)
        ts, ys = sample(2000, 12, lambda t: 1.0 + t)
        feed(eng, ts, ys)
        assert eng.G.size == eng.density.theta.size == eng.active_count == 1
        np.testing.assert_allclose(eng.estimate(0.5, 1e-3), ys.mean(),
                                   rtol=1e-6)

    @pytest.mark.parametrize("kind", ["identity", "roughness"])
    def test_a_margin_zero_cold_solve_holds_two_systems(self, kind):
        # at q = 1024 a q x q array takes 8 MiB.  At margin 0 the penalty is
        # its diagonal, the Gram is built with no bordered scratch, and the
        # system is factored where it was formed, so a cold certificate-path
        # estimate holds H and A and nothing else of their size
        q = 1024
        W = penalty_matrix(UNIT, PenaltySpec(kind), q)
        assert W.nbytes == 8 * q
        mu = np.zeros(2 * (q // 2) + 1, dtype=complex)
        mu[0], mu[1] = 1.0, 0.1  # the design density 1 + 0.2 cos(2 pi t)
        gates = []

        def cold_solve():
            H = basis.gram_from_moments(UNIT, q, mu)
            gates.append(penalized_solve(H, W, 1e-12, np.ones(q),
                                         (0.8, 1.2))[1]["gate"])

        assert traced_peak(cold_solve) <= 2 * 8 * q * q + (64 << 10)
        assert gates == ["certificate"]

    def test_an_identity_cold_solve_at_a_margin_holds_two_systems(self):
        # the identity penalty is its diagonal at every margin, so a cold
        # solve at a positive margin (dpocon's gate) that builds its W holds
        # H and A and nothing else of their size: a dense I_q is a third
        q, spec = 400, BasisSpec(0.0, 1.0, extension_margin=0.001)
        penalty_matrix.cache_clear()
        gates = []

        def cold_solve():
            W = penalty_matrix(spec, PenaltySpec("identity"), q)
            H = basis.gram_uniform(spec, q)
            gates.append(penalized_solve(H, W, 1e-3, np.ones(q),
                                         None)[1]["gate"])

        assert traced_peak(cold_solve) <= 2 * 8 * q * q + (64 << 10)
        assert gates == ["dpocon"]


class TestIdentifiableCount:
    """An extended basis opens no slot past ``basis.identifiable_count``
    (39 at margin 0.1 on [0, 1]), for G and theta alike, in ``ingest`` and
    in the loader."""

    EXTENDED = BasisSpec(0.0, 1.0, extension_margin=0.1)

    def engine(self, spec=EXTENDED):
        return make_engine(known=False, spec=spec)

    def test_an_extended_stream_answers_at_any_n(self):
        # without the count this stream held 116 slots (468 units) and
        # refused every estimate
        registry = StreamRegistry(ServiceConfig(extension_margin=0.1))
        rng = np.random.default_rng(28)
        for _ in range(1000):
            t = rng.uniform(0, 1, 100)
            batch = np.column_stack([t, np.sin(6 * t)
                                     + rng.normal(0, 0.3, 100)])
            reply = handle_request(registry, {"op": "ingest", "stream_id": 1,
                                              "points": batch.tolist()})
            assert reply["ok"]
        stats, estimate = (
            handle_request(registry, {"op": "query", "stream_id": 1, **q})
            for q in ({"kind": "stats"}, {"kind": "estimate", "t": 0.3}))
        assert stats["n"] == 100_000
        assert (stats["q_active"], stats["pending_slots"],
                stats["memory_units"]) == (39, 0, 160)
        assert estimate["ok"] and np.isfinite(estimate["value"])

    def test_an_extended_stream_stops_at_its_count(self):
        eng = self.engine()
        feed(eng, *sample(9000, 41, np.sin))  # slot 39 opens at 3707
        assert eng.start.tolist() == [eng.schedule.tau(j)
                                      for j in range(1, 40)]
        assert eng.G.size == eng.density.theta.size == eng.active_count == 39
        assert eng.schedule.slot_count(eng.n) == 52

    def test_a_stream_at_its_count_makes_no_slot_count_call(self,
                                                            monkeypatch):
        eng = self.engine()
        feed(eng, *sample(4000, 42, np.sin))
        assert eng.start.size == 39

        def slot_count(*args):
            raise AssertionError("slot_count called")

        monkeypatch.setattr(SchedulerConfig, "slot_count", slot_count)
        feed(eng, *sample(20_000, 43, np.sin), batch=1000)
        assert eng.start.size == 39

    def test_a_huge_n_opens_at_most_the_count(self, monkeypatch):
        eng = self.engine()
        feed(eng, *sample(4000, 44, np.sin))
        record = {**eng.checkpoint(), "n": 2 ** 62}
        taus = []
        tau = SchedulerConfig.tau
        monkeypatch.setattr(SchedulerConfig, "tau",
                            lambda self, j: taus.append(j) or tau(self, j))
        loaded = OnePassRegressor.from_checkpoint(record)
        assert loaded.checkpoint() == record
        # slot_count steps a few slots near its root, about 4.2e6 here;
        # the start vector takes 39 more
        assert loaded.start.size == 39 and len(taus) < 50

    def test_a_basis_with_no_identifiable_function_is_refused(self):
        # phi_1's uniform Gram, 1/P, lies below the floor: without the
        # refusal the first ingest raised IndexError, and a service stream
        # closed its connection with no reply
        spec = BasisSpec(0.0, 1.0, extension_margin=1e8)
        assert basis.identifiable_count(spec) == 0
        message = "leaves no identifiable basis function"
        with pytest.raises(ValueError, match=message):
            self.engine(spec)
        with pytest.raises(ValueError, match=message):
            ServiceConfig(extension_margin=1e8)
        record = self.engine().checkpoint()  # n = 0: no slot to compare
        record["config"]["extension_margin"] = 1e8
        with pytest.raises(CheckpointError, match=message):
            OnePassRegressor.from_checkpoint(record)
        # one identifiable function is enough
        eng = self.engine(BasisSpec(0.0, 1.0, extension_margin=1e3))
        feed(eng, *sample(500, 46, np.sin))
        assert eng.G.size == eng.active_count == 1
        assert np.isfinite(eng.estimate(0.5, 1e-3))

    def test_a_record_past_the_count_is_refused(self):
        # an engine before the count wrote 52 slots at n = 9000
        eng = self.engine(UNIT)
        feed(eng, *sample(9000, 45, np.sin))
        record = eng.checkpoint()
        assert len(record["start"]) == 52
        record["config"]["extension_margin"] = 0.1
        with pytest.raises(CheckpointError, match="start"):
            OnePassRegressor.from_checkpoint(record)
        capped = self.engine()
        feed(capped, *sample(9000, 45, np.sin))
        assert OnePassRegressor.from_checkpoint(
            capped.checkpoint()).checkpoint() == capped.checkpoint()


class TestTableBuffer:
    """The power tables' reused buffer (``basis.SPARE_BYTES``): held by one
    ``basis.moments`` call at a time, and no larger than the constant."""

    def test_a_raising_read_gives_its_buffer_back(self):
        # The buffer goes back when the call ends, also when a read raises
        # (here y of the wrong length): while the exception and its
        # traceback are still held, the next call of the same shape finds
        # the buffer in the spare and allocates none of its bytes.
        m, q = 9_000, 92
        spec = BasisSpec(0.0, 1.0, extension_margin=0.1)
        ts, ys = sample(m, 5, lambda t: np.sin(5 * t))
        tables = table_bytes(2 * q, m, 2)
        assert tables <= SPARE_BYTES
        normal_equations(spec, q, ts, ys)
        for call in (lambda: normal_equations(spec, q, ts, ys[:-1]),
                     lambda: basis.moments(spec, q, ts, (None, ys[:-1]), ())):
            with pytest.raises(ValueError) as raised:  # held from here on
                call()
            assert traced_peak(normal_equations, spec, q, ts, ys) < tables / 2

    def test_a_taken_buffer_is_not_handed_out_again(self, monkeypatch):
        # while one call holds the spare, the next call gets a buffer of
        # its own, whatever the threads' timing; given back, the larger
        # buffer stays the spare
        monkeypatch.setattr(basis, "_spare", None)
        basis._give_back(np.empty(100, dtype=complex))
        held = basis._take_buffer(100)
        other = basis._take_buffer(100)
        assert other is not held and not np.shares_memory(other, held)
        basis._give_back(held)
        basis._give_back(other)
        assert basis._spare is held

    def test_growing_tables_hold_one_buffer(self, monkeypatch):
        # a spare too small for the call is dropped before the larger
        # buffer is made, so the two are never held at once; the larger
        # becomes the spare
        monkeypatch.setattr(basis, "_spare", None)
        small, large = 100_000, 150_000
        tracemalloc.start()
        try:
            basis._give_back(np.empty(small, dtype=complex))
            tracemalloc.reset_peak()
            buf = basis._take_buffer(large)
            peak = tracemalloc.get_traced_memory()[1]
            basis._give_back(buf)
        finally:
            tracemalloc.stop()
        assert buf.size == large and basis._spare is buf
        assert peak <= 16 * large + 4096

    def test_threads_ingesting_at_once_match_sequential_runs(self):
        m, n = 2000, 30_000

        def run(seed, barrier=None):
            spec = BasisSpec(0.0, 1.0, extension_margin=0.1 * (seed % 2))
            eng = make_engine(known=seed == 3, spec=spec, h=0.4)
            ts, ys = sample(n, 40 + seed, lambda t: np.sin(5 * t) + seed)
            if barrier is not None:
                barrier.wait()
            feed(eng, ts, ys, batch=m)
            return eng.checkpoint_json()

        want = [run(seed) for seed in range(4)]
        got = [None] * 4
        barrier = threading.Barrier(4)

        def worker(seed):
            got[seed] = run(seed, barrier)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == want

    def test_batch_fit_keeps_no_table_past_the_spare(self, monkeypatch):
        # n = 1e5, q = 92 would build 32 MiB of tables in one chunk; the
        # chunks' buffer, kept as the spare, fits SPARE_BYTES
        n, q = 100_000, 92
        ts, ys = sample(n, 22, lambda t: np.sin(5 * t))
        assert table_bytes(2 * q, n, 2) > SPARE_BYTES
        monkeypatch.setattr(basis, "_spare", None)
        batch_fit(ts, ys, UNIT, q, 1e-6, ROUGH)
        assert 0 < basis._spare.nbytes <= SPARE_BYTES

    @staticmethod
    def maximal_request(registry, stream_id):
        """The bytes of an ingest line of 74 884 points, about as many as
        MAX_LINE_BYTES admits for these numbers, after bringing the stream
        to n = 1e5."""
        rng = np.random.default_rng(31)
        ts = rng.uniform(0.0, 1.0, 100_000)
        for lo in range(0, ts.size, 5000):
            t = ts[lo:lo + 5000]
            assert handle_request(registry, {
                "op": "ingest", "stream_id": stream_id,
                "points": np.column_stack([t, np.sin(5 * t)]).tolist()})["ok"]
        points = np.column_stack([np.round(rng.uniform(0.0, 1.0, 74_884), 4),
                                  np.round(rng.uniform(-1.0, 1.0, 74_884), 1)])
        raw = json.dumps({"op": "ingest", "stream_id": stream_id,
                          "points": points.tolist()},
                         separators=(",", ":")).encode()
        assert len(raw) <= MAX_LINE_BYTES
        return raw

    def test_a_maximal_request_holds_one_chunk_of_tables(self, monkeypatch):
        # Beside its decoded objects the request peaks either while its
        # pairs become columns or in its ingest.  The columns' conversion
        # holds the pairs' argument tuple, a list iterator per pair and the
        # columns as tuples, then as arrays: 80 bytes a point, 6.0 MB.  The
        # ingest holds, beside the t and y arrays it is given (16 bytes a
        # point), one chunk's tables in at most SPARE_BYTES and O(s)
        # arrays: each weight forms its rows in the tables and a tail reads
        # two of their rows, so it holds no row of the chunk's points
        # (168 KB).  Folded in one chunk, its tables would take 30 MB.
        registry = StreamRegistry(ServiceConfig())
        raw = self.maximal_request(registry, "s")
        monkeypatch.setattr(basis, "_spare", None)
        peaks, held = [], {}

        def traced(name, call):
            # the peak of ``call`` above the memory at its start; the
            # request's peak so far is kept before it is reset
            def run(*args):
                start = tracemalloc.get_traced_memory()[0]
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                out = call(*args)
                held[name] = tracemalloc.get_traced_memory()[1] - start
                return out
            return run

        monkeypatch.setattr(OnePassRegressor, "ingest",
                            traced("ingest", OnePassRegressor.ingest))
        monkeypatch.setattr(service, "_columns",
                            traced("columns", service._columns))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            request = decode_request(raw)
            decoded = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            assert handle_request(registry, request) == {"ok": True,
                                                         "n": 174_884}
            peak = max(peaks[1:] + [tracemalloc.get_traced_memory()[1]]) \
                - before
        finally:
            tracemalloc.stop()
        m = 74_884
        K = registry._streams["s"][0].start.size // 2
        assert table_bytes(2 * K, m, 2) > 4 * SPARE_BYTES
        assert 16 * basis.chunk_points(K, 2) > 64 << 10
        assert held["columns"] <= 96 * m
        assert held["ingest"] <= SPARE_BYTES + (64 << 10)
        assert peak <= decoded + (64 << 10) + max(
            held["columns"], 16 * m + held["ingest"])
        assert peak <= decoded + (64 << 10) + max(
            96 * m, 16 * m + SPARE_BYTES + (64 << 10))

    def test_a_repeated_maximal_request_maps_no_table_buffer(self,
                                                             monkeypatch):
        # the same request into a second stream in the same state takes
        # every table buffer from the spare that the first one left
        registry = StreamRegistry(ServiceConfig())
        raws = [self.maximal_request(registry, sid) for sid in ("a", "b")]
        handle_request(registry, decode_request(raws[0]))
        spare, take_buffer, taken = basis._spare, basis._take_buffer, []

        def take(count):
            taken.append(take_buffer(count))
            return taken[-1]

        monkeypatch.setattr(basis, "_take_buffer", take)
        handle_request(registry, decode_request(raws[1]))
        assert taken and all(buf is spare for buf in taken)

    @staticmethod
    def repeated_stream_faults(spare):
        """(slots, minor faults) of the second of two identical streams
        run in a fresh process, with or without the spare."""
        # With glibc's mmap threshold fixed at 128 KiB, as the benchmark
        # fixes it, every fresh table buffer is a new mapping and faults in
        # each page.  The second of two identical streams finds its buffer
        # in the spare: fewer minor faults than the pages of one call's
        # tables.  Without the spare each call maps its own (8 157
        # faults).  The trim threshold is fixed as well, so that glibc
        # handing the top of a small heap back to the kernel when a block
        # is freed, and faulting it in again later, cannot count against
        # the tables.
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from streamreg import basis\n"
            "from streamreg.basis import BasisSpec, PenaltySpec\n"
            "from streamreg.engine import OnePassRegressor\n"
            "from streamreg.scheduler import SchedulerConfig\n"
            f"if not {spare}:\n"
            "    basis._give_back = lambda buf: None\n"
            "rng = np.random.default_rng(21)\n"
            "ts = rng.uniform(0.0, 1.0, 100_000)\n"
            "ys = np.sin(5 * ts)\n"
            "def stream():\n"
            "    eng = OnePassRegressor(BasisSpec(0.0, 1.0),\n"
            "                           PenaltySpec('roughness'),\n"
            "                           SchedulerConfig(h=0.4))\n"
            "    for i in range(0, ts.size, 2000):\n"
            "        eng.ingest(ts[i:i + 2000], ys[i:i + 2000])\n"
            "    return eng.start.size\n"
            "stream()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "s = stream()\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(s, after - before)\n")
        out = run_fresh(code, MALLOC_MMAP_THRESHOLD_="131072",
                        MALLOC_TRIM_THRESHOLD_="67108864")
        return tuple(map(int, out.split()))

    def test_a_repeated_stream_maps_no_table_pages(self):
        s, faults = self.repeated_stream_faults(spare=True)
        assert s == 263
        assert faults < table_bytes(s, 2000, 2) // resource.getpagesize()

    def test_without_the_spare_a_repeated_stream_maps_its_pages(self):
        # the bound above is one the spare alone meets
        s, faults = self.repeated_stream_faults(spare=False)
        assert s == 263
        assert faults > table_bytes(s, 2000, 2) // resource.getpagesize()


@functools.cache
def checkpoint_bases():
    """Valid records to mutate: with and without the sketch, with a margin
    and a memory cap, and before any data."""
    sketch, known = make_engine(known=False), make_engine(known=True)
    capped = make_engine(known=False, mem_cap=30,
                         spec=BasisSpec(0.0, 1.0, extension_margin=0.1))
    for eng in (sketch, known, capped):
        feed(eng, *sample(3000, 20, np.sin))
    return {"sketch": sketch.checkpoint(), "known": known.checkpoint(),
            "capped": capped.checkpoint(),
            "empty": make_engine(known=False).checkpoint()}


def mutate(record, path, value):
    """``record`` with one field changed: ``path`` names it, and a last step
    of "+" or "-" appends ``value`` to a list or drops its last entry."""
    record = copy.deepcopy(record)
    *parents, last = path
    target = record
    for key in parents:
        target = target[key]
    if last == "+" or (isinstance(last, int) and not target):
        target.append(value)
    elif last == "-":
        if target:
            target.pop()
    elif isinstance(last, int):
        target[last % len(target)] = value
    else:
        target[last] = value
    return record


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
BIG_INTS = st.integers(-2 ** 70, 2 ** 70)
# JSON values that are not numbers
NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                        max_size=1))
# Values of the wrong JSON type for each kind of config field
WRONG = {
    # an int past the float range has no float value
    "real": st.one_of(NOT_NUMBERS, NON_FINITE, st.just(10 ** 400)),
    "count": st.one_of(NOT_NUMBERS, FLOATS),
    "optional count": st.one_of(NOT_NUMBERS.filter(lambda v: v is not None),
                                FLOATS),
    "flag": st.one_of(NOT_NUMBERS.filter(lambda v: type(v) is not bool),
                      BIG_INTS, FLOATS),
    "text": st.one_of(NOT_NUMBERS.filter(lambda v: type(v) is not str),
                      BIG_INTS, FLOATS),
}
CONFIG_KINDS = {"family": "text", "lo": "real", "hi": "real",
                "extension_margin": "real", "penalty": "text", "h": "real",
                "C_q": "real", "c_circ": "real", "q0": "count",
                "mem_cap": "optional count", "fixed_q": "optional count",
                "known_uniform_density": "flag"}
# Each constructor's fields, by kind: every WRONG value of its kind must be
# refused by the constructor itself, not first by a checkpoint loader
FIELD_KINDS = {
    BasisSpec: {"lo": "real", "hi": "real", "extension_margin": "real"},
    SchedulerConfig: {"h": "real", "q0": "count",
                      "mem_cap": "optional count"},
    OnePassRegressor: {"batch_size": "count",
                       "known_uniform_density": "flag"},
    ServiceConfig: {"lo": "real", "hi": "real", "extension_margin": "real",
                    "penalty": "text", "h": "real",
                    "mem_cap": "optional count",
                    "known_uniform_density": "flag", "batch_size": "count"},
}
REQUIRED = {BasisSpec: dict(lo=0.0, hi=1.0),
            OnePassRegressor: dict(reg_basis=UNIT, penalty=ROUGH,
                                   schedule=SchedulerConfig())}
ARRAYS = ("G", "theta", "start", "theta_start")
INDEX = st.integers(0, 10 ** 4)

MUTATIONS = st.one_of(
    st.tuples(st.just(("n",)),
              st.one_of(st.integers(max_value=-1),
                        st.integers(min_value=2 ** 63, max_value=2 ** 70),
                        st.integers(0, 10 ** 7), FLOATS, NOT_NUMBERS)),
    st.tuples(st.just(("batch_size",)),
              st.one_of(st.integers(max_value=0), FLOATS, NOT_NUMBERS)),
    st.tuples(st.just(("format",)), st.one_of(st.text(max_size=8),
                                              BIG_INTS, NOT_NUMBERS)),
    st.tuples(st.just(("config", "family")), st.one_of(
        st.text(max_size=8).filter(lambda v: v != "fourier"),
        WRONG["text"])),
    *[st.tuples(st.just(("config", key)), WRONG[kind])
      for key, kind in CONFIG_KINDS.items()],
    # one entry of a slot vector: another start, or a value of a wrong type
    st.tuples(st.tuples(st.sampled_from(["start", "theta_start"]), INDEX),
              st.one_of(BIG_INTS, FLOATS, NOT_NUMBERS)),
    st.tuples(st.tuples(st.sampled_from(["G", "theta"]), INDEX),
              st.one_of(NON_FINITE, NOT_NUMBERS)),
    # one vector one entry longer or shorter
    st.tuples(st.tuples(st.sampled_from(ARRAYS), st.just("+")),
              st.one_of(st.integers(1, 10 ** 6), st.floats(-1e3, 1e3))),
    st.tuples(st.tuples(st.sampled_from(ARRAYS), st.just("-")), st.none()),
)


# A checkpoint of a sketch engine with margin 0.1 and mem_cap = 30 after
# three seeded batches (``golden_engine``), as the v1 format writes it:
# slots 6 to 10 open inside the second batch, and the third runs at the
# cap of 10 slots.
GOLDEN_CHECKPOINT = (
    '{"format": "streamreg-checkpoint-v1", "n": 467, "batch_size": 100, '
    '"config": {"family": "fourier", "lo": 0.0, "hi": 1.0, '
    '"extension_margin": 0.1, "penalty": "roughness", "h": '
    '0.3333333333333333, "C_q": 0.5, "c_circ": 0.5, "q0": 5, "mem_cap": '
    '30, "fixed_q": null, "known_uniform_density": false}, "G": '
    '[-24.798102612754352, -29.971948285689457, 325.535425829872, '
    '60.82007464549258, -76.12343876312397, -3.2840604656328596, '
    '-46.720449671999006, -21.797301344648265, 11.112356459565046, '
    '7.1770402639126045], "start": [1, 1, 1, 1, 1, 13, 21, 32, 45, 62], '
    '"theta": [1.0, 0.02681997890786989, -0.08979983430970225, '
    '-0.014197633045420733, -0.006234677844181923, -0.008669259296501652, '
    '0.07266640297893986, 0.08472204936732596, 0.04482620564833045, '
    '-0.03475863300728113], "theta_start": [1, 1, 1, 1, 1, 13, 21, 32, '
    '45, 62]}')


def golden_engine():
    rng = np.random.default_rng(1010)
    eng = make_engine(known=False, mem_cap=30,
                      spec=BasisSpec(0.0, 1.0, extension_margin=0.1))
    for size in (7, 60, 400):
        ts = rng.uniform(0, 1, size)
        eng.ingest(ts, np.sin(6 * ts) + rng.normal(0, 0.3, size))
    return eng


class TestCheckpoint:
    def test_golden_checkpoint_is_byte_exact(self):
        assert golden_engine().checkpoint_json() == GOLDEN_CHECKPOINT
        resumed = OnePassRegressor.from_checkpoint(GOLDEN_CHECKPOINT)
        assert resumed.checkpoint_json() == GOLDEN_CHECKPOINT

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

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 400), min_size=2, max_size=16),
           cut=st.integers(1, 15), margin=st.sampled_from([0.0, 0.1]),
           mem_cap=st.sampled_from([None, 30]), sketch=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_resume_at_any_batch_cut_is_byte_exact(self, sizes, cut, margin,
                                                   mem_cap, sketch, seed):
        cut = min(cut, len(sizes) - 1)
        ts, ys = sample(sum(sizes), seed, lambda t: np.sin(6 * t))
        batches = np.split(np.arange(ts.size), np.cumsum(sizes)[:-1])

        def engine():
            return make_engine(known=not sketch, mem_cap=mem_cap,
                               spec=BasisSpec(0.0, 1.0, extension_margin=margin))

        def ingest(eng, part):
            for idx in part:
                eng.ingest(ts[idx], ys[idx])
            return eng

        full = ingest(engine(), batches).checkpoint_json()
        half = ingest(engine(), batches[:cut]).checkpoint_json()
        resumed = ingest(OnePassRegressor.from_checkpoint(half),
                         batches[cut:])
        assert resumed.checkpoint_json() == full

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None)
    @given(base=st.sampled_from(["capped", "empty", "known", "sketch"]),
           mutation=MUTATIONS)
    # records that loaded, raised a TypeError or hung before the config
    # values and vector entries had their types checked
    @example(base="capped", mutation=(("batch_size",), 0))
    @example(base="sketch", mutation=(("config", "q0"), 1e20))
    @example(base="sketch", mutation=(("config", "q0"), 5.0))
    @example(base="empty", mutation=(("config", "mem_cap"), 5.0))
    @example(base="known", mutation=(("config", "known_uniform_density"), 1))
    @example(base="sketch", mutation=(("config", "extension_margin"),
                                      math.nan))
    @example(base="known", mutation=(("config", "lo"), -math.inf))
    @example(base="sketch", mutation=(("start", 0), 1.0))
    @example(base="sketch", mutation=(("G", 0), "1"))
    @example(base="sketch", mutation=(("theta", 0), True))
    def test_single_field_mutation_is_rejected(self, base, mutation):
        record = checkpoint_bases()[base]
        path, value = mutation
        bad = mutate(record, path, value)
        if json.dumps(bad) == json.dumps(record):
            return  # not a change
        schedule = SchedulerConfig(**{key: record["config"][key] for key in (
            "h", "q0", "mem_cap")})
        if path == ("n",) and type(value) is int and 0 < value < 2 ** 63 \
                and schedule.slot_count(value) == len(record["start"]):
            return  # an n the schedule gives the same slots
        # a loader that let n = 2**63 through would search for its slots
        # forever: the limit turns that hang into a failure
        with within(10.0), pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint(bad)
        with within(10.0), pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint(json.dumps(bad))

    @pytest.mark.parametrize("base", ["sketch", "known", "capped", "empty"])
    def test_n_past_the_int64_range_is_refused_at_once(self, base):
        # at n = 2**63 every slot past the last has tau = NEVER = n, so a
        # search for its slots would never end: the range check refuses the
        # record first, within a second
        record = {**checkpoint_bases()[base], "n": 2 ** 63}
        with within(1.0), pytest.raises(CheckpointError,
                                        match=r"\[0, 2\*\*63\)"):
            OnePassRegressor.from_checkpoint(record)

    def test_the_largest_n_is_read(self):
        # n = 2**63 - 1 passes the range check.  A stream at its memory cap
        # holds the slots of every later n, so that record loads; the
        # uncapped one's slots do not match, and the size-first guard says
        # so before any start time is built
        bases = checkpoint_bases()
        capped = {**bases["capped"], "n": 2 ** 63 - 1}
        with within(1.0):
            reg = OnePassRegressor.from_checkpoint(capped)
        assert reg.checkpoint() == capped
        with within(1.0), pytest.raises(CheckpointError,
                                        match="does not match the schedule"):
            OnePassRegressor.from_checkpoint({**bases["sketch"],
                                              "n": 2 ** 63 - 1})

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
        eng = make_engine(known=True, q0=2, mem_cap=6)
        eng.ingest([0.5], [1.0])
        record = eng.checkpoint()
        del record["G"]
        with pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint(record)
        record = eng.checkpoint()
        record["config"]["family"] = "legendre"
        with pytest.raises(CheckpointError):
            OnePassRegressor.from_checkpoint(record)
        # the format keeps a fixed_q key, and only null is a configuration
        record = eng.checkpoint()
        record["config"]["fixed_q"] = 2
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
        # a record loads only if it is what the engine writes: an extra key,
        # top-level or in the config, is refused by name; key order is free
        extra_config = {**good, "config": {**good["config"], "note": 1}}
        for record, key in (({**good, "note": None}, "note"),
                            (extra_config, "config")):
            with pytest.raises(CheckpointError, match=f"'{key}'"):
                OnePassRegressor.from_checkpoint(record)
            with pytest.raises(CheckpointError, match=f"'{key}'"):
                OnePassRegressor.from_checkpoint(json.dumps(record))
        # G and theta hold floats, as the engine writes them: the same
        # values as ints are refused
        whole = [float(round(g)) for g in G]
        assert OnePassRegressor.from_checkpoint(
            {**good, "G": whole}).G.tolist() == whole
        with pytest.raises(CheckpointError, match="'G'"):
            OnePassRegressor.from_checkpoint(
                {**good, "G": [int(g) for g in whole]})
        reordered = {key: good[key] for key in reversed(good)}
        reordered["config"] = dict(reversed(good["config"].items()))
        assert list(reordered) != list(good)
        assert OnePassRegressor.from_checkpoint(
            json.dumps(reordered)).checkpoint_json() == sketch.checkpoint_json()

    @pytest.mark.parametrize("fields", [dict(n=2 ** 62), dict(n=0),
                                        dict(start=[1] * 6),
                                        dict(start=[1] * 4)])
    def test_start_of_the_wrong_length_opens_no_slot(self, monkeypatch,
                                                     fields):
        # the slot count is checked before any slot opens, so a record with
        # a huge n never builds its start vector
        eng = make_engine(known=False)
        eng.ingest([0.5], [1.0])
        assert eng.start.tolist() == [1] * 5

        def extend(*args):
            raise AssertionError("a slot opened")

        monkeypatch.setattr(SchedulerConfig, "extend", extend)
        with pytest.raises(CheckpointError, match="start"):
            OnePassRegressor.from_checkpoint({**eng.checkpoint(), **fields})


class TestDesignRecord:
    def test_a_sketch_record_holds_one_theta_per_slot(self):
        # the record's theta_start runs as far as its theta, so a theta and
        # a theta_start one entry short agree with each other, and only the
        # loader's shape check refuses them
        eng = make_engine(known=False)
        feed(eng, *sample(700, 41, np.sin))
        good = eng.checkpoint()
        short = {**good, "theta": good["theta"][:-1],
                 "theta_start": good["theta_start"][:-1]}
        with pytest.raises(CheckpointError, match="does not match"):
            OnePassRegressor.from_checkpoint(short)


class TestConstructors:
    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(*[
        st.tuples(st.just(cls), st.just(field), WRONG[kind])
        for cls, kinds in FIELD_KINDS.items()
        for field, kind in kinds.items()]))
    # values that the constructors took before they checked types
    @example(case=(SchedulerConfig, "q0", 1e20))
    @example(case=(SchedulerConfig, "h", math.inf))
    @example(case=(BasisSpec, "extension_margin", math.nan))
    @example(case=(OnePassRegressor, "batch_size", 7.5))
    @example(case=(BasisSpec, "hi", 10 ** 400))
    # the sketch's family is the unextended one
    @example(case=(DensityState, "basis",
                   BasisSpec(0.0, 1.0, extension_margin=0.1)))
    def test_wrong_field_value_is_rejected(self, case):
        cls, field, value = case
        with pytest.raises((ValueError, TypeError)):
            cls(**{**REQUIRED.get(cls, {}), field: value})


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

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("q", [1, 2, 3, 92, 93])
    def test_normal_equations_match_the_basis_matrix(self, margin, q):
        # both dense oracles sum in long double, so 1e4 points stay within
        # the bound (in double they rounded to 3e-15 and 9e-14 of their
        # largest entries); y > 0 makes the largest entry of Phi'Y / n the
        # size of its terms
        n = 10_000
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        rng = np.random.default_rng(q)
        ts = rng.uniform(0, 1, n)
        ys = rng.uniform(1, 2, n)
        H, rhs = normal_equations(spec, q, ts, ys)
        H_oracle = weighted_gram(spec, q, ts, np.full(n, 1 / n))
        rhs_oracle = (eval_matrix(spec, q, ts).astype(np.longdouble).T
                      @ ys / n).astype(float)
        assert H.shape == (q, q) and rhs.shape == (q,)
        np.testing.assert_array_equal(H, H.T)
        assert np.max(np.abs(H - H_oracle)) <= 4e-15 * np.max(np.abs(H_oracle))
        assert np.max(np.abs(rhs - rhs_oracle)) \
            <= 4e-15 * np.max(np.abs(rhs_oracle))

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("q", [1, 2, 15, 16, 92, 93])
    def test_normal_equations_have_the_out_of_place_bits(self, margin, q):
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        ts, ys = sample(3000, q, lambda t: np.sin(5 * t))
        ys[::7] = 0.0
        got = normal_equations(spec, q, ts, ys)
        want = normal_equations_out_of_place(spec, q, ts, ys)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_batch_fit_holds_one_set_of_tables(self, monkeypatch):
        # n = 1e5, q = 92: the tables hold z^0..z^12 and
        # (z^12)^0..(z^12)^7 times each of the unit and the y weights,
        # 44 MiB in one chunk, so the call folds them in chunks that fit
        # SPARE_BYTES.  Beside a chunk's tables, in which each weight forms
        # its own rows, it holds O(q) arrays; then come the Gram's assembly
        # and the solve, four (q + 1) x (q + 1) matrices at most.  A copy
        # of a weight's rows beside the tables, 16 x 8 = 128 bytes a point,
        # breaks the bound.
        n, q = 100_000, 92
        ts, ys = sample(n, 22, lambda t: np.sin(5 * t))
        monkeypatch.setattr(basis, "_spare", None)
        peak = traced_peak(batch_fit, ts, ys, UNIT, q, 1e-6, ROUGH)
        assert peak <= SPARE_BYTES + 16 * basis.chunk_points(q, 2) \
            + 32 * (q + 1) ** 2

    def test_normal_equations_reject_bad_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            normal_equations(UNIT, 3, [], [])
        with pytest.raises(DomainError):
            normal_equations(UNIT, 0, [0.5], [1.0])
        for t in (1.5, -0.1, math.nan):
            with pytest.raises(DomainError):
                normal_equations(UNIT, 3, [0.5, t], [1.0, 1.0])
        # one y was broadcast over every point from q = 16 on, fitting the
        # constant 2 to the sample
        ts, ys = sample(300, 8, lambda t: np.sin(5 * t))
        for q, y in itertools.product((5, 20), ([2.0], ys[:-1], ys[:, None])):
            with pytest.raises(ValueError, match="equal length"):
                batch_fit(ts, y, UNIT, q, 1e-3, ROUGH)

    def test_normal_equations_refuse_a_sample_that_is_not_one_dimensional(
            self, monkeypatch):
        def never(*args):
            raise AssertionError("a table was built")

        # a 0-d sample is a sample of one, as a 0-d batch is in ``ingest``
        want = normal_equations(UNIT, 3, [0.5], [1.0])
        for got, one in zip(normal_equations(UNIT, 3, np.array(0.5), 1.0),
                            want):
            assert got.tobytes() == one.tobytes()
        monkeypatch.setattr(basis, "moments", never)
        ts = np.full((2, 3), 0.5)
        with pytest.raises(ValueError, match="one-dimensional"):
            normal_equations(UNIT, 3, ts, np.ones_like(ts))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_y_is_refused_before_the_solve(self, monkeypatch,
                                                        bad):
        # the batch fit and every fold of the CV table read their sample as
        # ``ingest`` reads a batch, so a NaN or inf y is named as what it
        # is, not as a penalized system that holds one
        def never(*args):
            raise AssertionError("a system was solved")

        ts, ys = sample(1000, 23, np.cos)
        ys[17] = bad
        for module in ("engine", "tuning"):
            monkeypatch.setattr(f"streamreg.{module}.penalized_solve", never)
        with pytest.raises(ValueError, match="non-finite y"):
            batch_fit(ts, ys, UNIT, 5, 1e-3, ROUGH)
        with pytest.raises(ValueError, match="non-finite y"):
            cv_table(ts, ys, TuningGrid(n0=1000), ROUGH, UNIT)
