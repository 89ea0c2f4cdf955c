import copy
import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cv_table_by_batch_fit, cv_tolerance
from streamreg import basis, tuning
from streamreg.basis import BasisSpec, PenaltySpec
from streamreg.errors import TuningError
from streamreg.tuning import (TuningGrid, cv_select, cv_table, deployable,
                              rho_at, write_tuning_report)

UNIT = BasisSpec(0.0, 1.0)
ROUGH = PenaltySpec("roughness")
IDENT = PenaltySpec("identity")


def noisy_sample(n, seed, sigma=0.3):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0, 1, n)
    ys = np.sqrt(2) * np.cos(2 * np.pi * ts) + rng.normal(0, sigma, n)
    return ts, ys


def picked(rows, spec, n_deploy):
    """Position of ``cv_select``'s uncapped pick, None if it refuses."""
    try:
        pick = cv_select(rows, spec, n_deploy, None)
    except TuningError:
        return None
    return next(i for i, r in enumerate(rows) if r is pick)


def assert_matches_oracle(ts, ys, grid, penalty, spec):
    """``cv_table`` against one ``batch_fit`` per grid point and fold: the
    same grid points and inf rows (se 0 there), cv and se within the
    derived ``cv_tolerance``, and the same pick when deploying to n0."""
    rows = cv_table(ts, ys, grid, penalty, spec)
    want = cv_table_by_batch_fit(ts, ys, grid, penalty, spec)
    tols = cv_tolerance(ts, ys, grid, penalty, spec)
    assert [np.isinf(r["cv"]) for r in rows] \
        == [np.isinf(r["cv"]) for r in want] == [t is None for t in tols]
    for got, ref, tol in zip(rows, want, tols):
        assert [got[k] for k in ("C_rho", "h", "rho")] \
            == [ref[k] for k in ("C_rho", "h", "rho")]
        if tol is None:
            assert got["se"] == ref["se"] == 0.0
        else:
            assert abs(got["cv"] - ref["cv"]) <= tol[0]
            assert abs(got["se"] - ref["se"]) <= tol[1]
    assert picked(rows, spec, grid.n0) == picked(want, spec, grid.n0)
    return rows


class TestRhoSchedule:
    def test_roughness_exponent(self):
        # zeta = 4 gives exponent (7h+1)/2; at h = 1/3 over n = 1e6 the decay
        # is n^(-5/3)
        assert rho_at(2.0, 1 / 3, 10 ** 6) == pytest.approx(2e-10, rel=1e-12)

    def test_flat_penalty_exponent(self):
        # zeta = 0 collapses the exponent to (1-h)/2
        assert rho_at(1.0, 1 / 3, 1000, zeta=0.0) == pytest.approx(0.1)

    def test_monotone_in_n(self):
        assert rho_at(1.0, 0.25, 10_000) < rho_at(1.0, 0.25, 1000)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rho_at(1.0, 0.25, 0)


class TestGridValidation:
    def test_defaults_are_valid(self):
        grid = TuningGrid()
        assert grid.J == 5 and grid.n0 == 1000
        assert len(grid.C_rho_grid) == 6 and len(grid.h_grid) == 5

    @pytest.mark.parametrize("kwargs", [
        dict(C_rho_grid=()),
        dict(C_rho_grid=(0.0, 1.0)),
        dict(h_grid=(0.0, 0.5)),
        dict(h_grid=(1.5,)),
        dict(J=1),
        dict(n0=3, J=5),
        dict(C_rho_grid=(float("nan"),)),
        dict(C_rho_grid=(1.0, float("inf"))),
        dict(C_rho_grid=("1.0",)),
        dict(C_rho_grid=1.0),
        dict(h_grid=(float("nan"),)),
        dict(h_grid=(0.25, "0.5")),
        dict(h_grid=(True,)),
        dict(J=2.5),
        dict(J="5"),
        dict(n0=1000.0),
    ])
    def test_bad_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TuningGrid(**kwargs)


class TestCvTable:
    def test_table_covers_full_grid(self):
        ts, ys = noisy_sample(300, 0)
        grid = TuningGrid(C_rho_grid=(0.1, 1.0), h_grid=(0.25, 1 / 3), n0=300)
        rows = cv_table(ts, ys, grid, ROUGH, UNIT)
        assert len(rows) == 4
        assert {(r["C_rho"], r["h"]) for r in rows} == {
            (0.1, 0.25), (0.1, 1 / 3), (1.0, 0.25), (1.0, 1 / 3)}
        assert all(r["cv"] >= 0 for r in rows)

    def test_cv_matches_hand_rolled_folds(self):
        """Independent recomputation of one grid point with explicit folds."""
        from streamreg.engine import batch_fit
        from streamreg.basis import eval_matrix
        from streamreg.scheduler import _floor

        ts, ys = noisy_sample(200, 1)
        grid = TuningGrid(C_rho_grid=(0.5,), h_grid=(0.25,), J=4, n0=200)
        rows = cv_table(ts, ys, grid, ROUGH, UNIT)
        q = max(5, _floor(200 ** 0.25 / 0.5))
        rho = 0.5 * 200 ** (-(7 * 0.25 + 1) / 2)
        cv = 0.0
        for j in range(4):
            mask = np.arange(200) % 4 != j
            coef = batch_fit(ts[mask], ys[mask], UNIT, q, rho, ROUGH)
            resid = ys[~mask] - eval_matrix(UNIT, q, ts[~mask]) @ coef
            cv += resid @ resid
        assert rows[0]["cv"] == pytest.approx(cv, rel=1e-12)

    def test_rho_follows_the_penalty_exponent(self):
        ts, ys = noisy_sample(300, 4)
        grid = TuningGrid(C_rho_grid=(0.1, 1.0), h_grid=(0.25, 1 / 3), n0=300)
        for pen, zeta in ((ROUGH, 4.0), (IDENT, 0.0)):
            for r in cv_table(ts, ys, grid, pen, UNIT):
                assert r["rho"] == rho_at(r["C_rho"], r["h"], 300, zeta)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("penalty", [ROUGH, IDENT])
    def test_rows_equal_one_batch_fit_per_grid_point(self, margin, penalty):
        # fold sums and leading blocks move only the rounding; the grids
        # repeat entries, which rows must keep apart by position
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        ts, ys = noisy_sample(300, 8)
        grid = TuningGrid(C_rho_grid=(1e-3, 0.1, 1e-3, 10.0),
                          h_grid=(0.25, 0.4, 0.25), J=4, n0=300)
        rows = assert_matches_oracle(ts, ys, grid, penalty, spec)
        assert all(np.isfinite(r["cv"]) for r in rows)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("penalty", [ROUGH, IDENT])
    @settings(max_examples=25, deadline=None)
    @given(n0=st.integers(20, 300), J=st.integers(2, 6),
           seed=st.integers(0, 2 ** 16),
           C_rho_grid=st.lists(st.sampled_from([10.0 ** k
                                                for k in range(-8, 3)]),
                               min_size=1, max_size=3),
           h_grid=st.lists(st.floats(0.1, 0.8), min_size=1, max_size=3))
    def test_rows_match_the_batch_fit_oracle(self, margin, penalty, n0, J,
                                             seed, C_rho_grid, h_grid):
        # grids up to h = 0.8 on 20 points reach q past n_t, so some rows
        # are refused and must be refused alike
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        ts, ys = noisy_sample(n0, seed)
        grid = TuningGrid(C_rho_grid=C_rho_grid, h_grid=h_grid, J=J, n0=n0)
        assert_matches_oracle(ts, ys, grid, penalty, spec)

    def test_each_fold_is_reduced_once(self, monkeypatch):
        # the default grid on a 1000-point warm-up: one normal_equations
        # call per fold and no basis matrix
        calls = {"normal_equations": 0, "eval_matrix": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tuning, "normal_equations",
                            counted("normal_equations",
                                    tuning.normal_equations))
        monkeypatch.setattr(basis, "eval_matrix",
                            counted("eval_matrix", basis.eval_matrix))
        ts, ys = noisy_sample(1000, 10)
        rows = cv_table(ts, ys, TuningGrid(), ROUGH, UNIT)
        assert len(rows) == 30
        assert calls == {"normal_equations": 5, "eval_matrix": 0}

    def test_failed_fold_gives_inf_row(self):
        # 10 training points for 21 extended-basis functions (h = 0.8): with
        # the smallest rho a fold's Cholesky fails, with C_rho = 1e-6 both
        # fold systems factor but have rcond below RCOND_FLOOR (about 7e-14),
        # and with C_rho = 1 they are solved; every h = 0.5 point is solved
        spec = BasisSpec(0.0, 1.0, extension_margin=0.3)
        rng = np.random.default_rng(7)
        ts = rng.uniform(0, 1, 20)
        ys = np.sin(6 * ts) + rng.normal(0, 0.3, 20)
        grid = TuningGrid(C_rho_grid=(1e-12, 1e-6, 1.0), h_grid=(0.5, 0.8),
                          J=2, n0=20)
        rows = assert_matches_oracle(ts, ys, grid, ROUGH, spec)
        assert [np.isinf(r["cv"]) for r in rows] == [
            False, True, False, True, False, False]
        assert rows[1]["se"] == rows[3]["se"] == 0.0

    def test_short_sample_rejected(self):
        ts, ys = noisy_sample(50, 2)
        with pytest.raises(ValueError):
            cv_table(ts, ys, TuningGrid(n0=1000), ROUGH, UNIT)

    def test_only_prefix_is_used(self):
        ts, ys = noisy_sample(400, 3)
        grid = TuningGrid(C_rho_grid=(1.0,), h_grid=(0.25,), n0=300)
        rows_a = cv_table(ts, ys, grid, ROUGH, UNIT)
        ys2 = ys.copy()
        ys2[300:] = 99.0
        rows_b = cv_table(ts, ys2, grid, ROUGH, UNIT)
        assert rows_a[0]["cv"] == rows_b[0]["cv"]


class TestSelect:
    def test_prefers_good_fit(self):
        # a smooth low-frequency target under moderate noise should not pick
        # the most aggressive penalty in the grid
        ts, ys = noisy_sample(1000, 4, sigma=0.2)
        grid = TuningGrid(C_rho_grid=(1e-3, 1e2), h_grid=(0.25,))
        rows = cv_table(ts, ys, grid, ROUGH, UNIT)
        pick = cv_select(rows, UNIT, 1000, None)  # margin 0 admits every row
        assert pick["h"] == 0.25
        heavy = next(r for r in rows if r["C_rho"] == 1e2)
        light = next(r for r in rows if r["C_rho"] == 1e-3)
        assert light["cv"] < heavy["cv"]
        assert pick is light

    def test_tie_breaks_toward_more_regularization(self):
        # duplicated grid entries produce exact ties; the larger rho wins,
        # then the smaller h
        ts, ys = noisy_sample(200, 5)
        grid = TuningGrid(C_rho_grid=(1.0, 1.0), h_grid=(0.25, 0.25), n0=200)
        rows = cv_table(ts, ys, grid, ROUGH, UNIT)
        cvs = [r["cv"] for r in rows]
        assert max(cvs) - min(cvs) == 0.0
        pick = cv_select(rows, UNIT, 200, None)
        assert (pick["C_rho"], pick["h"]) == (1.0, 0.25)

    def test_report_round_trips(self, tmp_path):
        ts, ys = noisy_sample(200, 6)
        grid = TuningGrid(C_rho_grid=(0.1, 1.0), h_grid=(0.25,), n0=200)
        rows = cv_table(ts, ys, grid, ROUGH, UNIT)
        pick = cv_select(rows, UNIT, 200, None)
        path = tmp_path / "tuning.csv"
        write_tuning_report(path, rows, pick, UNIT, 200)
        with open(path) as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(rows)
        assert sum(int(r["selected"]) for r in records) == 1
        chosen = next(r for r in records if r["selected"] == "1")
        assert float(chosen["C_rho"]) == pick["C_rho"]
        assert [float(r["se"]) for r in records] == [r["se"] for r in rows]
        assert [r["deployable"] for r in records] == ["1", "1"]

    def test_screen_leaves_the_rows_unchanged(self):
        # at margin 0.1 the design Gram degenerates once q passes about 39,
        # so deploying to n = 1e5 screens out every h above 0.2 uncapped
        # and none under a 30-unit cap, nor (q <= 20) at n = 100; the rows
        # must serve every screen
        spec = BasisSpec(0.0, 1.0, extension_margin=0.1)
        ts, ys = noisy_sample(500, 9)
        grid = TuningGrid(C_rho_grid=(1e-3, 1.0), h_grid=(0.2, 0.5), n0=500)
        rows = cv_table(ts, ys, grid, ROUGH, spec)
        before = copy.deepcopy(rows)
        admit_all = cv_select(rows, spec, 100, None)
        assert admit_all["h"] == 0.5
        assert cv_select(rows, spec, 100_000, None)["h"] == 0.2
        assert rows == before
        assert cv_select(rows, spec, 100_000, 30) is admit_all
        assert rows == before

    def test_nothing_deployable_is_a_tuning_error(self):
        spec = BasisSpec(0.0, 1.0, extension_margin=0.1)
        ts, ys = noisy_sample(500, 9)
        grid = TuningGrid(C_rho_grid=(1.0,), h_grid=(0.5,), n0=500)
        rows = cv_table(ts, ys, grid, ROUGH, spec)
        # the screen, not the CV, emptied the grid, and the message says so
        with pytest.raises(TuningError, match=(
                "every grid point that cross-validated outgrows the "
                "identifiable basis count by n_deploy = 100000 under "
                "mem_cap = None")):
            cv_select(rows, spec, 100_000, None)
        assert np.isfinite(rows[0]["cv"])


    def test_a_grid_that_failed_cross_validation_says_so(self):
        rows = [{"C_rho": 1.0, "h": h, "rho": 1e-3, "cv": float("inf"),
                 "se": 0.0} for h in (0.2, 0.25)]
        with pytest.raises(TuningError,
                           match="every grid point failed cross-validation"):
            cv_select(rows, UNIT, 1000, None)


class TestDeployable:
    @pytest.mark.parametrize("length", [1e-3, 0.7, 1.0, 3.0, 2.5e4])
    def test_margin_zero_matches_the_gram_spectrum(self, length):
        spec = BasisSpec(-0.5, -0.5 + length)
        for q in (1, 2, 3, 92, 633):
            H = basis.gram_uniform(spec, q)
            assert tuning._min_gram_eigenvalue(spec, q) == \
                np.min(np.linalg.eigvalsh(H))

    def test_margin_zero_builds_no_gram(self):
        # h = 0.8 reaches q = 20 000 at n = 1e5: a 3.2 GB Gram if built
        tracemalloc.start()
        try:
            assert deployable(UNIT, 0.8, 100_000, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
