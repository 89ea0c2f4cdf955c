import csv

import numpy as np
import pytest

from streamreg.basis import BasisSpec, PenaltySpec
from streamreg.tuning import (TuningGrid, cv_select, cv_table, rho_at,
                              write_tuning_report)

UNIT = BasisSpec(0.0, 1.0)
ROUGH = PenaltySpec("roughness")
IDENT = PenaltySpec("identity")


def noisy_sample(n, seed, sigma=0.3):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0, 1, n)
    ys = np.sqrt(2) * np.cos(2 * np.pi * ts) + rng.normal(0, sigma, n)
    return ts, ys


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
        C_rho, h, rows = cv_select(ts, ys, grid, ROUGH, UNIT)
        assert h == 0.25
        heavy = next(r for r in rows if r["C_rho"] == 1e2)
        light = next(r for r in rows if r["C_rho"] == 1e-3)
        assert light["cv"] < heavy["cv"]
        assert C_rho == 1e-3

    def test_tie_breaks_toward_more_regularization(self):
        # duplicated grid entries produce exact ties; the larger rho wins,
        # then the smaller h
        ts, ys = noisy_sample(200, 5)
        grid = TuningGrid(C_rho_grid=(1.0, 1.0), h_grid=(0.25, 0.25), n0=200)
        C_rho, h, rows = cv_select(ts, ys, grid, ROUGH, UNIT)
        cvs = [r["cv"] for r in rows]
        assert max(cvs) - min(cvs) == 0.0
        assert (C_rho, h) == (1.0, 0.25)

    def test_report_round_trips(self, tmp_path):
        ts, ys = noisy_sample(200, 6)
        grid = TuningGrid(C_rho_grid=(0.1, 1.0), h_grid=(0.25,), n0=200)
        C_rho, h, rows = cv_select(ts, ys, grid, ROUGH, UNIT)
        path = tmp_path / "tuning.csv"
        write_tuning_report(path, rows, (C_rho, h))
        with open(path) as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == len(rows)
        assert sum(int(r["selected"]) for r in records) == 1
        chosen = next(r for r in records if r["selected"] == "1")
        assert float(chosen["C_rho"]) == C_rho
