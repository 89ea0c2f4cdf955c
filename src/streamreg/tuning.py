"""Semi data-driven selection of (C_rho, h) on a warm-up prefix.

The penalty level follows the schedule rho = C_rho * n^(-((2*zeta-1)h+1)/2),
where zeta is the growth exponent of the penalty's spectrum, taken from
``PenaltySpec.zeta``: the Fourier roughness penalty has zeta = 4, giving
C_rho * n^(-(7h+1)/2), and the identity has zeta = 0.  The pair (C_rho, h) is
chosen by J-fold cross-validation of the non-streaming fit on the first n0
observations.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import normal_equations, penalized_solve
from . import basis as basis_mod
from .basis import is_count, is_real, require
from .errors import IllConditionedSystemError, TuningError
from .scheduler import SchedulerConfig

DEFAULT_C_RHO_GRID = tuple(10.0 ** k for k in range(-3, 3))
DEFAULT_H_GRID = (1 / 5, 1 / 4, 1 / 3, 2 / 5, 1 / 2)

# Smallest design-Gram eigenvalue at which the deployed basis count is still
# considered numerically identifiable (extension bases degenerate fast).
GRAM_EIG_FLOOR = 1e-8


def _entries(valid):
    """Test that a grid is a non-empty tuple or list of entries that pass
    ``valid``."""
    return lambda grid: (isinstance(grid, (tuple, list)) and len(grid) > 0
                         and all(map(valid, grid)))


@dataclass(frozen=True)
class TuningGrid:
    C_rho_grid: tuple = DEFAULT_C_RHO_GRID
    h_grid: tuple = DEFAULT_H_GRID
    J: int = 5
    n0: int = 1000

    def __post_init__(self):
        require(_entries(lambda c: is_real(c) and c > 0),
                "a non-empty sequence of finite numbers > 0", self,
                "C_rho_grid")
        require(_entries(lambda h: is_real(h) and 0 < h < 1),
                "a non-empty sequence of finite numbers in (0, 1)", self,
                "h_grid")
        require(is_count, "an integer", self, "J", "n0")
        if self.J < 2:
            raise ValueError("J must be >= 2")
        if self.n0 < self.J:
            raise ValueError("warm-up size must be at least J")


def rho_at(C_rho, h, n, zeta=4.0):
    """Penalty level at sample size n for the given schedule parameters."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exponent = ((2.0 * zeta - 1.0) * h + 1.0) / 2.0
    return C_rho * float(n) ** (-exponent)


@lru_cache(maxsize=64)
def _min_gram_eigenvalue(spec, q):
    H = np.asarray(basis_mod.gram_uniform(spec, q))
    return float(np.min(np.linalg.eigvalsh(H)))


def deployable(spec, h, n, mem_cap):
    """Whether the basis count the schedule reaches by time n stays
    numerically identifiable (design-Gram eigenvalues above the floor)."""
    q = SchedulerConfig(h=h, mem_cap=mem_cap).active_count(n)
    return _min_gram_eigenvalue(spec, q) >= GRAM_EIG_FLOOR


def cv_table(ts, ys, grid, penalty, spec):
    """Cross-validation error for every grid point.

    Folds are assigned round-robin by arrival index so results are
    reproducible without storing a permutation.  A grid point with a fold
    system that ``penalized_solve`` refuses, as the engine would, is
    assigned +inf.  Each row also carries the fold-to-fold standard error of
    the CV sum.  Rows run over C_rho, then h, in grid order.

    Each fold's normal equations (from Fourier moments) and held-out basis
    matrix depend on h alone, so they are formed once per (h, fold) and
    solved for every C_rho: each solve is the one ``batch_fit`` makes.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size < grid.n0:
        raise ValueError(f"warm-up requires at least n0={grid.n0} observations")
    ts = ts[: grid.n0]
    ys = ys[: grid.n0]
    folds = np.arange(grid.n0) % grid.J

    columns = []  # columns[i][c]: grid point (C_rho_grid[c], h_grid[i])
    for h in grid.h_grid:
        q = SchedulerConfig(h=h).active_count(grid.n0)
        W = basis_mod.penalty_matrix(spec, penalty, q)
        rhos = [rho_at(C_rho, h, grid.n0, penalty.zeta)
                for C_rho in grid.C_rho_grid]
        fold_cv = [[] for _ in rhos]  # None once a fold fit has failed
        for j in range(grid.J):
            train = folds != j
            H, rhs = normal_equations(spec, q, ts[train], ys[train])
            V = basis_mod.eval_matrix(spec, q, ts[~train])
            for c, rho in enumerate(rhos):
                if fold_cv[c] is None:
                    continue
                try:
                    coef = penalized_solve(H, W, rho, rhs)
                except IllConditionedSystemError:
                    fold_cv[c] = None
                    continue
                resid = ys[~train] - V @ coef
                fold_cv[c].append(float(np.dot(resid, resid)))
        column = []
        for C_rho, rho, cvs in zip(grid.C_rho_grid, rhos, fold_cv):
            if cvs is None:
                cv, se = float("inf"), 0.0
            else:
                cv = sum(cvs)
                se = float(np.std(cvs, ddof=1) * np.sqrt(grid.J))
            column.append({"C_rho": C_rho, "h": h, "rho": rho, "cv": cv,
                           "se": se})
        columns.append(column)
    # by position, not value: the grids may repeat entries
    return [column[c] for c in range(len(grid.C_rho_grid))
            for column in columns]


def cv_select(rows, spec, n_deploy=None, mem_cap=None):
    """The row of a ``cv_table`` that sets (C_rho, h).

    Selection is the one-standard-error rule: among grid points whose CV lies
    within one fold-to-fold standard error of the minimum, take the most
    regularized one (largest rho, then smallest h).  When ``n_deploy`` is
    given, grid points whose schedule would outgrow the numerically
    identifiable basis count by time n_deploy are left out first.  The rows
    are not changed, so one table serves every memory cap.  Exact ties break
    toward larger rho, then smaller h.
    """
    feasible = [r for r in rows if np.isfinite(r["cv"]) and (
        n_deploy is None or deployable(spec, r["h"], n_deploy, mem_cap))]
    if not feasible:
        raise TuningError("no feasible tuning: every grid point failed")
    best = min(feasible, key=lambda r: (r["cv"], -r["rho"], r["h"]))
    within = [r for r in feasible if r["cv"] <= best["cv"] + best["se"]]
    return max(within, key=lambda r: (r["rho"], -r["h"]))


def write_tuning_report(path, rows, selected, spec, n_deploy):
    """CSV report of the CV table with the ``selected`` row flagged.

    Each row also carries its fold standard error and whether it passes
    ``cv_select``'s deployment screen at ``n_deploy`` (uncapped), so the
    one-standard-error pick can be checked from the file alone.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["C_rho", "h", "rho", "cv", "se", "deployable",
                         "selected"])
        for r in rows:
            writer.writerow([r["C_rho"], r["h"], r["rho"], r["cv"], r["se"],
                             int(deployable(spec, r["h"], n_deploy, None)),
                             int(r is selected)])
