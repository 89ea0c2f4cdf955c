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

from .engine import batch_fit
from . import basis as basis_mod
from .errors import IllConditionedSystemError, TuningError
from .scheduler import SchedulerConfig

DEFAULT_C_RHO_GRID = tuple(10.0 ** k for k in range(-3, 3))
DEFAULT_H_GRID = (1 / 5, 1 / 4, 1 / 3, 2 / 5, 1 / 2)

# Smallest design-Gram eigenvalue at which the deployed basis count is still
# considered numerically identifiable (extension bases degenerate fast).
GRAM_EIG_FLOOR = 1e-8


@dataclass(frozen=True)
class TuningGrid:
    C_rho_grid: tuple = DEFAULT_C_RHO_GRID
    h_grid: tuple = DEFAULT_H_GRID
    J: int = 5
    n0: int = 1000

    def __post_init__(self):
        if len(self.C_rho_grid) == 0 or len(self.h_grid) == 0:
            raise ValueError("tuning grids must be non-empty")
        if any(c <= 0 for c in self.C_rho_grid):
            raise ValueError("C_rho grid entries must be positive")
        if any(not 0 < h < 1 for h in self.h_grid):
            raise ValueError("h grid entries must lie in (0, 1)")
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


def deployable(spec, h, n, mem_cap=None):
    """Whether the basis count the schedule reaches by time n stays
    numerically identifiable (design-Gram eigenvalues above the floor)."""
    q = SchedulerConfig(h=h, mem_cap=mem_cap).active_count(n)
    return _min_gram_eigenvalue(spec, q) >= GRAM_EIG_FLOOR


def cv_table(ts, ys, grid, penalty, spec):
    """Cross-validation error for every grid point.

    Folds are assigned round-robin by arrival index so results are
    reproducible without storing a permutation.  A grid point whose fold fit
    fails the SPD factorization is assigned +inf.  Each row also carries the
    fold-to-fold standard error of the CV sum.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size < grid.n0:
        raise ValueError(f"warm-up requires at least n0={grid.n0} observations")
    ts = ts[: grid.n0]
    ys = ys[: grid.n0]
    folds = np.arange(grid.n0) % grid.J

    rows = []
    for C_rho in grid.C_rho_grid:
        for h in grid.h_grid:
            q = SchedulerConfig(h=h).active_count(grid.n0)
            rho = rho_at(C_rho, h, grid.n0, penalty.zeta)
            fold_cv = []
            try:
                for j in range(grid.J):
                    train = folds != j
                    coef = batch_fit(ts[train], ys[train], spec, q, rho, penalty)
                    V = basis_mod.eval_matrix(spec, q, ts[~train])
                    resid = ys[~train] - V @ coef
                    fold_cv.append(float(np.dot(resid, resid)))
                cv = sum(fold_cv)
                se = float(np.std(fold_cv, ddof=1) * np.sqrt(grid.J))
            except IllConditionedSystemError:
                cv, se = float("inf"), 0.0
            rows.append({"C_rho": C_rho, "h": h, "rho": rho, "cv": cv,
                         "se": se})
    return rows


def cv_select(ts, ys, grid, penalty, spec, n_deploy=None, mem_cap=None):
    """Pick (C_rho, h) from the CV table.

    Selection is the one-standard-error rule: among grid points whose CV lies
    within one fold-to-fold standard error of the minimum, take the most
    regularized one (largest rho, then smallest h).  When ``n_deploy`` is
    given, grid points whose schedule would outgrow the numerically
    identifiable basis count by time n_deploy are marked infeasible first.
    Exact ties break toward larger rho, then smaller h.
    """
    rows = cv_table(ts, ys, grid, penalty, spec)
    if n_deploy is not None:
        for r in rows:
            if not deployable(spec, r["h"], n_deploy, mem_cap=mem_cap):
                r["cv"] = float("inf")
    feasible = [r for r in rows if np.isfinite(r["cv"])]
    if not feasible:
        raise TuningError("no feasible tuning: every grid point failed")
    best = min(feasible, key=lambda r: (r["cv"], -r["rho"], r["h"]))
    within = [r for r in feasible if r["cv"] <= best["cv"] + best["se"]]
    pick = max(within, key=lambda r: (r["rho"], -r["h"]))
    return pick["C_rho"], pick["h"], rows


def write_tuning_report(path, rows, selected):
    """CSV report of the CV table with the argmin row flagged."""
    c_sel, h_sel = selected
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["C_rho", "h", "rho", "cv", "selected"])
        for r in rows:
            flag = int(r["C_rho"] == c_sel and r["h"] == h_sel)
            writer.writerow([r["C_rho"], r["h"], r["rho"], r["cv"], flag])
