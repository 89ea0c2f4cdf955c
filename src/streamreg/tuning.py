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
    if spec.extension_margin == 0.0:  # gram_uniform is I_q / (hi - lo)
        return 1.0 / (spec.hi - spec.lo)
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

    Each fold is reduced once, at the grid's largest q, to its size and its
    unscaled Phi'Phi, Phi'y and y'y; a smaller q reads the leading blocks.
    A grid point fits each fold's complement on the other folds' summed
    system over their size, the system ``batch_fit`` solves, and scores the
    held-out fold from its own sums as y'y - 2 a'Phi'y + a'Phi'Phi a, so no
    basis matrix is built.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size < grid.n0:
        raise ValueError(f"warm-up requires at least n0={grid.n0} observations")
    qs = [SchedulerConfig(h=h).active_count(grid.n0) for h in grid.h_grid]
    Q, J = max(qs), grid.J
    m, yy = np.empty(J), np.empty(J)
    A, b = np.empty((J, Q, Q)), np.empty((J, Q))
    for j in range(J):
        t, y = ts[j:grid.n0:J], ys[j:grid.n0:J]
        H, rhs = normal_equations(spec, Q, t, y)
        m[j], A[j], b[j], yy[j] = t.size, H * t.size, rhs * t.size, y @ y
    # fold j's training system: the other folds' sums over their size
    n_train = grid.n0 - m
    H_train = (A.sum(0) - A) / n_train[:, None, None]
    rhs_train = (b.sum(0) - b) / n_train[:, None]
    Ws = [basis_mod.penalty_matrix(spec, penalty, q) for q in qs]

    rows = []
    for C_rho in grid.C_rho_grid:
        for h, q, W in zip(grid.h_grid, qs, Ws):
            rho = rho_at(C_rho, h, grid.n0, penalty.zeta)
            try:
                cvs = []
                for j in range(J):
                    a = penalized_solve(H_train[j, :q, :q], W, rho,
                                        rhs_train[j, :q], None)[0]
                    cvs.append(float(yy[j] - 2.0 * (a @ b[j, :q])
                                     + a @ A[j, :q, :q] @ a))
                cv = sum(cvs)
                se = float(np.std(cvs, ddof=1) * np.sqrt(grid.J))
            except IllConditionedSystemError:
                cv, se = float("inf"), 0.0
            rows.append({"C_rho": C_rho, "h": h, "rho": rho, "cv": cv,
                         "se": se})
    return rows


def cv_select(rows, spec, n_deploy, mem_cap):
    """The row of a ``cv_table`` that sets (C_rho, h) for deployment to
    ``n_deploy`` under ``mem_cap`` (None = unconstrained).

    Grid points whose schedule would outgrow the numerically identifiable
    basis count by time n_deploy are left out; among the rest whose CV lies
    within one fold-to-fold standard error of the minimum, the most
    regularized one wins (largest rho, then smallest h; exact ties too).
    The rows are not changed, so one table serves every memory cap.
    """
    fitted = [r for r in rows if np.isfinite(r["cv"])]
    if not fitted:
        raise TuningError("no feasible tuning: every grid point failed "
                          "cross-validation")
    feasible = [r for r in fitted
                if deployable(spec, r["h"], n_deploy, mem_cap)]
    if not feasible:
        raise TuningError(
            f"no feasible tuning: every grid point that cross-validated "
            f"outgrows the identifiable basis count by n_deploy = "
            f"{n_deploy} under mem_cap = {mem_cap}")
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
