"""Streaming orthogonal-series density estimation (OSDE).

The sketch keeps one running mean per basis slot,

    theta_j = (1/n_j) * sum_{i >= tau_j} psi_j(T_i),    n_j = n - tau_j + 1,

where slots beyond the initial q0 open at their scheduled pre-estimation
time tau_j.  The density estimate at time n uses the active slots only:
f_hat(t) = sum_{j<=p} theta_j psi_j(t).
"""

import numpy as np

from . import basis as basis_mod
from . import quadrature
from .errors import DegenerateDensityError, StateError
from .scheduler import slot_counts


class DensityState:
    """One-pass orthogonal-series sketch of the predictor density: theta
    only.  The owning engine holds the slot ledger, validates and folds each
    batch (``update``) and sets ``active_count``."""

    def __init__(self, basis):
        self.basis = basis
        self.theta = np.zeros(0)
        self.active_count = 0  # slots in the estimate; set by the engine
        self._z = None  # normalizer of the clipped density; reset by update

    def update(self, start, sums, n_old, n_new):
        """Fold one batch's weight-1 slot sums into the running means.

        ``start`` is the engine's start vector at n_new, and ``sums`` the
        batch's per-slot sums over observations n_old+1, ..., n_new
        (``scheduler.fold``).
        """
        theta = self.theta
        if start.size > theta.size:
            theta = np.concatenate([theta, np.zeros(start.size - theta.size)])
        # a slot opened past n_new has no observation yet and keeps theta_j = 0
        counts_new = np.maximum(slot_counts(start, n_new), 1)
        self.theta = (slot_counts(start, n_old) * theta + sums) / counts_new
        self._z = None

    def evaluate(self, t):
        """Raw series estimate f_hat(t) over the active slots."""
        p = self.active_count
        if p < 1:
            raise StateError("density sketch has no active slot yet")
        return basis_mod.series(self.basis, self.theta[:p], t)

    def _clipped(self, n_nodes):
        """Quadrature rule on [lo, hi] with the clipped density max(0, f_hat)
        at its nodes, and its integral z."""
        x, w = quadrature.rule(self.basis.lo, self.basis.hi, n_nodes)
        fx = np.maximum(self.evaluate(x), 0.0)
        z = float(np.dot(w, fx))
        if z <= 0.0:
            raise DegenerateDensityError(
                "clipped density estimate integrates to zero"
            )
        return x, w, fx, z

    def evaluate_normalized(self, t):
        """Clipped-and-renormalized density: max(0, f_hat) / int max(0, f_hat).

        The normalizer is computed once per update and reused until the next.
        """
        if self._z is None:
            # the clipping kink limits quadrature accuracy, so use a dense rule
            self._z = self._clipped(max(1 << 15, 8 * self.active_count))[3]
        out = np.maximum(self.evaluate(t), 0.0) / self._z
        return float(out) if np.ndim(t) == 0 else out

    def gram(self, reg_basis, q):
        """Gram matrix H_q of the regression basis under the normalized density.

        Entries are int phi_j phi_l f_norm over the data domain by quadrature;
        using the clipped normalized density keeps the result PSD.
        """
        if q < 1:
            raise ValueError("q must be >= 1")
        p = self.active_count
        if p < 1:
            raise StateError("density sketch has no active slot yet")
        x, w, fx, z = self._clipped(quadrature.node_count(q, p))
        mu = basis_mod.moments(reg_basis, 2 * (q // 2), x, w * fx / z)
        return basis_mod.gram_from_moments(reg_basis, q, mu)
