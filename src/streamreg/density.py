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
from .errors import DegenerateDensityError, DomainError, StateError
from .scheduler import fold, slot_counts


class DensityState:
    """One-pass orthogonal-series sketch of the predictor density."""

    def __init__(self, basis, schedule):
        self.basis = basis
        self.schedule = schedule
        self.n = 0
        self.theta = np.zeros(0)
        self.start = np.zeros(0, dtype=np.int64)
        self._z = None  # normalizer of the clipped density; reset by update

    @property
    def active_count(self):
        """Number of slots currently contributing to the density estimate."""
        if self.n < 1:
            return 0
        return min(self.schedule.active_count(self.n), self.theta.size)

    def update(self, ts, vals=None):
        """Fold one batch of predictor observations into the sketch.

        ``vals`` is the sketch basis at ``ts`` with one column per slot the
        batch leaves open, when the caller has already evaluated it; it is
        evaluated here otherwise.  The batch is validated before any
        mutation, so a domain error leaves the state unchanged.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.size == 0:
            raise ValueError("batch must be non-empty")
        if not self.basis.contains(ts):
            raise DomainError("batch contains t values outside the domain")

        n_old = self.n
        n_new = n_old + ts.size
        start = self.schedule.extend(self.start, n_new)
        if vals is None:
            vals = basis_mod.eval_matrix(self.basis, start.size, ts,
                                         check_domain=False)
        theta = np.concatenate([self.theta,
                                np.zeros(start.size - self.theta.size)])
        sums = fold(vals, np.ones(ts.size), start, n_old)
        # a slot opened past n_new has no observation yet and keeps theta_j = 0
        counts_new = np.maximum(slot_counts(start, n_new), 1)
        self.theta = (slot_counts(start, n_old) * theta + sums) / counts_new
        self.start, self.n = start, n_new
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
        return basis_mod.weighted_gram(reg_basis, q, x, w * fx / z)
