"""Streaming orthogonal-series density estimation (OSDE).

The sketch keeps one running mean per basis slot,

    theta_j = (1/n_j) * sum_{i >= tau_j} psi_j(T_i),    n_j = n - tau_j + 1,

where slots beyond the initial q0 open at their scheduled pre-estimation
time tau_j.  The density estimate at time n uses the active slots only:
f_hat(t) = sum_{j<=p} theta_j psi_j(t).  The engine holds the ledger and
hands ``DensityState.update`` each batch's slot sums and counts n_j.

Queries use the clipped and renormalized max(0, f_hat) / z.  The sketch
family is orthonormal on [lo, hi] (no extension margin), so every basis
function but the constant integrates to zero there: when f_hat >= 0 is
proven (``certified``), clipping is the identity, z = theta_1 sqrt(P) and
the Fourier moments of the normalized density are read off theta.  The
proof is O(p) for a near-uniform sketch, whose constant term outweighs the
l1 norm of the others; an FFT grid test decides the rest.  An uncertified
sketch integrates max(0, f_hat) by quadrature.

A design density known to be uniform is the sketch's peer,
``UniformDensity``: it answers the same queries in closed form, and holds
and folds nothing.
"""

import math

import numpy as np

from . import basis as basis_mod
from . import quadrature
from .errors import DegenerateDensityError, StateError

_EPS = float(np.finfo(float).eps)


class DensityState:
    """One-pass orthogonal-series sketch of the predictor density: theta
    only.  The owning engine holds the slot ledger, hands ``update`` each
    batch's sums and counts and sets ``active_count``."""

    def __init__(self, basis):
        # running means estimate a density in a family orthonormal on [lo, hi]
        if basis.extension_margin != 0:
            raise ValueError("a density sketch's basis has no extension margin")
        self.basis = basis
        self.theta = np.zeros(0)
        self.active_count = 0  # slots in the estimate; set by the engine
        # normalizer of the clipped density and the non-negativity
        # certificate, computed on first use after each update
        self._z = self._certified = None

    def update(self, sums, counts, m):
        """Fold one batch of ``m`` observations into the running means.

        ``sums`` are the batch's weight-1 slot sums (``scheduler.fold``) and
        ``counts`` the slot counts n_j after it, both from the engine.
        """
        theta = self.theta
        if counts.size > theta.size:
            theta = np.concatenate([theta,
                                    np.zeros(counts.size - theta.size)])
        # every open slot has tau_j <= n, so its new count is >= 1; a slot
        # that opened inside the batch, past its first observation, has an
        # old count of 0, so that its zero keeps the sign of its sum
        self.theta = (np.maximum(counts - m, 0) * theta + sums) / counts
        self._z = self._certified = None

    def evaluate(self, t):
        """Raw series estimate f_hat(t) over the active slots."""
        p = self.active_count
        if p < 1:
            raise StateError("density sketch has no active slot yet")
        return basis_mod.series(self.basis, self.theta[:p], t)

    def certified(self):
        """Whether f_hat >= 0 on all of [lo, hi] is proven; decided on first
        use after each update, as a ``bool``.

        Two sufficient tests; the sketch is certified when either passes.

        The coefficient bound, O(p): every |phi_j| <= sqrt(2/P) for j >= 2,
        so f_hat(t) >= (theta_1 - sqrt(2) sum_{j>=2} |theta_j|) / sqrt(P)
        everywhere.  That figure must exceed 8 p eps times the coefficients'
        l1 norm, which covers the rounding of the sum and of ``evaluate``'s
        Horner's rule.  A near-uniform sketch passes it.

        The grid test, when the bound fails: with K = p // 2, f_hat is a
        trigonometric polynomial of degree K in x = 2 pi (t - lo) / P.  One
        inverse real FFT evaluates it on N = max(4096, 64 K) equispaced
        points, and every x lies within pi / N of one of them.  Bernstein's
        inequality, sup |f_hat'| <= K sup |f_hat| in x (Zygmund,
        *Trigonometric Series*, ch. X), then gives
        sup |f_hat| <= M / (1 - pi K / N) for the grid maximum M of |f_hat|,
        and f_hat >= 0 wherever the grid minimum exceeds pi K / N times that.
        Both grid figures are widened by N eps times the coefficients' l1
        norm, which covers the rounding of the FFT and of ``evaluate``.
        """
        if self._certified is None:
            p = self.active_count
            self._certified = bool(p >= 1 and (self._bounded_below(p)
                                               or self._nonnegative(p)))
        return self._certified

    def _coefficient_sums(self, p):
        """theta_1 and sum_{j>=2} |theta_j| over the first p slots."""
        theta = self.theta[:p]
        return float(theta[0]), float(np.abs(theta[1:]).sum())

    def _bounded_below(self, p):
        first, rest = self._coefficient_sums(p)
        slack = 8 * p * _EPS * (abs(first) + rest)
        return first - math.sqrt(2.0) * rest > slack

    def bounds(self):
        """An interval (f_lo, f_hi), f_lo > 0, holding the normalized
        density f_hat / (theta_1 sqrt(P)) on [lo, hi], or None.

        The coefficient bound gives it for a certified sketch:
        f_lo, f_hi = (theta_1 -/+ sqrt(2) sum_{j>=2} |theta_j|) / (theta_1 P).
        It is None when the sketch is not certified, or when that f_lo is
        not positive, as for most sketches the grid test alone certifies.
        The figures are rounded, by a few p eps times f_hi.
        """
        if not self.certified():
            return None
        first, rest = self._coefficient_sums(self.active_count)
        spread = math.sqrt(2.0) * rest
        if not first > spread:
            return None
        scale = first * self.basis.period
        return (first - spread) / scale, (first + spread) / scale

    def _nonnegative(self, p):
        K = p // 2
        N = max(4096, 64 * K)
        P = self.basis.period
        theta = self.theta[:p]
        # irfft(N c, N)_j = c_0 + 2 Re sum_k c_k exp(2 pi i j k / N) = f_hat
        c = np.zeros(K + 1, dtype=complex)
        c[0] = theta[0] / np.sqrt(P)
        c.real[1:] = theta[1::2] / np.sqrt(2.0 * P)
        c.imag[1:(p + 1) // 2] = -theta[2::2] / np.sqrt(2.0 * P)
        vals = np.fft.irfft(N * c, N)
        l1 = abs(c[0]) + 2.0 * np.abs(c[1:]).sum()
        slack = N * _EPS * l1
        step = np.pi * K / N
        sup = (np.abs(vals).max() + slack) / (1.0 - step)
        return bool(vals.min() - slack > step * sup)

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

        The normalizer is computed once per update and reused until the next:
        theta_1 sqrt(P) for a certified sketch, a quadrature otherwise.
        """
        if self._z is None:
            if self.certified():
                self._z = float(self.theta[0]) * np.sqrt(self.basis.period)
            else:
                # the clipping kink limits quadrature accuracy: a dense rule
                self._z = self._clipped(max(1 << 15, 8 * self.active_count))[3]
        out = np.maximum(self.evaluate(t), 0.0) / self._z
        return float(out) if np.ndim(t) == 0 else out

    def gram(self, reg_basis, q):
        """Gram matrix H_q of the regression basis under the normalized density.

        Entries are int phi_j phi_l f_norm over the data domain, built from
        the Fourier moments mu_m = int z^m f_norm.  When the regression basis
        is the sketch's own and the sketch is certified, mu_0 = 1 and
        mu_m = (theta_{2m} + i theta_{2m+1}) / (sqrt(2) theta_1) up to m = K,
        zero past it.  Otherwise a quadrature of the clipped normalized
        density gives them, which keeps the result PSD.  A sketch with no
        active slot is not certified, and its ``evaluate`` raises StateError.
        """
        if q < 1:
            raise ValueError("q must be >= 1")
        p = self.active_count
        M = 2 * (q // 2)
        if reg_basis == self.basis and self.certified():
            K = min(p // 2, M)
            mu = np.zeros(M + 1, dtype=complex)
            mu[1:K + 1] = basis_mod._packed(self.theta[:p])[1:K + 1]
            mu /= np.sqrt(2.0) * float(self.theta[0])
            mu[0] = 1.0
        else:
            x, w, fx, z = self._clipped(quadrature.node_count(q, p))
            mu, = basis_mod.moments(reg_basis, M, x, (w * fx / z,), ())
        return basis_mod.gram_from_moments(reg_basis, q, mu)


class UniformDensity:
    """The design density known to be uniform on [lo, hi]: 1/(hi - lo).

    It answers the queries the engine and the service make of a
    ``DensityState`` in closed form.  It holds no theta and no active slot,
    folds no sums (its sum ``basis`` is None) and proves nothing about a
    sketch (``certified`` is None)."""

    basis = active_count = None

    def __init__(self, domain):
        self.domain = domain  # a BasisSpec for [lo, hi]
        self.value = 1.0 / (domain.hi - domain.lo)
        self.theta = np.zeros(0)

    def certified(self):
        return None

    def bounds(self):
        """The density's least and greatest value on [lo, hi]."""
        return self.value, self.value

    def evaluate_normalized(self, t):
        """1/(hi - lo) at t (scalar or array), for t in [lo, hi]."""
        t = np.asarray(t, dtype=float)
        basis_mod._check_points(self.domain, t)
        return self.value if t.ndim == 0 else np.full(t.shape, self.value)

    def gram(self, reg_basis, q):
        """Gram matrix H_q of the regression basis under the density."""
        return basis_mod.gram_uniform(reg_basis, q)
