"""Orthonormal Fourier basis families, Gram matrices and penalty matrices.

The family is orthonormal on the (possibly extended) period
``[lo - margin, hi + margin]`` of length P:

    phi_1(t)      = 1 / sqrt(P)
    phi_{2k}(t)   = sqrt(2/P) * cos(2*k*pi*(t - lo + margin) / P)
    phi_{2k+1}(t) = sqrt(2/P) * sin(2*k*pi*(t - lo + margin) / P)

With a positive extension margin the functions are evaluated (and all
integrals below taken) on the data domain [lo, hi] only, where they are no
longer orthonormal; downstream Gram reconstruction accounts for that.
"""

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def is_real(v):
    """A finite real number: an int or a float, not a bool.  An int past the
    float range fails: it has no float value."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def is_count(v):
    """An integer, not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def require(valid, what, config, *names):
    """Raise ValueError for the first field of ``config`` among ``names``
    whose value fails ``valid``.  Type checks run before range checks, which
    a NaN passes and a string breaks."""
    for name in names:
        value = getattr(config, name)
        if not valid(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class BasisSpec:
    """The Fourier basis on a domain interval, optionally extended by a margin."""

    lo: float
    hi: float
    extension_margin: float = 0.0

    def __post_init__(self):
        require(is_real, "a finite number", self, "lo", "hi",
                "extension_margin")
        if not self.lo < self.hi:
            raise ValueError("domain requires lo < hi")
        if self.extension_margin < 0:
            raise ValueError("extension_margin must be >= 0")

    @property
    def period(self):
        return (self.hi - self.lo) + 2.0 * self.extension_margin

    @property
    def origin(self):
        """Left endpoint of the extended period."""
        return self.lo - self.extension_margin

    def contains(self, t):
        """Whether every point of t lies in [lo, hi]: true for no points,
        false for NaN (which np.min and np.max propagate)."""
        t = np.asarray(t)
        return t.size == 0 or bool(self.lo <= t.min() and t.max() <= self.hi)


@dataclass(frozen=True)
class PenaltySpec:
    """Ridge penalty matrix family: identity or curvature (roughness)."""

    kind: str = "roughness"

    def __post_init__(self):
        if self.kind not in ("identity", "roughness"):
            raise ValueError(f"unsupported penalty kind: {self.kind!r}")

    @property
    def zeta(self):
        """Growth exponent of the penalty spectrum, lambda_max(W) = O(q^zeta)."""
        return 0.0 if self.kind == "identity" else 4.0


def _check_points(spec, t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not spec.contains(t):
        raise DomainError(
            f"evaluation points outside domain [{spec.lo}, {spec.hi}]"
        )
    return t


def eval_matrix(spec, q, t):
    """Evaluate phi_1..phi_q at the points t; returns an (len(t), q) array.

    The trig columns come from one complex exponential per point: with
    z = exp(2 pi i (t - origin) / P), the powers z^k, k = 1..q/2, are a
    cumulative product along the row, and (Re z^k, Im z^k) scaled by
    sqrt(2/P) are (phi_{2k}, phi_{2k+1}).  Each row depends on its own t
    only, so the result does not depend on how points are batched.
    """
    if q < 1:
        raise DomainError("basis count q must be >= 1")
    t = _check_points(spec, t)
    P = spec.period
    out = np.empty((t.size, q))
    out[:, 0] = 1.0 / np.sqrt(P)
    if q > 1:
        zk = np.empty((t.size, q // 2), dtype=complex)
        zk[:] = np.exp((2j * np.pi / P) * (t - spec.origin))[:, None]
        np.multiply.accumulate(zk, axis=1, out=zk)
        # viewed as reals, a row of zk reads Re z, Im z, Re z^2, Im z^2, ...
        np.multiply(zk.view(float)[:, :q - 1], np.sqrt(2.0 / P),
                    out=out[:, 1:])
    return out


def _packed(coef):
    """Horner coefficients of a series: c_0 = coef_1 / sqrt(2) and
    c_k = coef_{2k} + i coef_{2k+1} for k = 1..q // 2 (0 past coef_q), as
    one complex array whose real view is the coefficients, shifted."""
    q = coef.size
    c = np.zeros(2 * (q // 2) + 2)
    c[0] = coef[0] * math.sqrt(0.5)
    c[2:q + 1] = coef[1:]
    return c.view(complex)


def series(spec, coef, t):
    """The series sum_j coef_j phi_j(t); a scalar t gives a float, an array
    t an array of its shape.

    No basis matrix is built: with c_0 = coef_1 / sqrt(2) and
    c_k = coef_{2k} + i coef_{2k+1}, the series is sqrt(2/P) Re sum_k c_k w^k
    for w = exp(-2 pi i (t - origin) / P), summed by Horner's rule in w.  An
    array is summed in numpy, a scalar in Python ``complex`` arithmetic.
    Horner's rule differs from the basis-vector product by rounding only: a
    few q u times sqrt(2/P) sum_j |coef_j| at most (u the unit roundoff).
    """
    if coef.size < 1:
        raise DomainError("basis count q must be >= 1")
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        x = float(t)
        if not spec.lo <= x <= spec.hi:  # NaN fails too
            raise DomainError(
                f"evaluation point outside domain [{spec.lo}, {spec.hi}]")
        w = cmath.exp((-2j * math.pi / spec.period) * (x - spec.origin))
        c = _packed(coef).tolist()
        acc = c.pop()
        for ck in reversed(c):
            acc = acc * w + ck
        return math.sqrt(2.0 / spec.period) * acc.real
    t = _check_points(spec, t)
    c = _packed(coef)
    w = np.exp((-2j * np.pi / spec.period) * (t - spec.origin))
    acc = np.full(t.shape, c[-1])
    for ck in c[-2::-1]:
        acc *= w
        acc += ck
    return np.sqrt(2.0 / spec.period) * acc.real


def _curvature_factors(spec, q):
    # phi_j'' = -(2 k pi / P)^2 phi_j for the trig pair of frequency k
    k = np.arange(1, q + 1) // 2
    return -((2.0 * np.pi * k / spec.period) ** 2)


@functools.lru_cache(maxsize=8)
def penalty_matrix(spec, penalty, q):
    """Penalty matrix W for the first q basis functions, read-only.

    Identity kind returns I_q.  Roughness kind returns the matrix of
    integrated products of second derivatives over the data domain.  Since
    phi_j'' = c_j phi_j with c_j = -(2 k pi / P)^2, that matrix is
    (hi - lo) * diag(c) H diag(c) with H the uniform Gram matrix.  At
    margin 0, H = I_q / (hi - lo) and W is diagonal; its diagonal is formed
    with the same roundings as the dense product.

    W depends on its arguments only, so the last 8 are kept: every solve
    after an ingest asks for the same one.  Callers build new arrays from
    W rather than writing into it.
    """
    if q < 1:
        raise DomainError("basis count q must be >= 1")
    if penalty.kind == "identity":
        W = np.eye(q)
    else:
        c = _curvature_factors(spec, q)
        length = spec.hi - spec.lo
        if spec.extension_margin == 0.0:
            W = np.diag(((length * c) * (1.0 / length)) * c)
        else:
            W = length * c[:, None] * gram_uniform(spec, q) * c[None, :]
            W = 0.5 * (W + W.T)
    W.flags.writeable = False
    return W


# From K = SPLIT_MIN on, ``Powers`` keeps z^0..z^K as two tables of about
# sqrt(K) rows rather than one of K + 1 rows: below it the second table and
# the complex matrix product cost more than they save (the crossover lay
# between K = 10 and 24 at 100 and 1000 points).
SPLIT_MIN = 16


def _powers(z, count):
    """Rows z^0, ..., z^(count - 1): each row is the one above times z.

    One multiply per row: ``np.multiply.accumulate`` down the rows forms
    the same products but took up to 5 times as long (100 to 5000 points,
    3 to 17 rows) and rounded differently.
    """
    out = np.empty((count, z.size), dtype=complex)
    out[0] = 1.0
    for a in range(1, count):
        np.multiply(out[a - 1], z, out=out[a])
    return out


class Powers:
    """The powers z^k, k = 0..q // 2, of z = exp(2 pi i (t - origin) / P) at
    the points t, enough for phi_1..phi_q; the points are not domain-checked.

    With K = q // 2 >= ``SPLIT_MIN`` and r = isqrt(K) + 1, z^(a + r b) =
    z^a (z^r)^b, so two short tables hold every power: ``low``, rows z^a for
    a = 0..r, and ``high``, rows (z^r)^b for b = 0..K // r.  For smaller K,
    ``low`` holds z^0..z^K and there is no ``high``; at K = 0 there is no
    table at all.  Every power is a product of the one z per point, the way
    ``eval_matrix`` forms its columns, and each sum below reads only the
    tables and its own weights, so it does not depend on what else the
    tables served.
    """

    def __init__(self, spec, q, t):
        self.q, self.period = q, spec.period
        self.K = K = q // 2
        self.r = K + 1 if K < SPLIT_MIN else math.isqrt(K) + 1
        self.low = self.high = None
        if K == 0:
            return
        z = np.exp((2j * np.pi / spec.period)
                   * (np.asarray(t, float) - spec.origin))
        if K < SPLIT_MIN:
            self.low = _powers(z, K + 1)
        else:
            self.low = _powers(z, self.r + 1)
            self.high = _powers(self.low[self.r], K // self.r + 1)

    def moments(self, w):
        """Weighted moments mu_k = sum_i w_i z_i^k for k = 0..K."""
        if self.low is None:
            return np.array([w.sum()], dtype=complex)
        if self.high is None:
            return self.low @ w
        # row b, column a of the product is mu_{a + r b}
        return (self.high @ (self.low[:self.r] * w).T).ravel()[:self.K + 1]

    def sums(self, w):
        """Per-function sums sum_i w_i phi_j(t_i) for j = 1..q: phi_1 from
        Re mu_0, and (phi_{2k}, phi_{2k+1}) from (Re mu_k, Im mu_k)."""
        if self.low is None:
            return np.array([w.sum() / math.sqrt(self.period)])
        mu = self.moments(w)
        out = np.empty(self.q)
        out[0] = mu[0].real / math.sqrt(self.period)
        np.multiply(mu[1:].view(float)[:self.q - 1],
                    math.sqrt(2.0 / self.period), out=out[1:])
        return out

    def suffix_sum(self, j, w, lo):
        """Entry j of ``sums``, phi_{j+1}, over the points from index lo on."""
        k = (j + 1) // 2
        if k == 0:
            return w[lo:].sum() / math.sqrt(self.period)
        zk = self.low[k % self.r, lo:]
        if self.high is not None:
            zk = zk * self.high[k // self.r, lo:]
        mu = np.dot(zk, w[lo:])
        return math.sqrt(2.0 / self.period) * (mu.real if j % 2 else mu.imag)


def moments(spec, M, x, w):
    """Weighted Fourier moments mu_m = sum_i w_i z_i^m for m = 0..M, with
    z = exp(2 pi i (x - origin) / P); the points x are not domain-checked."""
    return Powers(spec, 2 * M, x).moments(w)


def gram_from_moments(spec, q, mu):
    """Gram matrix sum_i w_i phi(x_i) phi(x_i)^T of phi_1..phi_q from the
    moments mu_0..mu_{2 (q // 2)} of the same weights and points.

    cos/sin products are sums and differences of the frequencies: with
    K = q // 2, the Toeplitz T[k, l] = mu_{k-l} (mu_{-m} = conj mu_m) and
    the Hankel Hk[k, l] = mu_{k+l} for k, l = 0..K give, times 1/P,
    cos_k cos_l = Re(T + Hk), sin_k sin_l = Re(T - Hk),
    cos_k sin_l = Im(Hk - T) and sin_k cos_l = Im(Hk + T).  phi_1 is the
    k = 0 cosine scaled by 1/sqrt(2), and the k = 0 sine is dropped.  The
    result is symmetric to the bit.
    """
    K = q // 2
    k = np.arange(K + 1)
    signed = np.concatenate([mu[K:0:-1].conj(), mu[:K + 1]])  # mu_{-K..K}
    T = signed[k[:, None] - k[None, :] + K]
    Hk = mu[k[:, None] + k[None, :]]
    full = np.empty((K + 1, 2, K + 1, 2))
    full[:, 0, :, 0] = T.real + Hk.real
    full[:, 1, :, 1] = T.real - Hk.real
    full[:, 0, :, 1] = Hk.imag - T.imag
    full[:, 1, :, 0] = Hk.imag + T.imag
    # rows and columns run c_0, s_0, c_1, s_1, ...; s_0 = 0 gives way to c_0
    full = full.reshape(2 * K + 2, 2 * K + 2)
    H = full[1:q + 1, 1:q + 1] / spec.period
    H[0, 0] = 0.5 * full[0, 0] / spec.period
    H[0, 1:] = H[1:, 0] = np.sqrt(0.5) * full[0, 2:q + 1] / spec.period
    return H


def gram_uniform(spec, q):
    """Gram matrix of phi_1..phi_q under the uniform density on [lo, hi].

    Exactly I_q / (hi - lo) when the margin is zero (orthonormal family on
    the full period).  Otherwise its moments are in closed form: with
    L = hi - lo, margin a and omega = 2 pi / P, the interval runs from a to
    P - a in t - origin, so mu_0 = 1 and, for m >= 1,
    mu_m = (1/L) int z^m dt = -2 sin(omega m a) / (omega m L).
    """
    length = spec.hi - spec.lo
    if spec.extension_margin == 0.0:
        return np.eye(q) / length
    m = np.arange(1, 2 * (q // 2) + 1)
    mu = np.empty(m.size + 1, dtype=complex)
    mu[0] = 1.0
    mu[1:] = -np.sin((2.0 * np.pi * spec.extension_margin / spec.period) * m) \
        * (spec.period / (np.pi * length * m))
    return gram_from_moments(spec, q, mu)
