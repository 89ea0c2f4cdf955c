"""Orthonormal Fourier basis families, penalty matrices and basis diagnostics.

The family is orthonormal on the (possibly extended) period
``[lo - margin, hi + margin]`` of length P:

    phi_1(t)      = 1 / sqrt(P)
    phi_{2k}(t)   = sqrt(2/P) * cos(2*k*pi*(t - lo + margin) / P)
    phi_{2k+1}(t) = sqrt(2/P) * sin(2*k*pi*(t - lo + margin) / P)

With a positive extension margin the functions are evaluated (and all
integrals below taken) on the data domain [lo, hi] only, where they are no
longer orthonormal; downstream Gram reconstruction accounts for that.
"""

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import DomainError, QuadratureError


@dataclass(frozen=True)
class BasisSpec:
    """Identifies an orthonormal basis family on a domain interval."""

    lo: float
    hi: float
    extension_margin: float = 0.0
    family: str = "fourier"

    def __post_init__(self):
        if self.family != "fourier":
            raise ValueError(f"unsupported basis family: {self.family!r}")
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
        t = np.asarray(t)
        return np.all((t >= self.lo) & (t <= self.hi))


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


def eval_matrix(spec, q, t, check_domain=True):
    """Evaluate phi_1..phi_q at the points t; returns an (len(t), q) array."""
    if q < 1:
        raise DomainError("basis count q must be >= 1")
    t = _check_points(spec, t) if check_domain else np.atleast_1d(np.asarray(t, float))
    P = spec.period
    out = np.empty((t.size, q))
    out[:, 0] = 1.0 / np.sqrt(P)
    if q > 1:
        ks = np.arange(1, q // 2 + 1)
        ang = (2.0 * np.pi / P) * np.outer(t - spec.origin, ks)
        amp = np.sqrt(2.0 / P)
        cos = amp * np.cos(ang)
        sin = amp * np.sin(ang)
        out[:, 1::2] = cos[:, : out[:, 1::2].shape[1]]
        out[:, 2::2] = sin[:, : out[:, 2::2].shape[1]]
    return out


def series(spec, coef, t):
    """The series sum_j coef_j phi_j(t); a scalar t gives a float, an array
    t an array of its shape.

    An array is evaluated without the (len(t), q) basis matrix: with
    c_0 = coef_1 / sqrt(2) and c_k = coef_{2k} - i coef_{2k+1}, the series is
    sqrt(2/P) Re sum_k c_k z^k for z = exp(2 pi i (t - origin) / P), summed
    by Horner's rule in z.  A scalar t keeps the basis-vector product.
    """
    t = np.asarray(t, dtype=float)
    q = coef.size
    if t.ndim == 0:
        return float((eval_matrix(spec, q, t) @ coef)[0])
    if q < 1:
        raise DomainError("basis count q must be >= 1")
    t = _check_points(spec, t)
    c = np.zeros(q // 2 + 1, dtype=complex)
    c[0] = coef[0] * np.sqrt(0.5)
    c.real[1:] = coef[1::2]
    c.imag[1:(q + 1) // 2] = -coef[2::2]
    z = np.exp((2j * np.pi / spec.period) * (t - spec.origin))
    acc = np.full(t.shape, c[-1])
    for ck in c[-2::-1]:
        acc *= z
        acc += ck
    return np.sqrt(2.0 / spec.period) * acc.real


def second_derivative_matrix(spec, q, t):
    """Evaluate phi_1''..phi_q'' at the points t."""
    return eval_matrix(spec, q, t) * _curvature_factors(spec, q)[None, :]


def _curvature_factors(spec, q):
    # phi_j'' = -(2 k pi / P)^2 phi_j for the trig pair of frequency k
    k = np.arange(1, q + 1) // 2
    return -((2.0 * np.pi * k / spec.period) ** 2)


def penalty_matrix(spec, penalty, q):
    """Penalty matrix W for the first q basis functions.

    Identity kind returns I_q.  Roughness kind returns the matrix of
    integrated products of second derivatives over the data domain.  Since
    phi_j'' = c_j phi_j with c_j = -(2 k pi / P)^2, that matrix is
    (hi - lo) * diag(c) H diag(c) with H the uniform Gram matrix.
    """
    if q < 1:
        raise DomainError("basis count q must be >= 1")
    if penalty.kind == "identity":
        return np.eye(q)
    c = _curvature_factors(spec, q)
    W = (spec.hi - spec.lo) * c[:, None] * gram_uniform(spec, q) * c[None, :]
    return 0.5 * (W + W.T)


def weighted_gram(spec, q, x, w):
    """sum_i w_i phi(x_i) phi(x_i)^T for phi = (phi_1..phi_q), symmetrized."""
    V = eval_matrix(spec, q, x)
    H = V.T @ (w[:, None] * V)
    return 0.5 * (H + H.T)


def gram_uniform(spec, q):
    """Gram matrix of phi_1..phi_q under the uniform density on [lo, hi].

    Exactly I_q / (hi - lo) when the margin is zero (orthonormal family on
    the full period); quadrature over the data domain otherwise.
    """
    length = spec.hi - spec.lo
    if spec.extension_margin == 0.0:
        return np.eye(q) / length
    x, w = quadrature.rule(spec.lo, spec.hi, quadrature.node_count(q))
    return weighted_gram(spec, q, x, w / length)


def sup_sum_squares(spec, q):
    """Max over a uniform grid of sum_{j<=q} phi_j(t)^2.

    Diagnostic for the basis-growth bound sup_t sum phi_j^2 <= C q^alpha.
    """
    t = np.linspace(spec.lo, spec.hi, 10001)
    V = eval_matrix(spec, q, t)
    return float(np.max(np.sum(V * V, axis=1)))


def projection_residual(m, spec, q, norm="L2", n_nodes=None):
    """Residual norm of m minus its projection onto span{phi_1..phi_q}.

    Coefficients are a_k = int m phi_k over the data domain; the residual is
    measured in L2 (quadrature) or sup norm (dense grid).  The computation
    is repeated with doubled quadrature nodes, at most four times, until two
    consecutive values agree to 1e-8.
    """
    if norm not in ("L2", "sup"):
        raise ValueError("norm must be 'L2' or 'sup'")
    if n_nodes is None:
        n_nodes = quadrature.node_count(q)

    def residual(nn):
        x, w = quadrature.rule(spec.lo, spec.hi, nn)
        V = eval_matrix(spec, q, x)
        mv = np.asarray(m(x), dtype=float)
        coef = V.T @ (w * mv)
        if norm == "L2":
            r = mv - V @ coef
            return float(np.sqrt(max(np.dot(w, r * r), 0.0)))
        grid = np.linspace(spec.lo, spec.hi, max(4096, 4 * nn) + 1)
        Vg = eval_matrix(spec, q, grid)
        return float(np.max(np.abs(np.asarray(m(grid), float) - Vg @ coef)))

    prev = residual(n_nodes)
    for _ in range(4):
        n_nodes *= 2
        cur = residual(n_nodes)
        if abs(cur - prev) <= 1e-8 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"projection residual did not stabilize (last values {prev}, q={q})"
    )
