"""Reference implementations that only the tests use.

Each is a slow, direct form of something the package computes another way,
kept here so the tests can compare against it.
"""

import numpy as np

from streamreg.basis import eval_matrix
from streamreg.errors import DomainError
from streamreg.harness import M3_TERMS, TARGETS, noise_sigma


def eval_basis(spec, j, t):
    """Evaluate a single basis function phi_j at t (scalar in, scalar out)."""
    if j < 1:
        raise DomainError("basis index j must be >= 1")
    scalar = np.isscalar(t)
    vals = eval_matrix(spec, j, t)[:, j - 1]
    return float(vals[0]) if scalar else vals


def eval_vector(spec, q, t):
    """The column vector (phi_1(t), ..., phi_q(t)) for a scalar t."""
    return eval_matrix(spec, q, t)[0]


def m3_partial_sum(t, k_max=M3_TERMS, chunk=4096):
    """Direct truncated series evaluation; oracle-grade but slow."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.full(t.shape, 1.0)  # j = 1 term
    freqs = np.arange(1, k_max // 2 + 1)
    for lo in range(0, freqs.size, chunk):
        ks = freqs[lo: lo + chunk]
        ang = 2.0 * np.pi * np.outer(t, ks)
        c_coef = (2.0 * ks) ** -1.5
        s_coef = np.where(2 * ks + 1 <= k_max, (2.0 * ks + 1.0) ** -1.5, 0.0)
        out += np.cos(ang) @ c_coef + np.sin(ang) @ s_coef
    return out


def generate_stream(sc, rng=None):
    """Yield (t, y) batches of size B; deterministic given the seed."""
    if rng is None:
        rng = np.random.default_rng(sc.seed)
    sigma = noise_sigma(sc)
    fn = TARGETS[sc.target]
    produced = 0
    while produced < sc.n:
        size = min(sc.B, sc.n - produced)
        ts = rng.uniform(0.0, 1.0, size)
        ys = fn(ts)
        if sigma > 0:
            ys = ys + rng.normal(0.0, sigma, size)
        produced += size
        yield ts, ys
