"""Composite Gauss-Legendre quadrature on a finite interval.

Trigonometric integrands need node counts proportional to the highest
frequency involved, so callers size the rule via ``node_count``.
"""

import numpy as np

NODES_PER_PANEL = 16

_REF_X, _REF_W = np.polynomial.legendre.leggauss(NODES_PER_PANEL)


def rule(lo, hi, n_nodes):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    The interval is split into equal panels of ``NODES_PER_PANEL``-point
    Gauss rules; the total node count is rounded up to a whole number of
    panels.
    """
    n_panels = max(1, -(-int(n_nodes) // NODES_PER_PANEL))
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _REF_X[None, :]).ravel()
    w = (half[:, None] * _REF_W[None, :]).ravel()
    return x, w


def integrate(f, lo, hi, n_nodes):
    """Integrate a vectorized callable over [lo, hi]."""
    x, w = rule(lo, hi, n_nodes)
    return float(np.dot(w, f(x)))


def node_count(q, p):
    """Default node count for integrands built from q + p basis functions."""
    return max(512, 8 * (q + p))
