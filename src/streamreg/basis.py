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
import importlib.machinery
import importlib.util
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _scipy_dirs():
    """The directories of the installed scipy package, found without
    importing it (``_load_flapack``)."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("streamreg needs scipy for LAPACK, and scipy is "
                          "not installed")
    return spec.submodule_search_locations


def _load_flapack(paths):
    """scipy's LAPACK wrapper extension ``_flapack``, found in the
    directories ``paths`` and loaded on its own.

    ``scipy.linalg.lapack`` re-exports this module's functions unchanged, so
    its routines are the ones ``scipy.linalg.lapack`` would call.  Importing
    ``scipy.linalg`` instead would run that package's ``__init__``, which
    loads 75 more scipy modules (scipy 1.17) that the four routines the
    package calls, dlange, dpotrf, dpocon and dpotrs, do not need: they
    cost a service process about 19 MB and 0.13 s of start-up.  Not even
    ``scipy``'s own ``__init__`` runs: without it LAPACK loads in 2.8-3.1 ms
    instead of 10.8-17.1 ms (after numpy, one core).  README, Install,
    gives the footprint of the package's deferred imports.
    """
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                    paths)
    if spec is None:
        from importlib import metadata
        raise ImportError(f"scipy {metadata.version('scipy')} has no "
                          f"scipy/linalg/_flapack module")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The package's one handle on LAPACK.
lapack = _load_flapack([os.path.join(p, "linalg") for p in _scipy_dirs()])

# No limit: a count past every slot count and int64 stream position, so that
# min(count, NEVER) is the count.  It is also the activation and start time
# of a slot that never opens (``scheduler``).
NEVER = 2 ** 63


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

    @functools.cached_property
    def period(self):
        return (self.hi - self.lo) + 2.0 * self.extension_margin

    @functools.cached_property
    def origin(self):
        """Left endpoint of the extended period."""
        return self.lo - self.extension_margin

    def contains(self, t):
        """Whether every point of the array t lies in [lo, hi]: true for no
        points, false for NaN (which np.min and np.max propagate)."""
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


@functools.lru_cache(maxsize=16)
def penalty_matrix(spec, penalty, q):
    """Penalty matrix W for the first q basis functions, read-only: its
    diagonal w, a vector of q, where W is diagonal, and otherwise the q x q
    matrix.

    Identity kind is I_q, so w is q ones at every margin.  Roughness kind
    is the matrix of integrated products of second derivatives over the
    data domain.  Since phi_j'' = c_j phi_j with c_j = -(2 k pi / P)^2,
    that matrix is (hi - lo) * diag(c) H diag(c) with H the uniform Gram
    matrix, which is I_q / (hi - lo) at margin 0.  So at margin 0 it is
    diagonal too, and w = (hi - lo) c (1 / (hi - lo)) c has the bits of the
    dense product's diagonal; every entry off it is +0.0.  Only roughness
    at a positive margin is dense.  Only the solve
    (``engine.penalized_solve``) reads W's shape.

    W depends on its arguments only, so the last 16 are kept: every solve
    after an ingest asks for the same one, and a Monte Carlo replicate for
    10.  A diagonal W holds O(q) bytes.  Callers build new arrays from W
    rather than writing into it.
    """
    if penalty.kind == "identity":
        W = np.ones(q)
    else:
        length = spec.hi - spec.lo
        c = _curvature_factors(spec, q)
        if spec.extension_margin == 0.0:
            W = length * c * (1.0 / length) * c
        else:
            W = length * c[:, None] * gram_uniform(spec, q) * c[None, :]
            W = 0.5 * (W + W.T)
    W.flags.writeable = False
    return W


# From K = SPLIT_MIN on, ``moments`` keeps z^0..z^K as two tables of about
# sqrt(K) rows rather than one of K + 1 rows: below it the second table and
# the complex matrix product cost more than they save (the crossover lay
# between K = 10 and 24 at 100 and 1000 points).
SPLIT_MIN = 16


# The most bytes of power tables one ``moments`` call holds, in chunks of
# its points, and so the largest buffer kept for the next call: the Monte
# Carlo path's tables reach 1.7 MB and fit in one chunk.
SPARE_BYTES = 4 << 20

# The spare: at most one buffer, held by no running ``moments`` call.  A
# buffer is taken from it under the lock and handed back when the call ends,
# so two calls' tables never share memory, in one thread or across threads.
_spare = None
_spare_lock = threading.Lock()


def _take_buffer(count):
    """A complex buffer of at least ``count`` elements: the spare if it is
    large enough, otherwise a new one (the spare stays where it is)."""
    global _spare
    with _spare_lock:
        buf = _spare
        if buf is not None and buf.size >= count:
            _spare = None
            return buf
    return np.empty(count, dtype=complex)


def _give_back(buf):
    """Keep ``buf`` as the spare if it is larger than the spare.  A
    ``moments`` call's buffer holds one chunk's tables, so the spare never
    passes SPARE_BYTES."""
    global _spare
    with _spare_lock:
        if _spare is None or _spare.size < buf.size:
            _spare = buf


def _powers(z, out):
    """Rows z^0, ..., z^(len(out) - 1) of ``out``: each row is the one above
    times z.

    One multiply per row: ``np.multiply.accumulate`` down the rows forms
    the same products but took up to 5 times as long (100 to 5000 points,
    3 to 17 rows) and rounded differently.
    """
    prev = out[0]
    prev[:] = 1.0
    for row in out[1:]:
        np.multiply(prev, z, row)
        prev = row
    return out


@functools.lru_cache(maxsize=64)
def _table_shape(K):
    """(r, rows) of the power tables at the call's K: z^(r-1) is the last
    row a weight multiplies, and ``rows`` complex numbers per point make up
    the tables and z (at K = 0 the row of ones z^0 and z's row, which
    ``_tables`` leaves unwritten); read three times per ``moments``."""
    if K < SPLIT_MIN:
        return K + 1, K + 2
    r = math.isqrt(K) + 1
    return r, r + 1 + K // r + 1


def _tables(spec, K, t, buf):
    """The power tables of z = exp(2 pi i (t - origin) / P) at the points
    t, as (low, high, r): rows of the complex buffer ``buf``, which holds
    at least ``_table_shape(K)[1] * t.size`` elements, and r, where z^(r-1)
    is the last row a weight multiplies.

    With K >= ``SPLIT_MIN`` and r = isqrt(K) + 1, z^(a + r b) =
    z^a (z^r)^b, so two short tables hold every power: ``low``, rows z^a for
    a < r, and ``high``, rows (z^r)^b for b = 0..K // r.  For smaller K,
    ``low`` holds z^0..z^K, at K = 0 the row of ones alone, and ``high``
    is None.  Every power is a product of the one z per point, the way
    ``eval_matrix`` forms its columns.
    """
    r, rows = _table_shape(K)
    # z waits in the buffer's last row, which is written only when no power
    # reads z any more: high's last row, or a row past low (a product
    # written over its own operand may round otherwise).  At K = 0 no power
    # reads z, and its complex exp would be most of the call's time.
    tables = buf[:rows * t.size].reshape(rows, t.size)
    z = tables[-1]
    if K:
        np.multiply(2j * np.pi / spec.period, t - spec.origin, out=z)
        np.exp(z, out=z)
    if K < SPLIT_MIN:
        return _powers(z, tables[:-1]), None, r
    low = _powers(z, tables[:r + 1])
    return low[:r], _powers(low[r], tables[r + 1:]), r


def chunk_points(K):
    """Most points of one ``moments`` chunk at K: as many as keep the
    chunk's tables within SPARE_BYTES."""
    return SPARE_BYTES // (16 * _table_shape(K)[1])


def _tail_moments(low, high, r, m, weights, tails, out):
    """Write into ``out[i]`` the tail moments of ``weights[i]``, one per
    (k, lo) of ``tails``, from the tables as they are.

    Whatever the number of tails and weights, this takes two rows of the
    points from the first tail's start on, once: the weights as the complex
    numbers np.dot would cast them to (ones for unit weights), and, with two
    tables, each tail's products z^a (z^r)^b.  A tail reads both from its
    own start; at k = 0 it reads the row of ones z^0, as any k reads z^k."""
    base = min(lo for _, lo in tails)
    row = np.empty(max(m - base, 0), complex)
    prod = None if high is None else np.empty(row.size, complex)
    for w, mu in zip(weights, out):
        row[:] = 1.0 if w is None else w[base:]
        for i, (k, lo) in enumerate(tails):
            zk = low[k % r, lo:]
            if high is not None:
                zk = np.multiply(zk, high[k // r, lo:],
                                 out=prod[lo - base:])
            mu[i] = np.dot(zk, row[lo - base:])


def _chunk_moments(spec, K, t, weights, tails, buf):
    """``moments`` of the points t, all in one set of tables in ``buf``."""
    m = t.size
    low, high, r = _tables(spec, K, t, buf)
    out = [np.empty(K + 1 + len(tails), dtype=complex) for _ in weights]
    if tails:
        _tail_moments(low, high, r, m, weights, tails,
                      [mu[K + 1:] for mu in out])
    for w, mu in zip(weights, out):
        if high is None:
            mu[:K + 1] = low @ (np.ones(m) if w is None else w)
        else:
            if w is not None:
                low *= w
            # row b, column a of the product is mu_{a + r b}
            mu[:K + 1] = (high @ low.T).ravel()[:K + 1]
    return out


def moments(spec, K, t, weights, tails):
    """Fourier moments of the points t, at least one and not domain-checked,
    under each weight vector w of ``weights`` (None for unit weights): with
    z = exp(2 pi i (t - origin) / P), mu_k = sum_i w_i z_i^k for k = 0..K,
    then the tail moment sum_{i >= lo} w_i z_i^k of each (k, lo) in
    ``tails``, lo >= 0.  Returns one complex array of K + 1 + len(tails)
    entries per weight.  K = 0 and a k = 0 tail are no special case: z^0 is
    the tables' row of ones, read like any other power.

    The points are folded in chunks of ``chunk_points(K)``, so a call's
    tables never pass SPARE_BYTES whatever its size: each weight's moments
    are the sums of its chunks' moments in chunk order, and a tail (k, lo)
    reads each chunk from max(lo, chunk start).  A call whose tables fit
    SPARE_BYTES is one chunk.  Chunk boundaries depend on the call and K
    only, so a call's result does not depend on what came before it.

    The tables' buffer is the process's spare when that is free and large
    enough, so a stream of same-sized batches maps no new memory for it,
    and goes back to the spare when the call returns or raises.

    No array of the tables' size is built beside them, so the weights read
    them in an order.  A None weight reads them as they are.  An array
    weight multiplies the rows z^0..z^(r-1) in place, so at most one weight
    is an array, and it comes last.  Every tail moment is read before the
    whole-batch moments.  Either way the product gets the
    operands of ``high @ (low[:r] * w).T``: a row weighted in place has the
    bits of a weighted copy, and a power times 1 keeps its bits
    (``tests/oracles.moments_out_of_place``).
    """
    if any(w is not None for w in weights[:-1]):
        raise ValueError("only the last weight may be an array")
    t = np.asarray(t, float)
    m = t.size
    step = min(chunk_points(K), m)
    buf = _take_buffer(_table_shape(K)[1] * step)
    try:
        if step == m:
            return _chunk_moments(spec, K, t, weights, tails, buf)
        for s in range(0, m, step):
            # the last chunk runs to the end of t and of each weight, so a
            # weight of the wrong length fails as it does in one chunk
            part = slice(s, s + step if s + step < m else None)
            out = _chunk_moments(
                spec, K, t[part],
                [None if w is None else w[part] for w in weights],
                [(k, max(lo - s, 0)) for k, lo in tails], buf)
            total = out if s == 0 else [a + b for a, b in zip(total, out)]
        return total
    finally:
        _give_back(buf)


def sums_from_moments(spec, q, mu):
    """Per-function sums sum_i w_i phi_j(t_i) for j = 1..q from the moments
    mu_0..mu_{q // 2} of the same weights and points: phi_1 from Re mu_0,
    and (phi_{2k}, phi_{2k+1}) from (Re mu_k, Im mu_k)."""
    parts = mu.view(float)  # Re mu_0, Im mu_0, Re mu_1, Im mu_1, ...
    out = np.empty(q)
    out[0] = parts[0] / math.sqrt(spec.period)
    np.multiply(parts[2:q + 1], math.sqrt(2.0 / spec.period), out[1:])
    return out


def gram_from_moments(spec, q, mu):
    """Gram matrix sum_i w_i phi(x_i) phi(x_i)^T of phi_1..phi_q from the
    moments mu_0..mu_{2 (q // 2)} of the same weights and points.

    cos/sin products are sums and differences of the frequencies: with
    K = q // 2, the Toeplitz T[k, l] = mu_{k-l} (mu_{-m} = conj mu_m) and
    the Hankel Hk[k, l] = mu_{k+l} for k, l = 0..K give, times 1/P,
    cos_k cos_l = Re(T + Hk), sin_k sin_l = Re(T - Hk),
    cos_k sin_l = Im(Hk - T) and sin_k cos_l = Im(Hk + T).  Rows and
    columns of this bordered matrix run c_0, s_0, c_1, s_1, ...; phi_1 is
    the k = 0 cosine scaled by 1/sqrt(2), and the k = 0 sine is dropped.
    The result is symmetric to the bit.

    No complex Toeplitz or Hankel array is built.  Along row 2k + r the
    Toeplitz terms run (Re T, -Im T) for r = 0, (Im T, Re T) for r = 1, at
    k - l for l = 0, 1, ..., and the Hankel terms (Re Hk, Im Hk) or
    (Im Hk, -Re Hk) at k + l.  So each row is one real addition of two
    contiguous windows of four short real vectors, and the rows of one r are
    strided views of them.  Then come the division by P and phi_1's
    scalings, as in the complex assembly.  A difference is the sum with the
    negated term, and negation is exact, so every entry has the complex
    assembly's bits (``tests/oracles.gram_from_moments``).

    Rows and columns 1..q of the bordered matrix go straight into H, and
    row 0, which gives the corner and the border, is summed on its own, so
    H is the only q x q array the call builds.  numpy gives every operand
    of a ufunc that is not contiguous a buffer of up to 8192 elements, so
    one parity's rows are summed in a contiguous block, which a copy (no
    buffer) places in H.
    """
    K = q // 2
    n = 2 * K + 1
    P = spec.period
    signed = np.concatenate([mu[K:0:-1].conj(), mu[:K + 1]])  # mu_{-K..K}
    rev = signed[::-1]  # mu_{K..-K}
    V = np.empty((4, n), dtype=complex)
    V[0] = rev.conj()  # (Re T, -Im T)
    V[1].real, V[1].imag = rev.imag, rev.real  # (Im T, Re T)
    V[2] = mu[:n]  # (Re Hk, Im Hk)
    V[3].real, V[3].imag = mu[:n].imag, -mu[:n].real  # (Im Hk, -Re Hk)
    V = V.reshape(-1).view(float)
    e = V.itemsize
    H = np.empty((q, q))
    block = np.empty(((q + 1) // 2, q))
    for r in (1, 0):
        # row 2k + r reads V[r] from 2 (K - k) and V[2 + r] from 2k; it is
        # row 2k + r - 1 of H, except row 0
        rows = (q - r) // 2 + 1
        T = np.ndarray((rows, q + 1), float, V, (2 * n * r + 2 * K) * e,
                       (-2 * e, e))
        Hk = np.ndarray((rows, q + 1), float, V, 2 * n * (2 + r) * e,
                        (2 * e, e))
        sums = block[:rows - 1 + r]
        np.copyto(sums, T[1 - r:, 1:])
        sums += Hk[1 - r:, 1:]
        H[1 - r::2] = sums
    top = T[0] + Hk[0]  # row 0, from the last pass (r = 0)
    H /= P
    H[0, 0] = 0.5 * top[0] / P
    H[0, 1:] = H[1:, 0] = np.sqrt(0.5) * top[2:] / P
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


# Least eigenvalue of the uniform Gram, times hi - lo, at which a basis count
# is still numerically identifiable (hi - lo scales the Gram's eigenvalues).
GRAM_EIG_FLOOR = 1e-8

# Largest count ``identifiable_count`` gives: its search costs O(q^3), and
# only a margin below about 0.3% of hi - lo has a count past it.
MAX_IDENTIFIABLE = 1 << 10


def identifiable_count(spec):
    """The largest basis count q whose uniform Gram keeps its eigenvalues
    above GRAM_EIG_FLOOR / (hi - lo), at most MAX_IDENTIFIABLE; NEVER (no
    limit) at margin 0, where that Gram is I_q / (hi - lo).  Fourier
    extensions are ill-conditioned frames past a fixed count (Adcock,
    Huybrechs and Martin-Vaquero, *Found. Comput. Math.* 14, 2014): 39 at a
    margin of a tenth of hi - lo.  The Gram of q functions leads that of
    Q > q, so a Cholesky factorization of the larger minus the floor first
    fails at order q + 1 (Sylvester's criterion); Q doubles from 64 until it
    does.  The last 64 margins' counts are kept (``_extended_count``).
    """
    return NEVER if spec.extension_margin == 0.0 else _extended_count(spec)


@functools.lru_cache(maxsize=64)
def _extended_count(spec):
    Q = 64
    while True:
        A = gram_uniform(spec, Q)
        A[np.diag_indices(Q)] -= GRAM_EIG_FLOOR / (spec.hi - spec.lo)
        info = lapack.dpotrf(A, lower=1, clean=0)[1]
        if info or Q == MAX_IDENTIFIABLE:
            return info - 1 if info else Q
        Q *= 2
