"""Reference implementations and shared builders that only the tests use.

Each reference is a slow, direct form of something the package computes
another way, kept here so the tests can compare against it.  The builders
(``UNIT``, ``ROUGH``, ``make_engine``, ``sample``, ``feed``) are the ones
every test module but the acceptance suite takes.  ``replay_ledger`` is
the tests' one replay of the ledger, ``run_fresh`` their one child
interpreter, ``traced_peak`` their one memory measurement and ``within``
their one time limit.
"""

import contextlib
import math
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np

import streamreg
from streamreg import basis, quadrature, tuning
from streamreg.basis import (BasisSpec, PenaltySpec, _check_points,
                             _curvature_factors, _table_shape, eval_matrix,
                             gram_uniform, penalty_matrix)
from streamreg.engine import (OnePassRegressor, batch_fit, normal_equations,
                              penalized_solve)
from streamreg.errors import (DomainError, IllConditionedSystemError,
                              StreamRegError)
from streamreg.harness import M3_TERMS, TARGETS, noise_sigma
from streamreg.lowerbound import (BATCH_SIZE, _protocol_engine,
                                  build_m_omega, bump_kernel)
from streamreg.scheduler import SchedulerConfig
from streamreg.tuning import rho_at

UNIT = BasisSpec(0.0, 1.0)
ROUGH = PenaltySpec("roughness")


def make_engine(*, known, spec=UNIT, **sched_kwargs):
    """An engine on ``spec`` with the roughness penalty and the schedule
    ``SchedulerConfig(**sched_kwargs)``: with a known uniform density, or
    with a sketch."""
    return OnePassRegressor(spec, ROUGH, SchedulerConfig(**sched_kwargs),
                            known_uniform_density=known)


def sample(n, seed, fn, sigma=0.0):
    """n uniform points on [0, 1] and fn at them, plus N(0, sigma^2) noise
    drawn after the points when sigma > 0."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0, 1, n)
    ys = fn(ts)
    if sigma:
        ys = ys + rng.normal(0, sigma, n)
    return ts, ys


def feed(engine, ts, ys=None, batch=100):
    """Ingest (ts, ys) in calls of ``batch`` points; ys = 0 when None, for
    the sketch, which reads t only."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ys is None:
        ys = np.zeros(ts.size)
    for i in range(0, ts.size, batch):
        engine.ingest(ts[i:i + batch], ys[i:i + batch])


def fresh_env(**env):
    """The environment of a child interpreter: this one's, with ``env`` and
    the imported streamreg's parent directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(streamreg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **env, "PYTHONPATH": path}


def run_fresh(code, *argv, **env):
    """The stdout of ``python -c code *argv`` in ``fresh_env(**env)``.  A
    non-zero exit raises ``CalledProcessError``, and a run past 300 s
    ``TimeoutExpired``."""
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=fresh_env(**env), capture_output=True,
                          text=True, check=True, timeout=300).stdout


@contextlib.contextmanager
def within(seconds):
    """Fail the block with TimeoutError once it has run ``seconds`` of real
    time, so that a hang is a failure rather than a stuck suite.  SIGALRM
    interrupts Python code only between bytecodes, so the block must not
    wait inside one C call; it runs in the main thread, as pytest's tests
    do."""
    def expire(signum, frame):
        raise TimeoutError(f"the block ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def traced_peak(fn, *args):
    """Most bytes that ``fn(*args)`` held at once beyond what was held
    before it, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def eval_matrix_trig(spec, q, t):
    """``eval_matrix`` by one np.cos and one np.sin per basis column."""
    if q < 1:
        raise DomainError("basis count q must be >= 1")
    t = _check_points(spec, t)
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


def unit_roots_map(spec, t):
    """``basis._unit_roots``' map from the table of roots at any number of
    points, each step a new array: z = T_j d + T_j."""
    s = (t - spec.origin) * (basis.ROOTS / spec.period)
    j = np.rint(s)
    phi = (s - j) * (2 * math.pi / basis.ROOTS)
    roots = basis._root_table()[j.astype(np.intp) & (basis.ROOTS - 1)]
    p = phi * phi
    d = np.empty(t.size, dtype=complex)
    d.real = p * (p * (1.0 / 24.0) - 0.5)
    d.imag = phi * (1.0 - p * (1.0 / 6.0))
    return d * roots + roots


# pi in long double: the double nearest pi and the remainder
PI_LONG = np.longdouble(math.pi) + np.longdouble(1.2246467991473532e-16)


def unit_roots_long_double(spec, t):
    """(angle, cos, sin) of z = exp(2 pi i (t - origin) / P) in long double,
    the doubles t, origin and P read as exact."""
    angle = (2 * PI_LONG / np.longdouble(spec.period)) \
        * (t.astype(np.longdouble) - np.longdouble(spec.origin))
    return angle, np.cos(angle), np.sin(angle)


def fold(vals, w, start, n_old):
    """``scheduler.fold`` from the batch's basis matrix: row i of ``vals``
    holds phi_j(t_i) at stream index n_old + 1 + i, column j the slot that
    starts at ``start[j]``."""
    sums = vals.T @ w
    for j in (start > n_old + 1).nonzero()[0]:
        lo = start[j] - n_old - 1
        sums[j] = np.dot(vals[lo:, j], w[lo:])
    return sums


class Tables:
    """``basis.moments``' tables and whole-batch moments for a call with
    the weights ``weights`` (None for unit weights) at the points t,
    K = q // 2, built out of place, each row a new array.

    ``low`` holds the rows z^a, a < r, each the row above times z, and
    weight i has the block ``blocks[i]`` of rows w (z^r)^b, b <= K // r:
    w as complex, then each row the one above times z^r, which is z^(r-1)
    times z.  Below SPLIT_MIN r = K + 1, so ``low`` is z^0..z^K and each
    block the weight alone.  One product of every block and ``low`` gives
    ``mu[i]``, as in the call: OpenBLAS's zgemm may round a row otherwise
    in a product of another height (17 rows of 177 points times 12 and 24
    columns, and a two-row product below SPLIT_MIN against one row)."""

    def __init__(self, spec, q, t, weights):
        self.q, self.K, self.period = q, q // 2, spec.period
        self.r = _table_shape(self.K, 1)[0]
        self.weights = [np.ones(t.size) if w is None else w for w in weights]
        self.z = basis._unit_roots(spec, t, np.empty(t.size, complex), None)
        ones = np.ones(t.size, complex)
        r, rows = self.r, self.K // self.r + 1
        self.low = self.chain(ones, self.z, r)
        zr = self.low[-1] * self.z
        self.blocks = [self.chain(w.astype(complex), zr, rows)
                       for w in self.weights]
        self.high = np.concatenate(self.blocks)
        whole = self.high @ self.low.T
        self.mu = [whole[rows * i:rows * (i + 1)].ravel()[:self.K + 1]
                   for i in range(len(weights))]

    @staticmethod
    def chain(first, z, rows):
        """``rows`` rows: ``first``, then each the row above times z."""
        out = [first]
        for _ in range(rows - 1):
            out.append(out[-1] * z)
        return np.array(out)


def sums_out_of_place(tables, i):
    """``basis.sums_from_moments`` of weight i's whole-batch moments."""
    P = tables.period
    mu = tables.mu[i]
    out = np.empty(tables.q)
    out[0] = mu[0].real / math.sqrt(P)
    np.multiply(mu[1:].view(float)[:tables.q - 1], math.sqrt(2.0 / P),
                out=out[1:])
    return out


def suffix_sum(tables, j, i, lo):
    """Entry j of ``sums_out_of_place`` of weight i, phi_{j+1}, over the
    points from index lo on: the dot product of z^(k mod r) with w's row
    w (z^r)^(k // r)."""
    k = (j + 1) // 2
    mu = np.dot(tables.low[k % tables.r, lo:],
                tables.blocks[i][k // tables.r, lo:])
    if j == 0:
        return mu.real / math.sqrt(tables.period)
    return math.sqrt(2.0 / tables.period) * (mu.real if j % 2 else mu.imag)


def normal_equations_out_of_place(spec, q, ts, ys):
    """``engine.normal_equations`` from the out-of-place tables of its call
    with the unit and the y weights."""
    n = ts.size
    tables = Tables(spec, 2 * q, ts, (None, ys))
    H = basis.gram_from_moments(spec, q, tables.mu[0])
    return H / n, sums_out_of_place(tables, 1)[:q] / n


def fold_scan(tables, i, start, n_old):
    """``scheduler.fold`` of weight i of ``tables`` with a full scan of
    ``start`` for the slots that open mid-batch, for any start vector,
    monotone or not, and the whole-batch sums from the out-of-place tables
    (``sums_out_of_place``)."""
    sums = sums_out_of_place(tables, i)
    for j in (start > n_old + 1).nonzero()[0]:
        sums[j] = suffix_sum(tables, j, i, start[j] - n_old - 1)
    return sums


def clamped_counts(start, n):
    """Per-slot sample counts max(n - tau_j + 1, 0) at any time n, also
    before a slot's tau_j."""
    return np.maximum(n - start + 1, 0)


def update_theta(theta, start, sums, n_old, n_new):
    """``DensityState.update`` as the general running-mean recursion, with
    both slot counts clamped whether or not a slot opened; returns theta."""
    if start.size > theta.size:
        theta = np.concatenate([theta, np.zeros(start.size - theta.size)])
    counts_new = np.maximum(clamped_counts(start, n_new), 1)
    return (clamped_counts(start, n_old) * theta + sums) / counts_new


def update_theta_two_branch(theta, start, sums, n_old, n_new):
    """``DensityState.update`` as two branches; returns theta.  When no slot
    opened, every tau_j <= n_old and both counts are unclamped; otherwise
    theta is zero-padded and both counts are clamped."""
    if start.size == theta.size:
        counts_new = (n_new + 1) - start
        return ((counts_new - (n_new - n_old)) * theta + sums) / counts_new
    theta = np.concatenate([theta, np.zeros(start.size - theta.size)])
    return (clamped_counts(start, n_old) * theta
            + sums) / clamped_counts(start, n_new)


def ledger_step(reg_basis, density_basis, schedule, state, ts, ys):
    """``OnePassRegressor.ingest`` of one valid batch by ``fold_scan`` and
    ``update_theta``: G first, then the sketch's unit weights, from
    out-of-place tables of the engine's calls.  When the sketch's basis is
    G's, one call takes both weights, (None, y); otherwise G's call takes
    y alone and the sketch's the unit weights.  ``state`` is (n, start, G,
    theta), theta None without a sketch; returns the state after the
    batch."""
    n, start, G, theta = state
    n_new = n + ts.size
    start = schedule.extend(start, n_new, basis.identifiable_count(reg_basis))
    shared = theta is not None and density_basis == reg_basis
    tables = Tables(reg_basis, start.size, ts, (None, ys) if shared else (ys,))
    G = np.concatenate([G, np.zeros(start.size - G.size)]) \
        + fold_scan(tables, len(tables.weights) - 1, start, n)
    if theta is not None:
        if not shared:
            tables = Tables(density_basis, start.size, ts, (None,))
        theta = update_theta(theta, start, fold_scan(tables, 0, start, n),
                             n, n_new)
    return n_new, start, G, theta


def replay_ledger(reg_basis, schedule, ts, ys):
    """The ledger after one pass over all of (ts, ys), from the whole
    retained stream: the start vector tau_1..tau_s, s = min(slot_count(n),
    identifiable_count), the sums G_j = sum_{i >= tau_j} phi_j(t_i) y_i on
    ``reg_basis`` and the sketch's slot means theta_j on its unextended
    basis, both by ``eval_matrix_trig``.  Returns (start, G, theta)."""
    n = ts.size
    s = min(schedule.slot_count(n), basis.identifiable_count(reg_basis))
    start = np.array([schedule.tau(j) for j in range(1, s + 1)],
                     dtype=np.int64)
    vals = eval_matrix_trig(reg_basis, s, ts)
    dens = eval_matrix_trig(BasisSpec(reg_basis.lo, reg_basis.hi), s, ts)
    G = np.array([vals[tau - 1:, j] @ ys[tau - 1:]
                  for j, tau in enumerate(start)])
    theta = np.array([dens[tau - 1:, j].sum() / (n - tau + 1)
                      for j, tau in enumerate(start)])
    return start, G, theta


# unit roundoff of a float64
U = np.finfo(float).eps / 2


def fold_rounding(sizes, slots, steps):
    """gamma_m = m u / (1 - m u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 3.1) bounding, to first order in u,
    the rounding of one per-slot running sum that ``engine.ingest`` folds
    from calls of ``sizes`` points with at most ``slots`` slots open,
    relative to sum_i s |z_i^k w_i| = sum_i s |w_i| over the slot's points,
    where s is the scale sqrt(2/P) (1/sqrt(P) for phi_1) and Re or Im of
    s z_i^k w_i is the slot's term.

    The exact value it is measured from is the sum on the same computed
    z_i = exp(2 pi i (t_i - origin) / P): every partition computes z_i by
    the same elementwise expression.  m adds up, for a call of m_c points:

    - sqrt(5) K, K = slots // 2: z^k, k <= K, is a chain of at most K
      complex products of z_i (``basis.moments``: z^a, w_i (z^r)^b and
      their product), each within sqrt(5) u (Brent, Percival and
      Zimmermann, *Math. Comp.* 76, 2007);
    - 1 for the real product of w_i, a block's second row w_i z_i^r;
    - 2 m_c for the sum: each real part of a complex dot product of m_c
      terms is a sum of 2 m_c real products, whatever their order;
    - 1 for the scale sqrt(2/P) or 1/sqrt(P);
    - ``steps`` per call for the running sum across calls: one for G's
      G + sums, three for the sketch's implied sum n_j theta_j, which
      ``DensityState.update`` forms by a product, a sum and a quotient.
    """
    m = (math.sqrt(5.0) * (slots // 2) + 2.0 * max(sizes) + 2.0
         + steps * len(sizes))
    return m * U / (1.0 - m * U)


def partition_tolerance(w, start, period, steps, sizes_a, sizes_b):
    """Per-slot bound on |a_j - b_j| for one running sum folded from one
    stream of weights ``w`` in calls of ``sizes_a`` and of ``sizes_b``
    points: both sides' ``fold_rounding`` times
    sqrt(2/P) sum_{i >= tau_j} |w_i|."""
    gamma = (fold_rounding(sizes_a, start.size, steps)
             + fold_rounding(sizes_b, start.size, steps))
    abs_w = np.abs(w)
    return gamma * math.sqrt(2.0 / period) * np.array(
        [math.fsum(abs_w[tau - 1:]) for tau in start])


def alice_encode_per_batch(inst, n, rng, mem_cap, noise_sd):
    """``lowerbound.alice_encode`` evaluating m_omega and calling
    ``ingest`` once per batch."""
    m = build_m_omega(inst)
    reg = _protocol_engine(mem_cap)
    remaining = n
    while remaining > 0:
        size = min(BATCH_SIZE, remaining)
        ts = rng.uniform(0.0, 1.0, size)
        ys = m(ts)
        if noise_sd > 0:
            ys = ys + rng.normal(0.0, noise_sd, size)
        reg.ingest(ts, ys)
        remaining -= size
    return reg.checkpoint_json(), reg.memory_footprint()


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


def m3_at_nodes(j, N, chunk=8):
    """m3(j/N) for integer nodes j by the direct series in np.longdouble.

    Each angle 2 pi k j / N is the integer (k j) mod N, an index into one
    table of sin(2 pi r / N), r = 0..N-1 (the cosine reads it a quarter
    turn on), so every term carries long-double precision."""
    j = np.asarray(j, dtype=np.int64)
    ks = np.arange(1, M3_TERMS // 2 + 1, dtype=np.int64)
    two_ks = 2 * ks.astype(np.longdouble)
    c_coef = two_ks ** np.longdouble(-1.5)
    s_coef = np.where(2 * ks + 1 <= M3_TERMS,
                      (two_ks + 1) ** np.longdouble(-1.5), 0)
    sines = np.sin(2 * np.arccos(np.longdouble(-1)) / N * np.arange(N))
    out = np.empty(j.size, dtype=np.longdouble)
    for lo in range(0, j.size, chunk):
        r = np.outer(j[lo:lo + chunk], ks) % N
        out[lo:lo + chunk] = 1 + sines[r] @ s_coef
        r += N // 4
        r %= N
        out[lo:lo + chunk] += sines[r] @ c_coef
    return out


def replicate_data_unchunked(sc, replicate):
    """``harness._replicate_data`` in one call at n: the target at all n
    points, plus all n noise draws."""
    rng = np.random.default_rng(np.random.SeedSequence([sc.seed, replicate]))
    ts = rng.uniform(0.0, 1.0, sc.n)
    ys = TARGETS[sc.target](ts) + rng.normal(0.0, noise_sigma(sc), sc.n)
    return ts, ys


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


def roughness_penalty_dense(spec, q):
    """``penalty_matrix``'s roughness W as the dense product
    (hi - lo) diag(c) H diag(c) of the uniform Gram H, symmetrized."""
    c = _curvature_factors(spec, q)
    W = (spec.hi - spec.lo) * c[:, None] * gram_uniform(spec, q) * c[None, :]
    return 0.5 * (W + W.T)


def roughness_penalty_diagonal(spec, q):
    """The roughness W's diagonal at margin 0, where H = I_q / (hi - lo):
    ((hi - lo) c) (1 / (hi - lo)) c, the roundings of the dense product's
    diagonal, with no q x q product."""
    c = _curvature_factors(spec, q)
    length = spec.hi - spec.lo
    return ((length * c) * (1.0 / length)) * c


def penalty_as_matrix(W):
    """A ``penalty_matrix`` result as the q x q matrix W: at margin 0 it is
    W's diagonal, and every entry off it is +0.0."""
    return np.diag(W) if W.ndim == 1 else W


def second_derivative_matrix(spec, q, t):
    """Evaluate phi_1''..phi_q'' at the points t."""
    return eval_matrix(spec, q, t) * _curvature_factors(spec, q)[None, :]


def weighted_gram(spec, q, x, w):
    """sum_i w_i phi(x_i) phi(x_i)^T for phi = (phi_1..phi_q), symmetrized.

    One double product over all points rounds in proportion to their
    number, to 2e-12 of the largest entry at 1e5 points.  Here each block of
    64 points is one double product, eight such blocks are added in double,
    and those sums accumulate in long double.
    """
    V = eval_matrix(spec, q, x)
    wV = np.asarray(w, dtype=float)[:, None] * V
    H = np.zeros((q, q), dtype=np.longdouble)
    for lo in range(0, V.shape[0], 512):
        H += sum(V[i:i + 64].T @ wV[i:i + 64]
                 for i in range(lo, min(lo + 512, V.shape[0]), 64))
    return (0.5 * (H + H.T)).astype(float)


def gram_from_moments(spec, q, mu):
    """``basis.gram_from_moments`` by its complex assembly: the Toeplitz
    T[k, l] = mu_{k-l} (mu_{-m} = conj mu_m) and the Hankel Hk[k, l] =
    mu_{k+l} as complex arrays, their real and imaginary sums and
    differences in a 4-D array, then the division by P and phi_1's
    scalings.  The gathered assembly must have its bits."""
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


def sup_sum_squares(spec, q):
    """Max over a uniform grid of sum_{j<=q} phi_j(t)^2.

    Diagnostic for the basis-growth bound sup_t sum phi_j^2 <= C q^alpha.
    """
    t = np.linspace(spec.lo, spec.hi, 10001)
    V = eval_matrix(spec, q, t)
    return float(np.max(np.sum(V * V, axis=1)))


class QuadratureError(StreamRegError, ArithmeticError):
    """Numerical integration failed to stabilize under node doubling."""


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
        n_nodes = quadrature.node_count(q, 0)

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


def holder_constant_estimate(inst):
    """Finite-difference estimate of the order-beta Holder constant of m_omega.

    Used to confirm numerically that the chosen c_K keeps the encoded
    function within the smoothness class of Holder constant chi = 1.
    """
    m = build_m_omega(inst)
    t = np.linspace(0.0, 1.0, 20001)
    v = m(t)
    dt = t[1] - t[0]
    nu = int(np.ceil(inst.beta)) - 1
    d = np.diff(v, n=nu) / dt ** nu if nu > 0 else v
    return float(np.max(np.abs(np.diff(d))) / dt ** (inst.beta - nu))


def bump_kernel_masked(t):
    """``lowerbound.bump_kernel`` evaluated only where |t| < 1/2, and 0
    elsewhere."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 0.5
    u = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - 4.0 * u * u))
    return out


def build_m_omega_loop(inst):
    """``build_m_omega`` summing every active bump at every point."""
    amp = inst.c_K * inst.k ** (-inst.beta)
    omega = np.asarray(inst.omega, dtype=float)
    centers = inst.centers

    def m_omega(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        total = np.zeros_like(t)
        for w, tj in zip(omega, centers):
            if w:
                total += amp * bump_kernel(inst.k * (t - tj))
        return total

    return m_omega


def cv_table_by_batch_fit(ts, ys, grid, penalty, spec):
    """``tuning.cv_table`` with one ``batch_fit`` per grid point and fold,
    over ``tuning.C_RHO_GRID`` and ``tuning.FOLDS`` as they are when it
    runs."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size < grid.n0:
        raise ValueError(f"warm-up requires at least n0={grid.n0} observations")
    ts = ts[: grid.n0]
    ys = ys[: grid.n0]
    J = tuning.FOLDS
    folds = np.arange(grid.n0) % J

    rows = []
    for C_rho in tuning.C_RHO_GRID:
        for h in grid.h_grid:
            q = SchedulerConfig(h=h).active_count(grid.n0)
            rho = rho_at(C_rho, h, grid.n0, penalty.zeta)
            fold_cv = []
            try:
                for j in range(J):
                    train = folds != j
                    coef = batch_fit(ts[train], ys[train], spec, q, rho, penalty)
                    V = eval_matrix(spec, q, ts[~train])
                    resid = ys[~train] - V @ coef
                    fold_cv.append(float(np.dot(resid, resid)))
                cv = sum(fold_cv)
                se = float(np.std(fold_cv, ddof=1) * np.sqrt(J))
            except IllConditionedSystemError:
                cv, se = float("inf"), 0.0
            rows.append({"C_rho": C_rho, "h": h, "rho": rho, "cv": cv,
                         "se": se})
    return rows


def gamma(m):
    """gamma_m = m u / (1 - m u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 3.1)."""
    return m * U / (1.0 - m * U)


def cv_tolerance(ts, ys, grid, penalty, spec):
    """Per-row bounds (on cv, on se) on how far ``tuning.cv_table`` and
    ``cv_table_by_batch_fit`` may differ, in row order; None for a row whose
    fold systems the oracle refuses.

    Both tables fit fold j's complement (n_t points) by ``penalized_solve``
    and score fold j (m points): the table from the fold's own sums as
    y'y - 2 a'b + a'Aa, with A = Phi_j'Phi_j and b = Phi_j'y_j, the oracle
    from the residuals y_j - Phi_j a.  Both read the same computed
    z_i = exp(2 pi i (t_i - origin) / P), and |phi_k| <= s = sqrt(2/P).  To
    first order in u, with Q the grid's largest q:

    - each side's training Gram entry is within eps_H = gamma_c s^2 n0 / n_t
      and each rhs entry within gamma_c s sum_i |y_i| / n_t (i over all n0
      points) of the exact sums on those z_i, c = sqrt(5) Q + 2 n0 + J + 8:
      powers z^k are chains of at most Q complex products, each within
      sqrt(5) u; a moment's real part is a sum of at most 2 n0 real
      products; the table scales each fold's sums by m, adds the J folds
      and subtracts fold j (J + 1 roundings of partial sums no larger than
      the sums over all n0 points) and divides by n_t, and
      ``gram_from_moments`` adds two moments and divides by P;
    - each side's solve then satisfies (M + dM) a = rhs + e, M = H + rho W,
      with ||dM|| <= q eps_H + gamma_2 || |H| + rho |W| || (forming M) +
      gamma_{3q+1} q ||M|| (Cholesky: |dM| <= gamma_{3q+1} |R'||R|, Higham
      thm. 10.4, and || |R'||R| || <= || |R| ||^2 <= q ||R||^2 = q ||M||), and
      ||e|| <= sqrt(q) times the rhs bound, so the two coefficient vectors
      differ by at most delta = 2 ||M^-1|| (||dM|| ||a|| + ||e||) /
      (1 - ||M^-1|| ||dM||), norms 2-norms;
    - that moves fold j's exact score by at most g delta + ||A|| delta^2,
      g = 2 ||A a - b||, the score's gradient;
    - the score's own rounding is the cancellation in y'y - 2 a'b + a'Aa:
      at most gamma_c' (y'y + 2 s ||a||_1 sum_j |y| + m s^2 ||a||_1^2) per
      side, each term the sum of absolute values its sum rounds against,
      c' = sqrt(5) Q + 2 m + 2 q + 8 (z^k chains, the fold sums of at most
      2 m real products, their scaling by m, the q- and q^2-term products
      and the final two operations); the oracle's residual sum, with
      |phi_k(t_i)| rounded within (sqrt(5) q / 2 + 1) u, rounds by at most
      twice that, so three times covers both sides.

    The CV sum adds J rounded values (gamma_J cv per side).  The standard
    error is sqrt(J / (J - 1)) times the norm of the deviations from the
    fold mean, a projection, so it moves by at most sqrt(J / (J - 1)) times
    the 2-norm of the per-fold bounds, plus its own rounding, gamma_{2J+6}
    sqrt(J / (J - 1)) sum_j cv_j per side (the mean, J deviations, their
    squares and sum, one division, two square roots and the product).
    """
    ts = np.asarray(ts, dtype=float)[:grid.n0]
    ys = np.asarray(ys, dtype=float)[:grid.n0]
    J = tuning.FOLDS
    folds = np.arange(grid.n0) % J
    qs = [SchedulerConfig(h=h).active_count(grid.n0) for h in grid.h_grid]
    Q = max(qs)
    s = math.sqrt(2.0 / spec.period)
    eps = gamma(math.sqrt(5.0) * Q + 2 * grid.n0 + J + 8)
    tols = []
    for C_rho in tuning.C_RHO_GRID:
        for h, q in zip(grid.h_grid, qs):
            rho = rho_at(C_rho, h, grid.n0, penalty.zeta)
            W = penalty_matrix(spec, penalty, q)
            W_dense = penalty_as_matrix(W)
            per_fold, cvs = [], []
            try:
                for j in range(J):
                    train = folds != j
                    H, rhs = normal_equations(spec, q, ts[train], ys[train])
                    a = penalized_solve(H, W, rho, rhs, None)[0]
                    M = H + rho * W_dense
                    lam = np.linalg.eigvalsh(M)
                    n_t = np.count_nonzero(train)
                    dM = (q * eps * s * s * grid.n0 / n_t
                          + gamma(2) * np.linalg.norm(np.abs(H)
                                                      + rho * np.abs(W_dense),
                                                      2)
                          + gamma(3 * q + 1) * q * lam[-1])
                    e = math.sqrt(q) * eps * s * np.abs(ys).sum() / n_t
                    growth = dM / lam[0] if lam[0] > 0 else math.inf
                    delta = (2.0 * (dM * np.linalg.norm(a) + e) / lam[0]
                             / (1.0 - growth) if growth < 1 else math.inf)
                    V = eval_matrix(spec, q, ts[~train])
                    y = ys[~train]
                    m = y.size
                    A, b = V.T @ V, V.T @ y
                    g = 2.0 * np.linalg.norm(A @ a - b)
                    a1 = np.abs(a).sum()
                    c = gamma(math.sqrt(5.0) * Q + 2 * m + 2 * q + 8)
                    scale = y @ y + 2 * s * a1 * np.abs(y).sum() \
                        + m * s * s * a1 * a1
                    per_fold.append(g * delta + 3.0 * c * scale
                                    + np.linalg.norm(A, 2) * delta ** 2)
                    cvs.append(float(np.sum((y - V @ a) ** 2)))
            except IllConditionedSystemError:
                tols.append(None)
                continue
            spread = math.sqrt(J / (J - 1))
            tols.append((sum(per_fold) + 2 * gamma(J) * sum(cvs),
                         spread * (np.linalg.norm(per_fold)
                                   + 2 * gamma(2 * J + 6) * sum(cvs))))
    return tols
