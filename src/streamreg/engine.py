"""Space-saving one-pass regressor.

The state carried across batches is one real per summary slot: the vector G
with G_j = sum_{i >= tau_j} phi_j(T_i) * Y_i, the slot start times, and the
design density's own state: the sketch theta when the predictor density is
unknown (``DensityState``), nothing when it is known to be uniform
(``UniformDensity``).  G and theta share one slot ledger (n, the start
vector), which the engine alone holds.  At query time the Gram matrix is
rebuilt on the fly from the design density and the penalized system

    (H_q + rho*W) a = N_q^{-1} G_q,       N_q = diag(n_1, ..., n_q)

is solved for the active slots only.
"""

import dataclasses
import json
import math

import numpy as np

from . import basis as basis_mod
from .basis import lapack
from .density import DensityState, UniformDensity
from .errors import CheckpointError, DomainError, IllConditionedSystemError
from .scheduler import C_CIRC, C_Q, SchedulerConfig, fold, slot_counts

CHECKPOINT_FORMAT = "streamreg-checkpoint-v1"

# Scalars of a v1 checkpoint record counted in the memory footprint beside
# its vectors G, start, theta and theta_start.
SCALAR_UNITS = 4

# Warm-up ridge floor keeping the system SPD before q0 observations arrive.
WARMUP_RHO_FLOOR = 1e-8

# Floor on LAPACK dpocon's estimate of 1/kappa_1 = 1/(||A||_1 ||A^-1||_1),
# below which the penalized system is treated as singular rather than
# solved.  For symmetric A of order q, lambda_max/lambda_min <= kappa_1 <=
# q lambda_max/lambda_min, and the estimate never undershoots 1/kappa_1, so
# the gate matches the eigenvalue-ratio test within a factor of about q.
# dpocon runs unless a conditioning certificate stands in for it: a proven
# bound kappa on kappa_2 of the system, widened by 8 (q + 1)^2 u of its
# largest eigenvalue for rounding, with q kappa below 1 / RCOND_FLOOR, so
# that dpocon could not have refused it (see ``penalized_solve``).
RCOND_FLOOR = 1e-10

_EPS = float(np.finfo(float).eps)


def _from_fields(cls, record):
    """The dataclass ``cls`` built from its fields' entries in ``record``."""
    return cls(**{f.name: record[f.name] for f in dataclasses.fields(cls)})


def _same(a, b):
    """Equal JSON values of equal types (for ==, 1 equals 1.0 and True)."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return all(_same(a[key], b[key]) for key in a)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return all(map(_same, a, b))
    return type(a) is type(b) and a == b


class OnePassRegressor:
    """Streaming penalized orthogonal-series regression estimator."""

    def __init__(self, reg_basis, penalty, schedule, batch_size=100,
                 known_uniform_density=False):
        if not (basis_mod.is_count(batch_size) and batch_size >= 1):
            raise ValueError(
                f"batch_size must be an integer >= 1, got {batch_size!r}")
        if not isinstance(known_uniform_density, bool):
            raise ValueError(f"known_uniform_density must be a bool, got "
                             f"{known_uniform_density!r}")
        if basis_mod.identifiable_count(reg_basis) == 0:
            raise ValueError(f"extension_margin "
                             f"{reg_basis.extension_margin!r} leaves no "
                             f"identifiable basis function")
        self.reg_basis = reg_basis
        self.penalty = penalty
        self.schedule = schedule
        self.batch_size = batch_size
        self.n = 0
        self.G = np.zeros(0)
        self.start = np.zeros(0, dtype=np.int64)
        self.density = UniformDensity(reg_basis) if known_uniform_density \
            else DensityState(basis_mod.BasisSpec(reg_basis.lo, reg_basis.hi)
                              if reg_basis.extension_margin else reg_basis)
        self._coef_cache = {}
        # for the ``stats`` query only; neither is checkpointed
        self.last_solve = None  # the gate record of the last solve
        self.coef_cache_hits = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest(self, ts, ys):
        """Fold one batch of (t, y) pairs into the summary statistics.

        Scalar t and y are a batch of one.  Validation happens before any
        mutation: a batch that is not one-dimensional, or has out-of-domain
        predictors, non-finite responses, or responses so large that G
        overflows, is rejected atomically.
        """
        spec, density, n_old = self.reg_basis, self.density, self.n
        ts, ys = _read_batch(spec, ts, ys)
        n_new = n_old + ts.size
        start = self.schedule.extend(
            self.start, n_new, basis_mod.identifiable_count(spec))
        # the basis of the design's unit-weight sums: a sketch's own, which
        # at margin 0 is this very one and shares G's tables; None for a
        # known density, which folds none
        unit_basis = density.basis
        shared = unit_basis is spec
        G = self.G
        if start.size > G.size:
            G = np.concatenate([G, np.zeros(start.size - G.size)])
        # a new array: self.G stays untouched until the overflow check passes
        with np.errstate(over="ignore", invalid="ignore"):
            sums = fold(spec, ts, (None, ys) if shared else (ys,), start,
                        n_old)
            G = G + sums[-1]
        if not np.isfinite(G).all():
            raise ValueError("batch overflows the summary statistics")
        if unit_basis is not None:
            if not shared:
                sums = fold(unit_basis, ts, (None,), start, n_old)
            density.update(sums[0], slot_counts(start, n_new), ts.size)
        self.G, self.start, self.n = G, start, n_new
        if unit_basis is not None:
            density.active_count = self.active_count
        self._coef_cache.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def active_count(self):
        if self.n < 1:
            return 0
        return min(self.schedule.active_count(self.n), self.G.size)

    def gram(self, q):
        """Gram matrix H of the first q basis functions at the current
        state, and an interval (lo, hi) proven to hold its eigenvalues, or
        None.

        At margin 0 the family is orthonormal on the domain, so
        H = int phi phi^T f, and by the Rayleigh quotient its eigenvalues lie
        between the least and the greatest value of the design density f
        (Grenander and Szego, *Toeplitz Forms and Their Applications*,
        1958), the design's ``bounds``.  The interval goes with the H it
        describes to ``penalized_solve``.
        """
        spec, design = self.reg_basis, self.density
        return (design.gram(spec, q),
                design.bounds() if spec.extension_margin == 0.0 else None)

    def solve_coefficients(self, rho):
        """Solve the penalized system for the currently active slots."""
        if rho < 0:
            raise ValueError("rho must be >= 0")
        q = self.active_count
        if q < 1:
            raise IllConditionedSystemError("no active basis function yet")
        # every open slot has tau_j <= n, so every count is at least 1
        counts = slot_counts(self.start, self.n)[:q]
        if self.n < self.schedule.q0:
            rho = max(rho, WARMUP_RHO_FLOOR)
        W = basis_mod.penalty_matrix(self.reg_basis, self.penalty, q)
        H, spectrum = self.gram(q)
        coef, self.last_solve = penalized_solve(H, W, rho,
                                                self.G[:q] / counts, spectrum)
        return coef

    def coefficients(self, rho):
        """Cached coefficient solve; the cache clears on every ingest."""
        key = float(rho)
        if key in self._coef_cache:
            self.coef_cache_hits += 1
        else:
            self._coef_cache[key] = self.solve_coefficients(rho)
        return self._coef_cache[key]

    def estimate(self, t, rho):
        """Evaluate the current regression estimate at t (scalar or array)."""
        return basis_mod.series(self.reg_basis, self.coefficients(rho), t)

    def memory_footprint(self):
        """Exact count of the reals in the v1 checkpoint record: G, start,
        theta, theta_start (the sketch's copy of start, as long as theta) and
        SCALAR_UNITS."""
        return int(self.G.size + self.start.size + 2 * self.density.theta.size
                   + SCALAR_UNITS)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Serializable record sufficient to resume ingestion bit-exactly."""
        theta = self.density.theta
        return {
            "format": CHECKPOINT_FORMAT,
            "n": self.n,
            "batch_size": self.batch_size,
            # v1 keeps the schedule's constants and a fixed_q key, always null
            "config": {
                "family": "fourier",
                **dataclasses.asdict(self.reg_basis),
                "penalty": self.penalty.kind,
                "h": self.schedule.h, "C_q": C_Q, "c_circ": C_CIRC,
                "q0": self.schedule.q0, "mem_cap": self.schedule.mem_cap,
                "fixed_q": None,
                "known_uniform_density": isinstance(self.density,
                                                    UniformDensity),
            },
            "G": self.G.tolist(),
            "start": self.start.tolist(),
            "theta": theta.tolist(),
            "theta_start": self.start[:theta.size].tolist(),
        }

    def checkpoint_json(self):
        return json.dumps(self.checkpoint())

    @classmethod
    def from_checkpoint(cls, record):
        """The engine whose ``checkpoint()`` is ``record``, a dict or its
        JSON text; any other record raises ``CheckpointError``."""
        if isinstance(record, (str, bytes)):
            try:
                record = json.loads(record)
            except ValueError as exc:  # bad JSON or bytes that are not text
                raise CheckpointError(f"unparseable checkpoint: {exc}") from exc
        try:
            cfg = record["config"]
            # the constructors reject every value of a wrong type or range
            reg = cls(_from_fields(basis_mod.BasisSpec, cfg),
                      basis_mod.PenaltySpec(cfg["penalty"]),
                      _from_fields(SchedulerConfig, cfg),
                      batch_size=record["batch_size"],
                      known_uniform_density=cfg["known_uniform_density"])
            n = record["n"]
            G = np.array(record["G"], dtype=float)
            theta = np.array(record["theta"], dtype=float)
            slots = len(record["start"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"corrupt checkpoint record: {exc}") from exc
        # bool is an int subclass; n must fit the int64 slot arithmetic
        if type(n) is not int or not 0 <= n < 2 ** 63:
            raise CheckpointError(
                f"checkpoint n must be an integer in [0, 2**63), got {n!r}")
        # compare sizes first, so a huge n never builds its tau list
        q_id = basis_mod.identifiable_count(reg.reg_basis)
        opened = reg.schedule.slot_count(n) if n else 0
        if slots != min(opened, q_id):
            raise CheckpointError("checkpoint start does not match the schedule")
        reg.n, reg.G, reg.start = n, G, reg.schedule.extend(reg.start, n, q_id)
        # G and theta are written back as they are, so the round trip below
        # sees neither a wrong length nor an inf.  A sketch holds one theta
        # per slot, a known density none: its theta is left to the round trip
        per_slot = reg.density.basis is not None
        shapes = {G.shape, theta.shape if per_slot else G.shape}
        finite = np.isfinite(G).all() and np.isfinite(theta).all()
        if shapes != {reg.start.shape} or not finite:
            raise CheckpointError("checkpoint G or theta is not finite or "
                                  "does not match the slots")
        if per_slot:
            reg.density.theta = theta
            reg.density.active_count = reg.active_count
        written = reg.checkpoint()
        same = {key for key, value in written.items()
                if key in record and _same(value, record[key])}
        differ = sorted((written.keys() | record.keys()) - same, key=str)
        if differ:
            raise CheckpointError(
                f"checkpoint keys {differ} differ from what the engine writes")
        return reg


def _read_batch(spec, ts, ys):
    """The t and y arrays of a non-empty one-dimensional batch of (t, y)
    pairs with t in [lo, hi] and y finite; scalar t and y are a batch of
    one.  ValueError (DomainError for a t outside [lo, hi]) for any other."""
    ts = np.array(ts, float, copy=None, ndmin=1)
    ys = np.array(ys, float, copy=None, ndmin=1)
    if ts.size == 0:
        raise ValueError("batch must be non-empty")
    if ts.shape != ys.shape:
        raise ValueError("t and y batches must have equal length")
    if ts.ndim != 1:
        raise ValueError("t and y batches must be one-dimensional")
    if not spec.contains(ts):
        raise DomainError("batch contains t values outside the domain")
    if not np.isfinite(ys).all():
        raise ValueError("batch contains non-finite y values")
    return ts, ys


def batch_fit(ts, ys, spec, q, rho, penalty):
    """Non-streaming baseline: (n^-1 Phi'Phi + rho W)^-1 (n^-1 Phi'Y)."""
    H, rhs = normal_equations(spec, q, ts, ys)
    W = basis_mod.penalty_matrix(spec, penalty, q)
    return penalized_solve(H, W, rho, rhs, None)[0]


def normal_equations(spec, q, ts, ys):
    """The batch system's n^-1 Phi'Phi and n^-1 Phi'Y from the sample's
    Fourier moments, with no n x q basis matrix.  The sample is read as
    ``ingest`` reads a batch."""
    ts, ys = _read_batch(spec, ts, ys)
    if q < 1:
        raise DomainError("basis count q must be >= 1")
    n = ts.size
    unit, weighted = basis_mod.moments(spec, q, ts, (None, ys), ())
    H = basis_mod.gram_from_moments(spec, q, unit)
    return H / n, basis_mod.sums_from_moments(spec, q, weighted) / n


def _kappa_bound(spectrum, w, rho):
    """An upper bound on kappa_2(H + rho W) as LAPACK sees it, from an
    interval (lo, hi) holding the eigenvalues of H, for a PSD W of diagonal
    w (W itself, where it is diagonal); inf when there is no interval or it
    proves nothing."""
    if spectrum is None or not rho >= 0.0:
        return math.inf
    lo, hi = spectrum
    hi = hi + rho * float(w.sum())  # lambda_max(W) <= tr W, W being PSD
    # the rounding of H, A and the interval, dpotrf's backward error and
    # that of the solves in dpocon: each under 2 q (q + 1) u ||A||_2
    delta = 8 * (w.size + 1) ** 2 * _EPS * hi
    return (hi + delta) / (lo - delta) if lo > delta else math.inf


def penalized_solve(H, W, rho, rhs, spectrum):
    """(H + rho W)^-1 rhs by Cholesky, for the engine, batch and CV fits,
    and the record of the gate that admitted the system.

    A Cholesky factorization can succeed on a system that is singular to
    working precision and silently return garbage, so the system must also
    be shown to be well conditioned.  ``spectrum`` is an interval (lo, hi)
    proven to hold the eigenvalues of H, or None.  With W PSD, those of
    A = H + rho W lie in [lo, hi + rho tr W].  Widen that interval by
    delta = 8 (q + 1)^2 u (hi + rho tr W), u the unit roundoff.  Delta
    covers the rounding of H, of A and of the interval itself, the backward
    error of dpotrf, |dA| <= gamma_{q+1} |R^T| |R| with
    || |R^T| |R| ||_2 <= q ||A||_2 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, Thm 10.3), and that of the triangular
    solves inside dpocon.  Then kappa = (hi + rho tr W + delta) / (lo -
    delta) bounds kappa_2 of the matrix LAPACK factors.  dpocon's estimate
    never undershoots 1/kappa_1 >= 1/(q kappa_2) (Higham, ch. 15), so when
    q kappa < 1 / RCOND_FLOOR it could not refuse the system: it is
    skipped, and the record is {"gate": "certificate", "kappa_bound":
    kappa}.  Otherwise LAPACK's estimate of the reciprocal 1-norm condition
    number gates the solve, and the record is {"gate": "dpocon", "rcond":
    rcond}.  So the certificate refuses no system that dpocon accepts, and
    accepts none it refuses.

    A refusal reports dpotrf's failure or dpocon's estimate.  The LAPACK
    routines are called through ``basis.lapack``, scipy's Fortran wrappers,
    with none of scipy.linalg's input checks, so a non-finite system is
    refused here, before anything is factored.

    W is a q x q matrix or, where it is diagonal, its diagonal w
    (``penalty_matrix``): A is then H plus rho w on the diagonal, and its
    zeros off it get, from the added rho * 0.0, the signs that H + rho W
    gives them.  H must be symmetric to the bit, as every Gram matrix the
    package builds is: A = H + rho W is then symmetric too, so its C-order
    buffer, read as A.T, is the Fortran array dpotrf factors in place.  A
    is formed once and is the only q x q array the solve builds, so a
    solve holds H and A.  LAPACK's dlange reads A's 1-norm without writing
    to it, and that one norm is both gates' finiteness test and the norm
    dpocon needs."""
    A = np.empty(H.shape)
    if W.ndim == 1:
        np.add(H, rho * 0.0, out=A)
        A[np.diag_indices(A.shape[0])] += rho * W
        w = W
    else:
        np.multiply(W, rho, out=A)
        A += H
        w = W.diagonal()
    # a NaN or inf in A makes its 1-norm NaN or inf, and so does a finite A
    # too large for its 1-norm to be a double, which dpocon could not gate
    anorm = lapack.dlange("1", A.T)
    if not (np.isfinite(anorm) and np.isfinite(rhs).all()):
        raise ValueError("penalized system holds a NaN or inf")
    c, info = lapack.dpotrf(A.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise IllConditionedSystemError(
            "penalized Gram system is not positive definite")
    kappa = _kappa_bound(spectrum, w, rho)
    if A.shape[0] * kappa < 1.0 / RCOND_FLOOR:
        gate = {"gate": "certificate", "kappa_bound": kappa}
    else:
        rcond = float(lapack.dpocon(c, anorm, uplo="L")[0])
        # a NaN rcond fails the gate too
        if not rcond > RCOND_FLOOR:
            raise IllConditionedSystemError(
                f"penalized Gram system is numerically singular "
                f"(rcond {rcond:.3e} <= {RCOND_FLOOR:g})")
        gate = {"gate": "dpocon", "rcond": rcond}
    return lapack.dpotrs(c, rhs, lower=1)[0], gate
