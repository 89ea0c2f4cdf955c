"""Space-saving one-pass regressor.

The state carried across batches is one real per summary slot: the vector G
with G_j = sum_{i >= tau_j} phi_j(T_i) * Y_i, the slot start times, and (when
the predictor density is unknown) the density sketch.  At query time the
Gram matrix is rebuilt on the fly from the sketch and the penalized system

    (H_q + rho*W) a = N_q^{-1} G_q,       N_q = diag(n_1, ..., n_q)

is solved for the active slots only.
"""

import json

import numpy as np
from scipy import linalg

from . import basis as basis_mod
from .density import DensityState
from .errors import CheckpointError, DomainError, IllConditionedSystemError
from .scheduler import SchedulerConfig, fold, slot_counts

CHECKPOINT_FORMAT = "streamreg-checkpoint-v1"

# Scalar counters retained alongside the summary vectors (n, B, density n,
# and the slot-count scalar); part of the reported memory footprint.
SCALAR_UNITS = 4

# Warm-up ridge floor keeping the system SPD before q0 observations arrive.
WARMUP_RHO_FLOOR = 1e-8

# Relative eigenvalue floor below which the penalized system is treated as
# singular rather than solved.
RCOND_FLOOR = 1e-10


class OnePassRegressor:
    """Streaming penalized orthogonal-series regression estimator."""

    def __init__(self, reg_basis, penalty, schedule, batch_size=100,
                 known_uniform_density=False):
        self.reg_basis = reg_basis
        self.penalty = penalty
        self.schedule = schedule
        self.batch_size = int(batch_size)
        self.n = 0
        self.G = np.zeros(0)
        self.start = np.zeros(0, dtype=np.int64)
        # The density sketch runs in the unextended family: running means of
        # basis evaluations estimate a density only when the family is
        # orthonormal on the data domain itself.
        density_basis = basis_mod.BasisSpec(
            reg_basis.lo, reg_basis.hi, extension_margin=0.0,
            family=reg_basis.family)
        self.density = None if known_uniform_density else DensityState(
            density_basis, schedule)
        self._coef_cache = {}

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def ingest(self, ts, ys):
        """Fold one batch of (t, y) pairs into the summary statistics.

        Validation happens before any mutation: a batch with out-of-domain
        predictors, non-finite responses, or responses so large that G
        overflows is rejected atomically.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if ts.size == 0:
            raise ValueError("batch must be non-empty")
        if ts.shape != ys.shape:
            raise ValueError("t and y batches must have equal length")
        if not self.reg_basis.contains(ts):
            raise DomainError("batch contains t values outside the domain")
        if not np.isfinite(ys).all():
            raise ValueError("batch contains non-finite y values")

        n_new = self.n + ts.size
        start = self.schedule.extend(self.start, n_new)
        vals = basis_mod.eval_matrix(self.reg_basis, start.size, ts,
                                     check_domain=False)
        G = np.concatenate([self.G,
                            np.zeros(start.size - self.G.size)])
        with np.errstate(over="ignore", invalid="ignore"):
            G += fold(vals, ys, start, self.n)
        if not np.isfinite(G).all():
            raise ValueError("batch overflows the summary statistics")
        if self.density is not None:
            # at margin 0 the sketch basis is the regression basis
            self.density.update(
                ts, vals if self.density.basis == self.reg_basis else None)
        self.G, self.start, self.n = G, start, n_new
        self._coef_cache.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def active_count(self):
        if self.n < 1:
            return 0
        return min(self.schedule.active_count(self.n), self.G.size)

    def slot_counts(self):
        """Per-slot sample counts n_j = max(n - tau_j + 1, 0)."""
        return slot_counts(self.start, self.n)

    def gram(self, q):
        """Gram matrix of the first q basis functions at the current state."""
        if self.density is None:
            return basis_mod.gram_uniform(self.reg_basis, q)
        return self.density.gram(self.reg_basis, q)

    def solve_coefficients(self, rho, gram=None):
        """Solve the penalized system for the currently active slots.

        ``gram`` is a test hook substituting an externally supplied Gram
        matrix for the density-reconstructed one.
        """
        if rho < 0:
            raise ValueError("rho must be >= 0")
        q = self.active_count
        if q < 1:
            raise IllConditionedSystemError("no active basis function yet")
        counts = self.slot_counts()[:q]
        if np.any(counts < 1):
            raise IllConditionedSystemError("an active slot has no data yet")
        if self.n < self.schedule.q0:
            rho = max(rho, WARMUP_RHO_FLOOR)
        H = self.gram(q) if gram is None else np.asarray(gram, dtype=float)
        if H.shape != (q, q):
            raise ValueError(f"gram matrix must be {q}x{q}")
        W = basis_mod.penalty_matrix(self.reg_basis, self.penalty, q)
        A = H + rho * W
        rhs = self.G[:q] / counts
        # A Cholesky factorization can succeed on a system that is singular
        # to working precision and silently return garbage, so gate on the
        # spectrum explicitly.
        eigs = linalg.eigvalsh(A)
        min_eig = float(eigs[0])
        if min_eig <= RCOND_FLOOR * float(eigs[-1]):
            raise IllConditionedSystemError(
                f"penalized Gram system is numerically singular "
                f"(min eigenvalue {min_eig:.3e})",
                min_eigenvalue=min_eig,
            )
        c, low = linalg.cho_factor(A, lower=True)
        return linalg.cho_solve((c, low), rhs)

    def coefficients(self, rho):
        """Cached coefficient solve; the cache clears on every ingest."""
        key = float(rho)
        if key not in self._coef_cache:
            self._coef_cache[key] = self.solve_coefficients(rho)
        return self._coef_cache[key]

    def estimate(self, t, rho):
        """Evaluate the current regression estimate at t (scalar or array)."""
        return basis_mod.series(self.reg_basis, self.coefficients(rho), t)

    def density_at(self, t):
        """Predictor density at t (scalar or array): 1/(hi - lo) when it is
        known to be uniform, the normalized sketch otherwise."""
        if self.density is not None:
            return self.density.evaluate_normalized(t)
        spec = self.reg_basis
        t = np.asarray(t, dtype=float)
        if not spec.contains(t):
            raise DomainError(
                f"evaluation points outside domain [{spec.lo}, {spec.hi}]")
        value = 1.0 / (spec.hi - spec.lo)
        return value if t.ndim == 0 else np.full(t.shape, value)

    def memory_footprint(self):
        """Exact count of reals held in the summary statistics."""
        units = self.G.size + self.start.size + SCALAR_UNITS
        if self.density is not None:
            units += self.density.theta.size + self.density.start.size
        return int(units)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Serializable record sufficient to resume ingestion bit-exactly."""
        return {
            "format": CHECKPOINT_FORMAT,
            "n": self.n,
            "batch_size": self.batch_size,
            "config": {
                "family": self.reg_basis.family,
                "lo": self.reg_basis.lo,
                "hi": self.reg_basis.hi,
                "extension_margin": self.reg_basis.extension_margin,
                "penalty": self.penalty.kind,
                "h": self.schedule.h,
                "C_q": self.schedule.C_q,
                "c_circ": self.schedule.c_circ,
                "q0": self.schedule.q0,
                "mem_cap": self.schedule.mem_cap,
                "fixed_q": self.schedule.fixed_q,
                "known_uniform_density": self.density is None,
            },
            "G": self.G.tolist(),
            "start": self.start.tolist(),
            "theta": [] if self.density is None else self.density.theta.tolist(),
            "theta_start": [] if self.density is None
            else self.density.start.tolist(),
        }

    def checkpoint_json(self):
        return json.dumps(self.checkpoint())

    @classmethod
    def from_checkpoint(cls, record):
        if isinstance(record, (str, bytes)):
            try:
                record = json.loads(record)
            except ValueError as exc:  # bad JSON or bytes that are not text
                raise CheckpointError(f"unparseable checkpoint: {exc}") from exc
        try:
            if record["format"] != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    f"unknown checkpoint format {record.get('format')!r}")
            cfg = record["config"]
            spec = basis_mod.BasisSpec(
                lo=cfg["lo"], hi=cfg["hi"],
                extension_margin=cfg["extension_margin"],
                family=cfg["family"],
            )
            penalty = basis_mod.PenaltySpec(kind=cfg["penalty"])
            schedule = SchedulerConfig(
                h=cfg["h"], C_q=cfg["C_q"], c_circ=cfg["c_circ"],
                q0=cfg["q0"], mem_cap=cfg["mem_cap"], fixed_q=cfg["fixed_q"],
            )
            reg = cls(spec, penalty, schedule,
                      batch_size=record["batch_size"],
                      known_uniform_density=cfg["known_uniform_density"])
            n = record["n"]
            G = np.asarray(record["G"], dtype=float)
            start = np.asarray(record["start"], dtype=np.int64)
            theta = np.asarray(record["theta"], dtype=float)
            theta_start = np.asarray(record["theta_start"], dtype=np.int64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"corrupt checkpoint record: {exc}") from exc
        # bool is an int subclass; n must fit the int64 slot arithmetic
        if type(n) is not int or not 0 <= n < 2 ** 63:
            raise CheckpointError(
                f"checkpoint n must be an integer in [0, 2**63), got {n!r}")
        # compare sizes first, so a huge n never builds its tau list
        no_slots = np.zeros(0, dtype=np.int64)
        try:
            consistent = start.size == (schedule.slot_count(n) if n else 0) \
                and np.array_equal(
                    start, schedule.extend(no_slots, n) if n else no_slots)
        except OverflowError as exc:
            raise CheckpointError(f"checkpoint schedule overflows: {exc}") \
                from exc
        if not consistent:
            raise CheckpointError("checkpoint start does not match the schedule")
        sketch = no_slots if reg.density is None else start
        if (G.shape, theta.shape) != (start.shape, sketch.shape) \
                or not np.array_equal(theta_start, sketch):
            raise CheckpointError("checkpoint G, theta or theta_start do not "
                                  "match the slots")
        if not (np.isfinite(G).all() and np.isfinite(theta).all()):
            raise CheckpointError("checkpoint G or theta holds non-finite values")
        reg.n, reg.G, reg.start = n, G, start
        if reg.density is not None:
            reg.density.n = reg.n
            reg.density.theta, reg.density.start = theta, theta_start
        return reg


def batch_fit(ts, ys, spec, q, rho, penalty):
    """Non-streaming baseline: (n^-1 Phi'Phi + rho W)^-1 (n^-1 Phi'Y)."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = ts.size
    if n < 1:
        raise ValueError("empty sample")
    Phi = basis_mod.eval_matrix(spec, q, ts)
    H = Phi.T @ Phi / n
    W = basis_mod.penalty_matrix(spec, penalty, q)
    A = H + rho * W
    rhs = Phi.T @ ys / n
    try:
        c, low = linalg.cho_factor(A, lower=True)
    except linalg.LinAlgError as exc:
        min_eig = float(np.min(linalg.eigvalsh(A)))
        raise IllConditionedSystemError(
            f"batch system is not SPD (min eigenvalue {min_eig:.3e})",
            min_eigenvalue=min_eig,
        ) from exc
    return linalg.cho_solve((c, low), rhs)
