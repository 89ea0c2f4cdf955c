"""Basis-activation schedule with pre-estimation start times, and the slot
ledger that every per-slot running sum follows.

Basis function j is first used in the estimate at time S(j) = floor((C_q*j)^(1/h)),
but its summary slot starts accumulating earlier, at tau_j = floor(c_circ*S(j)),
so that by activation it has seen at least (1 - c_circ)*n observations.  The
first q0 slots are live from the first observation.

The ledger is the same for the regression sums G and the density sketch
theta, so it is written once, here:

- ``SchedulerConfig.extend`` opens slots: it appends tau_j for every slot the
  schedule has opened by time n, giving a start vector of ``slot_count(n)``
  entries.  Start vectors only grow.
- ``slot_counts`` gives the per-slot sample counts n_j = max(n - tau_j + 1, 0).
- ``fold`` folds one batch holding observations n_old+1, ..., n_old+m into
  per-slot sums sum_{i >= tau_j} phi_j(t_i) w_i (w = y for G, w = 1 for
  theta).  A slot that opens mid-batch, tau_j > n_old + 1, sums only from
  its own tau_j onward.
"""

import math
from dataclasses import dataclass

import numpy as np

# Guards floor() against representation error in x**(1/h) for exact powers.
_FLOOR_EPS = 1e-9

# Activation and start time of a slot that never opens: a slot whose
# activation time (C_q*j)^(1/h) overflows a float or reaches 2**63 lies past
# every int64 stream position.
NEVER = 2 ** 63


def _floor(x):
    return int(math.floor(x + _FLOOR_EPS))


@dataclass(frozen=True)
class SchedulerConfig:
    """Activation schedule parameters and the memory cap."""

    h: float = 1.0 / 3.0
    C_q: float = 0.5
    c_circ: float = 0.5
    q0: int = 5
    mem_cap: int | None = None  # None means unconstrained
    fixed_q: int | None = None  # test hook: pin the slot count permanently

    def __post_init__(self):
        if not 0 < self.h < 1:
            raise ValueError("h must lie in (0, 1)")
        if self.C_q <= 0:
            raise ValueError("C_q must be positive")
        if not 0 < self.c_circ < 1:
            raise ValueError("c_circ must lie in (0, 1)")
        if self.q0 < 1:
            raise ValueError("q0 must be >= 1")
        if self.mem_cap is not None and self.mem_cap < 1:
            raise ValueError("mem_cap must be positive")
        if self.fixed_q is not None and self.fixed_q < 1:
            raise ValueError("fixed_q must be >= 1")

    @property
    def cap_q(self):
        """Largest slot index the memory cap allows (q = min(s/3, ...))."""
        if self.fixed_q is not None:
            return self.fixed_q
        if self.mem_cap is None:
            return None
        return max(1, self.mem_cap // 3)

    def S(self, j):
        """Activation time of basis function j (``NEVER`` past 2**63)."""
        if j < 1:
            raise ValueError("slot index must be >= 1")
        try:
            s = (self.C_q * j) ** (1.0 / self.h)
        except OverflowError:
            return NEVER
        return NEVER if s >= NEVER else _floor(s)

    def tau(self, j):
        """Pre-estimation start time of slot j (1 for the initial q0 slots,
        ``NEVER`` for a slot that never opens)."""
        if j <= self.q0:
            return 1
        s = self.S(j)
        return NEVER if s == NEVER else max(1, _floor(self.c_circ * s))

    def active_count(self, n):
        """Number of basis functions participating in the estimate at time n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.fixed_q is not None:
            return self.fixed_q
        q = max(self.q0, _floor(n ** self.h / self.C_q))
        if self.cap_q is not None:
            q = min(q, self.cap_q)
        return max(1, q)

    def slot_count(self, n):
        """Number of slots (active plus pre-estimating) open at time n: the
        largest j >= q0 with tau(j) <= n, capped."""
        if self.fixed_q is not None:
            return self.fixed_q
        # tau(j) <= n roughly when (C_q*j)^(1/h) < (n + 1)/c_circ, and never
        # past (C_q*j)^(1/h) = 2**63; step from that root to the exact answer,
        # which tau being monotone makes unique
        s = min((n + 1) / self.c_circ, float(NEVER))
        j = max(self.q0, int(s ** self.h / self.C_q))
        while self.tau(j + 1) <= n:
            j += 1
        while j > self.q0 and self.tau(j) > n:
            j -= 1
        if self.cap_q is not None:
            j = min(j, self.cap_q)
        return j

    def extend(self, start, n):
        """Start vector ``start`` extended by tau_j of the slots open at time n."""
        n_slots = self.slot_count(n)
        if n_slots <= start.size:
            return start
        opened = [self.tau(j) for j in range(start.size + 1, n_slots + 1)]
        return np.concatenate([start, np.array(opened, dtype=np.int64)])


def slot_counts(start, n):
    """Per-slot sample counts n_j = max(n - tau_j + 1, 0) at time n."""
    return np.maximum(n - start + 1, 0)


def fold(vals, w, start, n_old):
    """Per-slot sums sum_{i >= tau_j} phi_j(t_i) w_i over one batch.

    Row i of ``vals`` holds phi_j(t_i) at the batch's i-th observation, whose
    stream index is n_old + 1 + i; column j belongs to the slot starting at
    ``start[j]``.
    """
    sums = vals.T @ w
    for j in (start > n_old + 1).nonzero()[0]:
        lo = start[j] - n_old - 1
        sums[j] = np.dot(vals[lo:, j], w[lo:])
    return sums
