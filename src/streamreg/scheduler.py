"""Basis-activation schedule with pre-estimation start times, and the slot
ledger that every per-slot running sum follows.

Basis function j is first used in the estimate at time S(j) = floor((C_Q*j)^(1/h)),
but its summary slot starts accumulating earlier, at tau_j = floor(C_CIRC*S(j)),
so that by activation it has seen at least (1 - C_CIRC)*n observations.  The
first q0 slots are live from the first observation.  C_Q and C_CIRC are
constants; a configuration sets h, q0 and the memory cap.

The ledger is the same for the regression sums G and the density sketch
theta, so it is written once, here:

- ``SchedulerConfig.extend`` opens slots: it appends tau_j for every slot the
  schedule has opened by time n, giving a start vector of ``slot_count(n)``
  entries, or of a limit (the engine's is ``basis.identifiable_count``).
  Start vectors only grow.  Most batches open no slot: when the vector is at
  the cap or the limit, or the next slot's tau lies past n, ``extend``
  returns it unchanged after at most one ``tau`` lookup.
- ``slot_counts`` gives the counts n_j = n - tau_j + 1 at an n >= every tau_j;
  the engine takes them once per batch and hands them to the sketch.
- ``fold`` folds one batch holding observations n_old+1, ..., n_old+m into
  per-slot sums sum_{i >= tau_j} phi_j(t_i) w_i (w = y for G, w = 1 for
  theta) from the batch's Fourier moments (``basis.moments``), never a basis
  matrix: a slot that opens mid-batch, tau_j > n_old + 1, takes its sum from
  its tail moment over its own tau_j onward, every other slot from the
  whole-batch moments.  The engine extends the start vector once per batch
  and folds G and the sketch from it, so both follow one ledger.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import (NEVER, is_count, is_real, moments, require,
                    sums_from_moments)

# Guards floor() against representation error in x**(1/h) for exact powers.
_FLOOR_EPS = 1e-9

C_Q = C_CIRC = 0.5  # the constants of S(j) and tau_j above

# Largest q0.  A stream's state grows with its slot count, so a huge q0
# would make the first ingest allocate without bound.  The schedule opens at
# most max(q0, 7) slots at n = 1, so this bounds those too.
MAX_INITIAL_SLOTS = 1 << 16


def _floor(x):
    return int(math.floor(x + _FLOOR_EPS))


@dataclass(frozen=True)
class SchedulerConfig:
    """Activation schedule parameters and the memory cap."""

    h: float = 1.0 / 3.0
    q0: int = 5
    mem_cap: int | None = None  # None means unconstrained

    def __post_init__(self):
        require(is_real, "a finite number", self, "h")
        require(is_count, "an integer", self, "q0")
        require(lambda v: v is None or is_count(v), "None or an integer",
                self, "mem_cap")
        if not 0 < self.h < 1:
            raise ValueError("h must lie in (0, 1)")
        # the slot count at n is about n^h / C_Q; past 2**53 a float holds no
        # exact slot index, and ``slot_count``'s root guess overflows or lies
        # too far off to step from.  By n = 2**63 that bounds h by 52/63.
        if not float(NEVER) ** self.h / C_Q < 2.0 ** 53:
            raise ValueError(f"h must be at most 52/63 (about 0.8254), past "
                             f"which the slot count overflows; got {self.h!r}")
        if not 1 <= self.q0 <= MAX_INITIAL_SLOTS:
            raise ValueError(f"q0 must lie in [1, {MAX_INITIAL_SLOTS}]")
        if self.mem_cap is not None and self.mem_cap < 1:
            raise ValueError("mem_cap must be positive")

    @property
    def cap_q(self):
        """Largest slot index the memory cap allows (q = min(s/3, ...));
        NEVER with no cap."""
        return NEVER if self.mem_cap is None else max(1, self.mem_cap // 3)

    def S(self, j):
        """Activation time of basis function j: ``NEVER`` when
        (C_Q*j)^(1/h) overflows a float or reaches 2**63, past every int64
        stream position."""
        if j < 1:
            raise ValueError("slot index must be >= 1")
        try:
            s = (C_Q * j) ** (1.0 / self.h)
        except OverflowError:
            return NEVER
        return NEVER if s >= NEVER else _floor(s)

    def tau(self, j):
        """Pre-estimation start time of slot j (1 for the initial q0 slots,
        ``NEVER`` for a slot that never opens)."""
        if j <= self.q0:
            return 1
        s = self.S(j)
        return NEVER if s == NEVER else max(1, _floor(C_CIRC * s))

    def active_count(self, n):
        """Number of basis functions participating in the estimate at time n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return min(max(self.q0, _floor(n ** self.h / C_Q)), self.cap_q)

    def slot_count(self, n):
        """Number of slots (active plus pre-estimating) open at time n: the
        largest j >= q0 with tau(j) <= n, capped."""
        # tau(j) <= n roughly when (C_Q*j)^(1/h) < (n + 1)/C_CIRC, and never
        # past (C_Q*j)^(1/h) = 2**63; step from that root to the exact answer,
        # which tau being monotone makes unique
        s = min((n + 1) / C_CIRC, float(NEVER))
        j = max(self.q0, int(s ** self.h / C_Q))
        while self.tau(j + 1) <= n:
            j += 1
        while j > self.q0 and self.tau(j) > n:
            j -= 1
        return min(j, self.cap_q)

    def extend(self, start, n, limit):
        """Start vector ``start`` extended by tau_j of the slots open at time
        n, to at most ``limit`` slots (``NEVER`` for no limit).

        ``start`` must be the start vector at some earlier time, so it is
        returned as is when it has reached the cap or the limit, or its next
        slot opens after n.
        """
        if start.size in (self.cap_q, limit) or self.tau(start.size + 1) > n:
            return start
        n_slots = min(self.slot_count(n), limit)
        opened = [self.tau(j) for j in range(start.size + 1, n_slots + 1)]
        return np.concatenate([start, np.array(opened, dtype=np.int64)])


def slot_counts(start, n):
    """Per-slot sample counts n_j = n - tau_j + 1 at an n >= every tau_j."""
    return n - start + 1


def fold(spec, ts, weights, start, n_old):
    """Per-slot sums sum_{i >= tau_j} phi_j(t_i) w_i over one batch, the
    points ``ts`` at stream indices n_old + 1, n_old + 2, ...: one vector
    per weight vector w of ``weights``, as ``basis.moments`` takes them.
    A slot that opens after the batch's first point, slot 1 too, reads a
    tail moment from its start.  start is non-decreasing, so those slots
    are a suffix: none in most batches, when the last slot opens by the
    batch's first point, and otherwise found by one search."""
    K = start.size // 2
    first = start.size if start[-1] <= n_old + 1 else \
        start[:-1].searchsorted(n_old + 1, "right")
    tails = [((j + 1) // 2, start[j] - n_old - 1)
             for j in range(first, start.size)]
    P = spec.period
    out = []
    for mu in moments(spec, K, ts, weights, tails):
        # reads mu_0..mu_K only, not the tails after them
        sums = sums_from_moments(spec, start.size, mu)
        for j, tail in enumerate(mu[K + 1:], first):
            sums[j] = tail.real / math.sqrt(P) if j == 0 else \
                math.sqrt(2.0 / P) * (tail.real if j % 2 else tail.imag)
        out.append(sums)
    return out
