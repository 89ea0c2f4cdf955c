"""One-way index-problem protocol driven by the streaming estimator.

Alice encodes a k-bit secret as a sum of disjoint smooth bumps, streams
noisy samples of it through the one-pass engine, and ships exactly the
engine's memory footprint to Bob.  Bob resumes the estimator from that
record and reads each bit off the reconstructed function at the bump
centers.  Because the bump supports are disjoint, per-coordinate
thresholding at half the peak amplitude coincides with the sup-norm nearest
codeword over all 2^k candidates while costing O(k).
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec, PenaltySpec, is_count, is_real, require
from .engine import SCALAR_UNITS, OnePassRegressor
from .scheduler import SchedulerConfig

DEFAULT_NOISE_SD = 0.02

# Points per batch Alice draws: each batch's points, then its noise.
BATCH_SIZE = 100

# Batches Alice draws before evaluating m_omega on all of their points and
# folding them into the engine in one call: the fixed cost of an evaluation
# and of an ``ingest`` is shared by this many batches, and her buffers stay
# this size whatever n is.
BLOCK_BATCHES = 64


def bump_kernel_into(t, out):
    """The smooth bump K(t) = exp(1 - 1 / (1 - 4 t t)), supported on
    (-1/2, 1/2) with peak K(0) = 1, of the float array t written into
    ``out``, an array of t's shape that is not t, and returned.  Each step
    of the expression is taken in place, in its order, at the points inside
    the support, so every value keeps the expression's bits."""
    inside = np.less(np.abs(t, out=out), 0.5)
    np.multiply(4.0, t, out=out, where=inside)
    np.multiply(out, t, out=out, where=inside)
    np.subtract(1.0, out, out=out, where=inside)
    np.divide(1.0, out, out=out, where=inside)
    np.subtract(1.0, out, out=out, where=inside)
    np.exp(out, out=out, where=inside)
    np.copyto(out, 0.0, where=~inside)
    return out


@dataclass(frozen=True)
class HypercubeInstance:
    """One index-problem instance: the secret bits and bump geometry.  The
    kernel peak M is 1 and the Holder constant chi cancels from the peak."""

    k: int
    omega: tuple
    beta: float = 1.0
    c_K: float = 0.1

    def __post_init__(self):
        require(is_count, "an integer", self, "k")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.omega) != self.k or any(b not in (0, 1) for b in self.omega):
            raise ValueError("omega must be a k-length bit vector")
        require(lambda v: is_real(v) and v > 0, "a finite number > 0", self,
                "beta", "c_K")

    @property
    def centers(self):
        """Interval centers t_j = (j - 1/2)/k partitioning [0, 1]."""
        return (np.arange(1, self.k + 1) - 0.5) / self.k

    @property
    def peak(self):
        """Single-bump peak amplitude a_k = c_K * k^(-beta) * K(0)."""
        return self.c_K * self.k ** (-self.beta)


def build_m_omega_into(inst):
    """The encoded regression function t -> sum_j omega_j amp K(k (t - c_j))
    as m_omega(t, out, work) for a float array t: the values are written
    into ``out`` (t's shape) and returned, and ``work`` (shape (2,) + t's
    shape) holds the cell index and the kernel's argument, so a call
    allocates nothing of t's size.  Bump j is supported inside
    [(j - 1)/k, j/k], so only the bump whose interval holds t is evaluated,
    each step in place and in its order; near an interval edge every bump
    underflows to 0, so the interval chosen for a t on the edge does not
    matter."""
    k = inst.k
    amp = inst.peak
    omega = np.asarray(inst.omega, dtype=float)
    centers = inst.centers

    def m_omega(t, out, work):
        x, j = work[0], work[1].view(np.intp)
        # fmax/fmin send NaN to bump 0, where it evaluates to 0 as before
        np.multiply(k, t, out=x)
        np.floor(x, out=x)
        np.fmax(x, 0.0, out=x)
        np.fmin(x, k - 1.0, out=x)
        np.copyto(j, x, casting="unsafe")
        # j is in range, and take's "clip" mode writes out unbuffered
        np.take(centers, j, out=x, mode="clip")
        np.subtract(t, x, out=x)
        np.multiply(k, x, out=x)
        bump_kernel_into(x, out)
        np.multiply(amp, out, out=out)
        return np.multiply(out, np.take(omega, j, out=x, mode="clip"),
                           out=out)

    return m_omega


def _protocol_engine(mem_cap):
    spec = BasisSpec(0.0, 1.0, extension_margin=0.0)
    sched = SchedulerConfig(h=1.0 / 3.0, mem_cap=mem_cap)
    return OnePassRegressor(spec, PenaltySpec("identity"), sched,
                            batch_size=BATCH_SIZE,
                            known_uniform_density=True)


def alice_encode(inst, n, rng, mem_cap, noise_sd):
    """Stream n noisy samples of m_omega and return the channel payload.

    The payload is the engine checkpoint: exactly the memory footprint,
    nothing else crosses the channel.  Returns (payload_json, unit_count).
    """
    if not (is_count(n) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (is_real(noise_sd) and noise_sd >= 0):
        raise ValueError(
            f"noise_sd must be a finite number >= 0, got {noise_sd!r}")
    m = build_m_omega_into(inst)
    reg = _protocol_engine(mem_cap)
    block = BLOCK_BATCHES * BATCH_SIZE
    # the points, their noise, the responses and m_omega's work space,
    # each under glibc's mmap threshold, so reused from its heap
    size = min(n, block)
    ts, noise, ys = np.empty(size), np.zeros(size), np.empty(size)
    work = np.empty((2, size))
    for first in range(0, n, block):
        t, e = ts[:n - first], noise[:n - first]
        # one batch's draws after another's, as when each batch is streamed
        # as it is drawn: its points, then its noise.  uniform(0, 1) is
        # 0 + 1 u and normal(0, s) is 0 + s z, so drawing u and z in place
        # and scaling z once per block gives the same draws and bits
        for lo in range(0, t.size, BATCH_SIZE):
            hi = min(lo + BATCH_SIZE, t.size)
            rng.random(out=t[lo:hi])
            if noise_sd > 0:
                rng.standard_normal(out=e[lo:hi])
        # m_omega and the noise act point by point, so one call per block
        # gives each batch the values a call of its own would; the engine's
        # ledger is a function of n alone, so one ingest per block moves
        # only the rounding of G.  s z may be -0.0 where 0 + s z is +0.0;
        # adding it to m_omega >= +0 gives the same sum
        y = m(t, ys[:t.size], work[:, :t.size])
        if noise_sd > 0:
            np.multiply(noise_sd, e, out=e)
            y += e
        reg.ingest(t, y)
    return reg.checkpoint_json(), reg.memory_footprint()


def bob_decode(payload, k, beta, c_K):
    """Decode the bit vector from a received checkpoint.

    Bit j is 1 iff the unpenalized reconstructed estimate exceeds half the
    peak amplitude at the j-th bump center (strict inequality; exact ties
    decode to 0).
    """
    reg = OnePassRegressor.from_checkpoint(payload)
    inst = HypercubeInstance(k=k, omega=(0,) * k, beta=beta, c_K=c_K)
    values = reg.estimate(inst.centers, 0.0)
    return tuple(int(v > inst.peak / 2.0) for v in values)


@dataclass
class ProtocolReport:
    """Per-trial protocol outcomes plus summary statistics."""

    rows: list = field(default_factory=list)

    @property
    def error_rate(self):
        """Share of trials whose decoded bit was wrong."""
        return sum(1 - r[5] for r in self.rows) / len(self.rows)

    @property
    def transmitted_units(self):
        """Units one trial shipped (the same in every trial)."""
        return self.rows[-1][3]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "k", "n", "transmitted_units",
                             "bit_index", "correct"])
            for r in self.rows:
                writer.writerow(r)


def run_protocol(k, n, trials, seed=0, beta=HypercubeInstance.beta,
                 c_K=HypercubeInstance.c_K, mem_cap=None,
                 noise_sd=DEFAULT_NOISE_SD):
    """Sample random (omega, index) instances and measure per-bit error.

    Each trial draws omega uniformly from {0,1}^k and one query index,
    runs Alice's encoder and Bob's decoder, and records whether the decoded
    bit matches.  The transmitted unit count is constant across trials and
    is verified to equal the engine's memory footprint.
    """
    for name, value in (("k", k), ("trials", trials)):
        if not is_count(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    rng = np.random.default_rng(seed)
    report = ProtocolReport()
    for trial in range(trials):
        omega = tuple(int(b) for b in rng.integers(0, 2, k))
        j = int(rng.integers(0, k))
        inst = HypercubeInstance(k=k, omega=omega, beta=beta, c_K=c_K)
        payload, units = alice_encode(inst, n, rng, mem_cap, noise_sd)
        record = json.loads(payload)
        payload_units = (len(record["G"]) + len(record["start"])
                         + len(record["theta"]) + len(record["theta_start"])
                         + SCALAR_UNITS)
        if payload_units != units:
            raise RuntimeError("channel payload does not match footprint")
        decoded = bob_decode(payload, k, beta, c_K)
        report.rows.append([trial, k, n, units, j,
                            int(decoded[j] == omega[j])])
    return report
