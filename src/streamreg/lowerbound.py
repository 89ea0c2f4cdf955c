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

from .basis import BasisSpec, PenaltySpec
from .engine import SCALAR_UNITS, OnePassRegressor
from .scheduler import SchedulerConfig

DEFAULT_NOISE_SD = 0.02


def bump_kernel(t, chi=1.0, M=1.0):
    """Smooth bump supported on (-1/2, 1/2) with peak K(0) = M/chi."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 0.5
    u = t[inside]
    out[inside] = (M / chi) * np.exp(1.0 - 1.0 / (1.0 - 4.0 * u * u))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class HypercubeInstance:
    """One index-problem instance: the secret bits and bump geometry."""

    k: int
    omega: tuple
    beta: float = 1.0
    chi: float = 1.0
    M: float = 1.0
    c_K: float = 0.1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.omega) != self.k or any(b not in (0, 1) for b in self.omega):
            raise ValueError("omega must be a k-length bit vector")
        if min(self.beta, self.chi, self.M, self.c_K) <= 0:
            raise ValueError("beta, chi, M, c_K must be positive")

    @property
    def centers(self):
        """Interval centers t_j = (j - 1/2)/k partitioning [0, 1]."""
        return (np.arange(1, self.k + 1) - 0.5) / self.k

    @property
    def peak(self):
        """Single-bump peak amplitude a_k = c_K * chi * k^(-beta) * K(0)."""
        return self.c_K * self.chi * self.k ** (-self.beta) * (self.M / self.chi)


def build_m_omega(inst):
    """The encoded regression function t -> sum_j omega_j * scaled bump."""
    amp = inst.c_K * inst.chi * inst.k ** (-inst.beta)
    omega = np.asarray(inst.omega, dtype=float)
    centers = inst.centers

    def m_omega(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        total = np.zeros_like(t)
        for w, tj in zip(omega, centers):
            if w:
                total += amp * bump_kernel(inst.k * (t - tj), inst.chi, inst.M)
        return total

    return m_omega


def holder_constant_estimate(inst):
    """Finite-difference estimate of the order-beta Holder constant of m_omega.

    Used to confirm numerically that the chosen c_K keeps the encoded
    function within the smoothness class of parameter chi.
    """
    m = build_m_omega(inst)
    t = np.linspace(0.0, 1.0, 20001)
    v = m(t)
    dt = t[1] - t[0]
    nu = int(np.ceil(inst.beta)) - 1
    d = np.diff(v, n=nu) / dt ** nu if nu > 0 else v
    return float(np.max(np.abs(np.diff(d))) / dt ** (inst.beta - nu))


def _protocol_engine(mem_cap=None, batch_size=100):
    spec = BasisSpec(0.0, 1.0, extension_margin=0.0)
    sched = SchedulerConfig(h=1.0 / 3.0, mem_cap=mem_cap)
    return OnePassRegressor(spec, PenaltySpec("identity"), sched,
                            batch_size=batch_size,
                            known_uniform_density=True)


def alice_encode(inst, n, rng, mem_cap=None, noise_sd=DEFAULT_NOISE_SD,
                 batch_size=100):
    """Stream n noisy samples of m_omega and return the channel payload.

    The payload is the engine checkpoint: exactly the memory footprint,
    nothing else crosses the channel.  Returns (payload_json, unit_count).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = build_m_omega(inst)
    reg = _protocol_engine(mem_cap=mem_cap, batch_size=batch_size)
    remaining = n
    while remaining > 0:
        size = min(batch_size, remaining)
        ts = rng.uniform(0.0, 1.0, size)
        ys = m(ts)
        if noise_sd > 0:
            ys = ys + rng.normal(0.0, noise_sd, size)
        reg.ingest(ts, ys)
        remaining -= size
    return reg.checkpoint_json(), reg.memory_footprint()


def bob_decode(payload, k, beta=1.0, chi=1.0, M=1.0, c_K=0.1):
    """Decode the bit vector from a received checkpoint.

    Bit j is 1 iff the unpenalized reconstructed estimate exceeds half the
    peak amplitude at the j-th bump center (strict inequality; exact ties
    decode to 0).
    """
    reg = OnePassRegressor.from_checkpoint(payload)
    inst = HypercubeInstance(k=k, omega=(0,) * k, beta=beta, chi=chi,
                             M=M, c_K=c_K)
    values = reg.estimate(inst.centers, 0.0)
    return tuple(int(v > inst.peak / 2.0) for v in values)


@dataclass
class ProtocolReport:
    """Per-trial protocol outcomes plus summary statistics."""

    rows: list = field(default_factory=list)
    error_rate: float = 0.0
    transmitted_units: int = 0

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "k", "n", "transmitted_units",
                             "bit_index", "correct"])
            for r in self.rows:
                writer.writerow(r)


def run_protocol(k, n, trials, seed=0, beta=1.0, chi=1.0, M=1.0, c_K=0.1,
                 mem_cap=None, noise_sd=DEFAULT_NOISE_SD):
    """Sample random (omega, index) instances and measure per-bit error.

    Each trial draws omega uniformly from {0,1}^k and one query index,
    runs Alice's encoder and Bob's decoder, and records whether the decoded
    bit matches.  The transmitted unit count is constant across trials and
    is verified to equal the engine's memory footprint.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    report = ProtocolReport()
    errors = 0
    for trial in range(trials):
        omega = tuple(int(b) for b in rng.integers(0, 2, k))
        j = int(rng.integers(0, k))
        inst = HypercubeInstance(k=k, omega=omega, beta=beta, chi=chi,
                                 M=M, c_K=c_K)
        payload, units = alice_encode(inst, n, rng, mem_cap=mem_cap,
                                      noise_sd=noise_sd)
        record = json.loads(payload)
        payload_units = (len(record["G"]) + len(record["start"])
                         + len(record["theta"]) + len(record["theta_start"])
                         + SCALAR_UNITS)
        if payload_units != units:
            raise RuntimeError("channel payload does not match footprint")
        decoded = bob_decode(payload, k, beta=beta, chi=chi, M=M, c_K=c_K)
        correct = int(decoded[j] == omega[j])
        errors += 1 - correct
        report.rows.append([trial, k, n, units, j, correct])
        report.transmitted_units = units
    report.error_rate = errors / trials
    return report
