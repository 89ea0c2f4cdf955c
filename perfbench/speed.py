"""Host-speed calibration: wall time converted to time at a reference speed.

On the shared virtual machines this benchmark was tuned on, each vCPU runs
at one of two speeds (about 1.55x apart) that change every second or so,
and the share of slow time drifts over minutes, so raw wall times of the
same code moved by up to 50 % between runs (see README, "Noise").  The
benchmark therefore pins itself and every process it starts to one CPU and
times a fixed kernel of its own on that CPU, close in time to the measured
work: between the units of a closed loop and around each cold start
(``sample``), or every TICK_S from a timer signal while a long in-process
unit runs (``ticking``).  A unit's normalized time is its wall time, less
the kernel runs inside it, times REF_KERNEL_MS over the kernel's time then.
The kernel is benchmark code only, so a change to streamreg cannot move
it; the program's own speed-up or slow-down passes through unchanged.
"""

import bisect
import os
import signal
import time
from contextlib import contextmanager

import numpy as np
from scipy import linalg


_X = np.linspace(0.0, 1.0, 400)
_M = np.outer(_X[:100], _X[:64])
_A = np.random.default_rng(0).normal(size=(92, 92))
_S = _A @ _A.T + 92.0 * np.eye(92)


def _kernel():
    """Python arithmetic, small numpy calls and a dense solve the size of
    the q = 92 system (the query path's spectrum gate and Cholesky)."""
    s = 0.0
    for i in range(1500):
        s += i * 0.5
    for _ in range(20):
        s += float(np.cos(_X).sum()) + float((_M @ _X[:64]).sum())
    linalg.eigvalsh(_S)
    linalg.cho_solve(linalg.cho_factor(_S, lower=True), _X[:92])
    return s


# The kernel's time at the reference speed: about its fast-mode time on the
# machine of the README's tables.  Normalized times are in milliseconds at
# that speed.
REF_KERNEL_MS = 0.6
TICK_S = 0.05


def pin_cpu():
    """Pin this process, and the processes it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """A timed series of kernel runs and the normalization built on it."""

    def __init__(self):
        # per sample: start of the untimed run, start and end of the timed one
        self.begins, self.starts, self.ends = [], [], []
        self._smooth = None
        _kernel()  # first-call set-up out of the series

    def sample(self, count=1):
        """Take ``count`` samples: run the kernel twice, time the second run.

        The first run brings the kernel's data back into the caches, so the
        timed run measures the CPU's speed, not what the program's last
        call evicted.
        """
        clock = time.perf_counter_ns
        for _ in range(count):
            begin = clock()
            _kernel()
            t0 = clock()
            _kernel()
            t1 = clock()
            self.begins.append(begin)
            self.starts.append(t0)
            self.ends.append(t1)
        self._smooth = None

    @contextmanager
    def ticking(self):
        """Sample every TICK_S (SIGALRM) while the block runs.

        Only for work in this process: a sample taken while another process
        runs on the same CPU would time that process too.
        """
        previous = signal.signal(signal.SIGALRM, lambda s, f: self.sample())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _factors(self):
        """REF_KERNEL_MS / kernel time, each a median of 3 neighbours."""
        if self._smooth is None:
            dur = np.subtract(self.ends, self.starts) / 1e6
            padded = np.concatenate([dur[:1], dur, dur[-1:]])
            med = np.median(np.stack([padded[:-2], padded[1:-1],
                                      padded[2:]]), axis=0)
            self._smooth = REF_KERNEL_MS / med
        return self._smooth

    def normalize(self, a_ns, b_ns):
        """Normalized nanoseconds of the interval [a_ns, b_ns].

        Its wall time, less the samples inside it, times the mean factor of
        the samples inside it and of the nearest sample on each side.
        """
        factors = self._factors()
        lo = max(bisect.bisect_right(self.begins, a_ns) - 1, 0)
        hi = bisect.bisect_left(self.begins, b_ns)
        inside = range(lo + (self.begins[lo] < a_ns), hi)
        busy = sum(self.ends[i] - self.begins[i] for i in inside)
        hi = min(hi, len(factors) - 1)
        return (b_ns - a_ns - busy) * float(np.mean(factors[lo:hi + 1]))
