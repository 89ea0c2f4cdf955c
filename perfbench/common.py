"""Helpers shared by the benchmark's entry point, launcher and probes.

Importing this module pins BLAS to one thread, turns off numpy's huge-page
requests and fixes glibc's mmap threshold for the processes the benchmark
starts, so it must be imported before numpy.  It puts the checkout's
``src`` directory first on ``sys.path``: the benchmark always measures the
source tree it ships with, never an installed copy of streamreg.
"""

import hashlib
import os
import platform
import statistics
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# numpy asks the kernel for transparent huge pages for large arrays, and
# whether it gets them depends on the memory of the whole machine; the
# density query ran up to 1.5x faster when it did.  Ask for none.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
# glibc raises its mmap threshold when a large mmapped block is freed, so
# whether numpy's large temporaries are mmapped afresh (page faults on every
# density query) or reused from the heap varied from run to run (135 or
# 144 MB, and 1.3x in time).  Fixing the threshold at glibc's default keeps
# it from moving; glibc reads it at process start (see run.py).
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
MALLOC_ENV_AT_START = all(os.environ.get(k) == v
                          for k, v in MALLOC_ENV.items())
os.environ.update(MALLOC_ENV)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
COLD_STARTS = 5  # cold starts per run; setup_s is their median


def have_source():
    return os.path.isfile(os.path.join(SRC, "streamreg", "__init__.py"))


if SRC not in sys.path:
    sys.path.insert(0, SRC)


def child_env():
    """Environment for processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = SRC
    return env


def ms(ns):
    return ns / 1e6


def quantile(values, q):
    """The q-quantile (0 < q < 1) by linear interpolation between samples."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return float(values[lo] + (values[hi] - values[lo]) * (pos - lo))


def median(values):
    return float(statistics.median(values))


def rel_diff(a, b):
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def peak_rss_mb(pid):
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_digest():
    """SHA-256 over the checkout's src/ tree (the checkout may lack .git)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def environment(seed):
    """Where and on what a result was measured."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        **{k.lower().strip("_"): os.environ.get(k) for k in MALLOC_ENV},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }
