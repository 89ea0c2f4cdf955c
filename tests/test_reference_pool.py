"""What the benchmark reads from the package: the montecarlo seed pool,
replayed at the benchmark's tolerances, and the service workloads' replay.

``perfbench/reference_montecarlo.json`` records the output of every phase
and protocol seed in the benchmark's pool.  A benchmark run checks only the
seeds it draws; the first test runs all of them through the benchmark's
own ``phase``, ``protocol`` and checks: RMISE within ``REL_TOL`` relative,
and q_mean, memory units, failures and protocol rows exact.  The reference
is only read.

The service workloads check every reply against ``service_bench.Replay``,
an engine built from ``ServiceConfig``'s fields, and read ``C_rho`` and the
sketch's active count there; the second test runs that replay, so a change
to what it reads fails here rather than in a benchmark run.

Both run in a child process because importing the benchmark pins BLAS
threads and allocator settings for the process that imports it.
"""

import json
import os

import pytest

from oracles import run_fresh

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

CHECK_POOL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import montecarlo as mc
with open(mc.REFERENCE) as fh:
    ref = json.load(fh)
problems, drift = [], 0.0
for sub, want in ref["phase"].items():
    got = mc.phase(int(sub))
    mc._check_phase(got, want, problems)
    drift = max([drift] + [mc.rel_diff(g[2], w[2]) for g, w in
                           zip(got["rows"], want["rows"])])
outputs = 0
for sub, by_cap in ref["protocol"].items():
    for cap in mc.PROTOCOL_CAPS:
        mc._check_protocol(mc.protocol(int(sub), cap), by_cap[str(cap)],
                           problems)
        outputs += 1
print(json.dumps({"phase": len(ref["phase"]), "protocol": outputs,
                  "problems": problems, "drift": drift,
                  "tol": mc.REL_TOL}))
"""


@pytest.mark.slow
def test_every_pool_seed_matches_the_reference():
    result = json.loads(run_fresh(CHECK_POOL, PERFBENCH))
    assert result["problems"] == []
    assert result["tol"] == 1e-10
    assert result["drift"] <= result["tol"]
    # 32 phase seeds, and 32 protocol seeds at two caps
    assert (result["phase"], result["protocol"]) == (32, 64)


CHECK_REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import service_bench as sb
from streamreg.service import ServiceConfig
from streamreg.tuning import rho_at
replay = sb.Replay()
rng = np.random.default_rng(0)
for _ in range(2):
    t = rng.uniform(0.0, 1.0, 100)
    replay.ingest(t, np.sin(2 * np.pi * t))
snap = replay.snapshot()
print(json.dumps({
    "n": snap.n, "tol": sb.REL_TOL,
    "rho": [replay.rho(), rho_at(ServiceConfig.C_rho, replay.cfg.h, snap.n)],
    "density": [sb.density_value(snap, 0.3),
                float(snap.density.evaluate_normalized(0.3))]}))
"""


def test_the_service_replay_reads_the_package():
    result = json.loads(run_fresh(CHECK_REPLAY, PERFBENCH))
    assert result["n"] == 200
    rho, want = result["rho"]
    assert rho == want > 0
    value, want = result["density"]
    assert abs(value - want) <= result["tol"] * abs(want)
