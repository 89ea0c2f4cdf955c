"""The montecarlo benchmark's seed pool, replayed at the benchmark's
tolerances.

``perfbench/reference_montecarlo.json`` records the output of every phase
and protocol seed in the benchmark's pool.  A benchmark run checks only the
seeds it draws; this test runs all of them through the benchmark's own
``phase``, ``protocol`` and checks: RMISE within ``REL_TOL`` relative, and
q_mean, memory units, failures and protocol rows exact.  It runs in a
child process because importing the benchmark pins BLAS threads and
allocator settings for the process that imports it.  The reference is
only read.
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
