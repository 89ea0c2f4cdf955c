"""Record the montecarlo workload's reference outputs for a pool of seeds.

Usage: python3 perfbench/make_reference.py

Writes perfbench/reference_montecarlo.json for scenario and protocol seeds
0..POOL_SIZE-1.  The file in the repository was recorded at the commit that
introduced the benchmark; rerunning this script on later code would turn the
montecarlo correctness gate into a tautology.
"""

import json

import common
import montecarlo as mc

POOL_SIZE = 32


def main():
    ref = {"environment": common.environment(None), "phase": {},
           "protocol": {}}
    for sub in range(POOL_SIZE):
        ref["phase"][str(sub)] = mc.phase(sub)
        ref["protocol"][str(sub)] = {str(cap): mc.protocol(sub, cap)
                                     for cap in mc.PROTOCOL_CAPS}
        print(sub, mc.stratum(ref["phase"][str(sub)]), flush=True)
    if mc.STRATUM not in {mc.stratum(rec) for rec in ref["phase"].values()}:
        raise SystemExit(f"pool lacks stratum {mc.STRATUM}")
    with open(mc.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
