"""streamreg benchmark: one workload, one seed, one result line.

Usage:
    python3 perfbench/run.py --workload {ingest,query,density,montecarlo}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Human-readable detail goes to stdout
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics; with ``--trace 1`` the second half of the
window is traced and the metrics are the per-layer ones plus the tracing
overhead.  See perfbench/README.md.
"""

import argparse
import json
import os
import sys

import common
import speed

WORKLOADS = ("ingest", "query", "density", "montecarlo")


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("pts_per_s"):
        return "pts/s"
    if name.endswith("_s"):
        return "s"
    return ""


def _print_table(title, rows):
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.MALLOC_ENV_AT_START:
        # glibc reads its malloc settings at process start
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not common.have_source():
        print(f"error: no streamreg sources under {common.SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(common.OUT_DIR, exist_ok=True)
    trace = bool(args.trace)
    cpu = speed.pin_cpu()

    if args.workload == "montecarlo":
        import montecarlo

        run = montecarlo.run
    else:
        import service_bench

        run = getattr(service_bench, f"run_{args.workload}")
    res = run(args.seed, args.seconds, trace)

    env = {**common.environment(args.seed), "pinned_cpu": cpu}
    print(f"workload {args.workload}  " + json.dumps(env))
    e2e = {"setup_s": (res["setup_s"], "s"),
           "rss_peak_mb": (res["rss_peak_mb"], "MB"), **res["e2e"]}
    detail = {k: (v, _unit(k)) for k, v in res["detail"].items()
              if isinstance(v, (int, float))}
    _print_table(f"{args.workload} detail" + (" (traced half)" if trace
                                              else ""), detail)
    _print_table("end-to-end" + (" (traced half)" if trace else ""), e2e)
    for problem in res["problems"][:20]:
        print(f"MISMATCH {problem}")

    if trace:
        metrics = dict(res["layers"])
        metrics["engine.memory_units"] = (res["units_1e5"], "count")
        traced, unit = res["e2e"]["op_norm_p50_ms"]
        untraced = res["e2e_untraced"]["op_norm_p50_ms"][0]
        metrics["trace.overhead.op_norm_p50_ms"] = (traced - untraced, unit)
        _print_table("end-to-end (untraced half)", res["e2e_untraced"])
        _print_table("per-layer (traced half)", metrics)
    else:
        metrics = e2e

    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
