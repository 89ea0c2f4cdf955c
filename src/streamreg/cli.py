"""Command-line entry points for experiments, tuning, ingestion and serving."""

import argparse
import csv
import sys

import numpy as np

from .basis import BasisSpec, PenaltySpec
from .engine import OnePassRegressor
from .errors import StreamRegError
from .harness import (Scenario, load_scenario, phase_transition_experiment,
                      rate_experiment, run_experiment)
from .lowerbound import run_protocol
from .scheduler import SchedulerConfig
from .service import ServiceConfig, StreamService
from .tuning import TuningGrid, cv_select, rho_at, write_tuning_report

USAGE_ERROR = 2


def _scenario_from_args(args):
    if getattr(args, "config", None):
        return load_scenario(args.config)
    return Scenario(target=args.target, n=args.n, B=args.batch_size,
                    snr=args.snr, seed=args.seed, replicates=args.replicates)


def _add_scenario_args(p):
    p.add_argument("--config", help="scenario key=value file")
    p.add_argument("--target", default="m1", choices=["m1", "m2", "m3"])
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--snr", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--checkpoints", type=int, nargs="+",
                   default=[1000, 10_000, 100_000])
    p.add_argument("--out", default="report.csv")


def _cmd_simulate(args):
    sc = _scenario_from_args(args)
    report = run_experiment(sc, args.checkpoints, method=args.method)
    report.write_csv(args.out)
    report.write_gnuplot(args.out + ".gp", args.out)
    print(f"wrote {args.out} ({len(report.rows)} rows, "
          f"{report.failures} failed replicates)")
    return 0


def _cmd_rate(args):
    sc = _scenario_from_args(args)
    slope, hypothesized, report, skipped = rate_experiment(
        sc, args.beta, args.checkpoints)
    report.write_csv(args.out)
    if skipped:
        print("slope test skipped: RMISE numerically zero")
    else:
        print(f"log-log RMISE slope {slope:.4f} "
              f"(hypothesized {hypothesized:.4f})")
    return 0


def _cmd_phase(args):
    sc = _scenario_from_args(args)
    caps = [None if c <= 0 else c for c in args.mem_caps]
    report = phase_transition_experiment(sc, caps, args.checkpoints)
    report.write_csv(args.out)
    print(f"wrote {args.out} ({len(report.rows)} rows)")
    return 0


def _cmd_protocol(args):
    report = run_protocol(args.k, args.n, args.trials, seed=args.seed,
                          beta=args.beta, c_K=args.c_K,
                          mem_cap=args.mem_cap, noise_sd=args.noise_sd)
    report.write_csv(args.out)
    print(f"per-bit error rate {report.error_rate:.4f}, "
          f"transmitted {report.transmitted_units} units per trial")
    return 0


def _cmd_tune(args):
    sc = _scenario_from_args(args)
    rng = np.random.default_rng(sc.seed)
    grid = TuningGrid(n0=min(args.n0, sc.n))
    from .harness import EXTENSION_MARGINS, TARGETS, noise_sigma
    ts = rng.uniform(0.0, 1.0, grid.n0)
    ys = TARGETS[sc.target](ts) + rng.normal(0.0, noise_sigma(sc), grid.n0)
    spec = BasisSpec(0.0, 1.0, EXTENSION_MARGINS[sc.target])
    C_rho, h, rows = cv_select(ts, ys, grid, PenaltySpec("roughness"), spec)
    write_tuning_report(args.out, rows, (C_rho, h))
    print(f"selected C_rho={C_rho:g}, h={h:g} "
          f"(rho at n0: {rho_at(C_rho, h, grid.n0):.3e})")
    return 0


def _cmd_ingest_csv(args):
    spec = BasisSpec(args.lo, args.hi, extension_margin=args.margin)
    sched = SchedulerConfig(h=args.h, mem_cap=args.mem_cap)
    if args.resume:
        with open(args.resume) as fh:
            reg = OnePassRegressor.from_checkpoint(fh.read())
    else:
        reg = OnePassRegressor(spec, PenaltySpec(args.penalty), sched,
                               batch_size=args.batch_size)
    ts, ys = [], []
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["t", "y"]:
            print("expected CSV header 't,y'", file=sys.stderr)
            return 1
        for row in reader:
            ts.append(float(row["t"]))
            ys.append(float(row["y"]))
            if len(ts) == args.batch_size:
                reg.ingest(ts, ys)
                ts, ys = [], []
    if ts:
        reg.ingest(ts, ys)
    with open(args.checkpoint, "w") as fh:
        fh.write(reg.checkpoint_json())
    print(f"ingested {reg.n} observations; checkpoint at {args.checkpoint}")
    return 0


def _cmd_query(args):
    with open(args.checkpoint) as fh:
        reg = OnePassRegressor.from_checkpoint(fh.read())
    spec = reg.reg_basis
    grid = np.linspace(spec.lo, spec.hi, args.grid)
    rho = args.rho if args.rho is not None else rho_at(1.0, reg.schedule.h,
                                                       max(reg.n, 1))
    if args.kind == "estimate":
        values = reg.estimate(grid, rho)
    else:
        values = reg.density_at(grid)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", args.kind])
        for t, v in zip(grid, values):
            writer.writerow([repr(float(t)), repr(float(v))])
    print(f"wrote {args.out} ({args.grid} rows)")
    return 0


def _cmd_serve(args):
    config = ServiceConfig(lo=args.lo, hi=args.hi,
                           extension_margin=args.margin,
                           penalty=args.penalty, h=args.h,
                           mem_cap=args.mem_cap,
                           batch_size=args.batch_size)
    server = StreamService(config, host=args.host, port=args.port)
    host, port = server.address
    print(f"serving on {host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="streamreg",
        description="One-pass nonparametric regression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthetic-stream RMISE experiment")
    _add_scenario_args(p)
    p.add_argument("--method", default="streaming",
                   choices=["streaming", "batch_oracle"])
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rate", help="log-log convergence-rate slope")
    _add_scenario_args(p)
    p.add_argument("--beta", type=float, default=1.0)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("phase", help="memory-cap phase-transition curves")
    _add_scenario_args(p)
    p.add_argument("--mem-caps", type=int, nargs="+", default=[30, 0],
                   help="memory caps; <= 0 means unconstrained")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("protocol", help="index-problem protocol simulation")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--c-K", dest="c_K", type=float, default=0.1)
    p.add_argument("--mem-cap", type=int, default=None)
    p.add_argument("--noise-sd", type=float, default=0.02)
    p.add_argument("--out", default="protocol.csv")
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("tune", help="cross-validated (C_rho, h) selection")
    _add_scenario_args(p)
    p.add_argument("--n0", type=int, default=1000)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("ingest-csv", help="stream a t,y CSV into a checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--resume", help="resume from an existing checkpoint")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--margin", type=float, default=0.1)
    p.add_argument("--penalty", default="roughness",
                   choices=["identity", "roughness"])
    p.add_argument("--h", type=float, default=1.0 / 3.0)
    p.add_argument("--mem-cap", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=100)
    p.set_defaults(func=_cmd_ingest_csv)

    p = sub.add_parser("query", help="evaluate a checkpoint on a grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--grid", type=int, default=101)
    p.add_argument("--kind", default="estimate",
                   choices=["estimate", "density"])
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--out", default="query.csv")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("serve", help="run the ndjson ingestion/query service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7071)
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--penalty", default="roughness",
                   choices=["identity", "roughness"])
    p.add_argument("--h", type=float, default=1.0 / 3.0)
    p.add_argument("--mem-cap", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=100)
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except StreamRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
