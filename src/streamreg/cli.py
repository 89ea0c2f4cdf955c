"""Command-line entry points for experiments, tuning, ingestion and serving."""

import argparse
import contextlib
import csv
import math
import os
import secrets
import signal
import sys

import numpy as np

from .basis import BasisSpec
from .engine import OnePassRegressor
from .errors import InputError, StreamRegError
from .harness import (EXTENSION_MARGINS, PENALTY, TARGETS, Scenario,
                      _replicate_data, load_scenario,
                      phase_transition_experiment, rate_experiment,
                      run_experiment)
from .lowerbound import DEFAULT_NOISE_SD, HypercubeInstance, run_protocol
from .service import ServiceConfig, StreamService
from .tuning import (TuningGrid, cv_select, cv_table, rho_at,
                     write_tuning_report)

USAGE_ERROR = 2


def _from_input(build, *args, **kwargs):
    """``build`` called on user input: its ValueError becomes an InputError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# Scenario flags: flag, Scenario field and argparse keywords.  A flag left
# out is absent from the parsed arguments, and its field keeps the
# ``Scenario`` default; a scenario file sets every field, so no flag may
# come with one.
SCENARIO_FLAGS = (
    ("--target", "target", {"choices": sorted(TARGETS)}),
    ("--n", "n", {"type": int}),
    ("--batch-size", "B", {"type": int}),
    ("--snr", "snr", {"type": float}),
    ("--seed", "seed", {"type": int}),
    ("--replicates", "replicates", {"type": int}),
)


def _scenario_from_args(args):
    given = {field: getattr(args, field) for _, field, _ in SCENARIO_FLAGS
             if hasattr(args, field)}
    if not args.config:
        return _from_input(Scenario, **given)
    if given:
        flags = [flag for flag, field, _ in SCENARIO_FLAGS if field in given]
        raise InputError(f"{', '.join(flags)} cannot be combined with "
                         "--config: the file sets the scenario")
    return _from_input(load_scenario, args.config)


def _add_scenario_args(p):
    p.add_argument("--config",
                   help="scenario key=value file, each key at most once")
    _add_flags(p, SCENARIO_FLAGS)
    p.add_argument("--checkpoints", type=int, nargs="+",
                   default=[1000, 10_000, 100_000])
    p.add_argument("--out", default="report.csv")


def _cmd_simulate(args):
    sc = _scenario_from_args(args)
    report = _from_input(run_experiment, sc, args.checkpoints,
                         method=args.method)
    report.write_csv(args.out)
    report.write_gnuplot(args.out + ".gp", args.out)
    print(f"wrote {args.out} ({len(report.rows)} rows, "
          f"{report.failures} failed replicates)")
    return 0


def _cmd_rate(args):
    sc = _scenario_from_args(args)
    slope, hypothesized, report, skipped = _from_input(
        rate_experiment, sc, args.beta, args.checkpoints)
    empty = [str(r["n"]) for r in report.rows if math.isnan(r["rmise"])]
    if empty:
        raise StreamRegError(f"{report.failures} of {sc.replicates} "
                             f"replicates failed, leaving no RMISE to fit a "
                             f"slope to at n = {', '.join(empty)}")
    report.write_csv(args.out)
    result = ("slope test skipped: RMISE numerically zero" if skipped else
              f"log-log RMISE slope {slope:.4f} "
              f"(hypothesized {hypothesized:.4f})")
    print(f"{result}, {report.failures} failed replicates")
    return 0


def _cmd_phase(args):
    sc = _scenario_from_args(args)
    caps = [None if c <= 0 else c for c in args.mem_caps]
    report = _from_input(phase_transition_experiment, sc, caps,
                         args.checkpoints)
    report.write_csv(args.out)
    print(f"wrote {args.out} ({len(report.rows)} rows)")
    return 0


def _cmd_protocol(args):
    report = _from_input(run_protocol, args.k, args.n, args.trials,
                         seed=args.seed, beta=args.beta, c_K=args.c_K,
                         mem_cap=args.mem_cap, noise_sd=args.noise_sd)
    report.write_csv(args.out)
    print(f"per-bit error rate {report.error_rate:.4f}, "
          f"transmitted {report.transmitted_units} units per trial")
    return 0


def _cmd_tune(args):
    sc = _scenario_from_args(args)
    grid = _from_input(TuningGrid, n0=min(args.n0, sc.n))
    spec = BasisSpec(0.0, 1.0, EXTENSION_MARGINS[sc.target])
    rows = cv_table(*_replicate_data(sc, 0), grid, PENALTY, spec)
    pick = cv_select(rows, spec, sc.n, None)
    write_tuning_report(args.out, rows, pick, spec, sc.n)
    print(f"selected C_rho={pick['C_rho']:g}, h={pick['h']:g} "
          f"(rho at n0: {pick['rho']:.3e})")
    return 0


# Engine flags of ``ingest-csv``: flag, ServiceConfig field and argparse
# keywords.  ``serve`` takes all but the last, ``--batch-size``: the service
# folds the batch each request carries.  A flag left out is absent from the
# parsed arguments, and its field keeps the ``ServiceConfig`` default.
ENGINE_FLAGS = (
    ("--lo", "lo", {"type": float}),
    ("--hi", "hi", {"type": float}),
    ("--margin", "extension_margin", {"type": float}),
    ("--penalty", "penalty", {"choices": ["identity", "roughness"]}),
    ("--h", "h", {"type": float}),
    ("--mem-cap", "mem_cap", {"type": int}),
    ("--batch-size", "batch_size", {"type": int}),
)


def _add_flags(p, flags):
    """Add (flag, field, keywords) ``flags``: a flag left out is absent from
    the parsed arguments."""
    for flag, field, kwargs in flags:
        p.add_argument(flag, dest=field, default=argparse.SUPPRESS, **kwargs)


def _engine_config(args):
    return _from_input(ServiceConfig, **{field: getattr(args, field)
                                         for _, field, _ in ENGINE_FLAGS
                                         if hasattr(args, field)})


def _csv_points(fh, spec):
    """(line, t, y) for each data row of a ``t,y`` CSV, rejecting a row that
    is not two numbers, a t outside [lo, hi] and a non-finite y."""
    reader = csv.reader(fh)
    if next(reader, None) != ["t", "y"]:
        raise InputError("expected CSV header 't,y'")
    for row in reader:
        if not row:
            continue
        try:
            t, y = map(float, row)
        except ValueError:
            raise InputError(f"line {reader.line_num}: expected two "
                             f"numbers, got {','.join(row)!r}") from None
        if not spec.lo <= t <= spec.hi:
            raise InputError(f"line {reader.line_num}: t = {t!r} lies "
                             f"outside the domain [{spec.lo}, {spec.hi}]")
        if not math.isfinite(y):
            raise InputError(
                f"line {reader.line_num}: y = {y!r} is not finite")
        yield reader.line_num, t, y


def _cmd_ingest_csv(args):
    given = [flag for flag, field, _ in ENGINE_FLAGS if hasattr(args, field)]
    if args.resume and given:
        raise InputError(f"{', '.join(given)} cannot be combined with "
                         "--resume: a resumed stream keeps its checkpoint's "
                         "configuration")
    if args.resume:
        with open(args.resume) as fh:
            reg = OnePassRegressor.from_checkpoint(fh.read())
    else:
        reg = _engine_config(args).engine()
    with open(args.input, newline="") as fh:
        batch = []
        for point in _csv_points(fh, reg.reg_basis):
            batch.append(point)
            if len(batch) == reg.batch_size:
                _ingest_rows(reg, batch)
                batch = []
    if batch:
        _ingest_rows(reg, batch)
    _replace_file(args.checkpoint, reg.checkpoint_json())
    print(f"ingested {reg.n} observations; checkpoint at {args.checkpoint}")
    return 0


def _replace_file(path, text):
    """Write ``text`` to a new file beside ``path``, then rename it over
    ``path``: a write that fails leaves the previous file as it was (it may
    be the checkpoint the run resumed from) and removes the new one."""
    folder, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(folder, f".{name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _ingest_rows(reg, batch):
    lines, ts, ys = zip(*batch)
    try:
        reg.ingest(ts, ys)
    except ValueError as exc:  # every row passed, so the sums overflowed
        raise InputError(f"lines {lines[0]}-{lines[-1]}: {exc}") from None


def _cmd_query(args):
    if args.grid < 1:
        raise InputError(f"--grid must be >= 1, got {args.grid}")
    if args.rho is not None and not 0 <= args.rho < math.inf:
        raise InputError(f"--rho must be a finite number >= 0, "
                         f"got {args.rho!r}")
    with open(args.checkpoint) as fh:
        reg = OnePassRegressor.from_checkpoint(fh.read())
    spec = reg.reg_basis
    grid = np.linspace(spec.lo, spec.hi, args.grid)
    rho = args.rho if args.rho is not None else rho_at(
        1.0, reg.schedule.h, max(reg.n, 1), reg.penalty.zeta)
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
    server = StreamService(_engine_config(args), host=args.host,
                           port=args.port)
    # SIGINT stops the server even when it was started with SIGINT ignored,
    # as a non-interactive shell starts a background job; the handler goes in
    # inside the try, so a SIGINT sent on seeing the banner is caught
    previous = signal.getsignal(signal.SIGINT)
    try:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        host, port = server.server_address
        print(f"serving on {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGINT, previous)
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
    p.add_argument("--beta", type=float, default=HypercubeInstance.beta)
    p.add_argument("--c-K", dest="c_K", type=float,
                   default=HypercubeInstance.c_K)
    p.add_argument("--mem-cap", type=int, default=None)
    p.add_argument("--noise-sd", type=float, default=DEFAULT_NOISE_SD)
    p.add_argument("--out", default="protocol.csv")
    p.set_defaults(func=_cmd_protocol)

    p = sub.add_parser("tune", help="cross-validated (C_rho, h) selection")
    _add_scenario_args(p)
    p.add_argument("--n0", type=int, default=TuningGrid.n0)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("ingest-csv", help="stream a t,y CSV into a checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--resume", help="resume from an existing checkpoint")
    _add_flags(p, ENGINE_FLAGS)
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
    _add_flags(p, ENGINE_FLAGS[:-1])
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
    except (StreamRegError, OSError) as exc:  # OSError: a file it cannot open
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
