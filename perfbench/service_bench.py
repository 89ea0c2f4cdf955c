"""The ``ingest``, ``query`` and ``density`` workloads: one client, one server.

All three are closed loops over one TCP connection to ``streamreg serve``:
the client sends its next request only after the previous reply arrived.
Each run sends a fixed list of requests, generated from the seed and
ndjson-encoded before timing starts, so every commit does the same work and
ends in the same state.  The list's length is ``--seconds`` times a nominal
rate measured on the reference machine (see README).  After the window
every reply is checked against an in-process replay of the same batches
through a ``OnePassRegressor`` built from the service's defaults.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from contextlib import nullcontext

import common
import tracer as tracing
from common import median, ms, quantile, rel_diff
from speed import Speed

import numpy as np
from streamreg.basis import BasisSpec, PenaltySpec
from streamreg.engine import OnePassRegressor
from streamreg.scheduler import SchedulerConfig
from streamreg.service import ServiceConfig
from streamreg.tuning import rho_at

SERVE = os.path.join(common.BENCH_DIR, "serve.py")
BATCH = 100               # points per timed ingest request
GROW_N = 100_000          # each stream is grown to this n during set-up
GROW_BATCH = 1000         # points per set-up ingest request
INGEST_STREAMS = 4
QUERY_STREAMS = 4         # cycles rotate over these, so q stays near 92
WARM_PER_CYCLE = 3
# Units of work per second of --seconds (reference machine, see README):
# rounds of one ingest per stream, and query or density cycles.
INGEST_ROUNDS_PER_S = 160
QUERY_CYCLES_PER_S = 60
DENSITY_CYCLES_PER_S = 7
CLIP_GRID = 4097          # grid for proving the replayed density unclipped
REL_TOL = 1e-10
TIMEOUT_S = 60


def _units(seconds, per_s):
    """Units of work in a window of ``seconds``; at least two (two halves)."""
    return max(2, round(seconds * per_s))


def _data(rng, n):
    t = rng.uniform(0.0, 1.0, n)
    y = np.exp(np.sin(2.0 * np.pi * t)) + rng.normal(0.0, 0.5, n)
    return t, y


def _line(**request):
    return (json.dumps(request) + "\n").encode()


def _ingest_lines(streams, t, y):
    """One ingest line per stream for the same batch, encoded once."""
    points = json.dumps(np.column_stack([t, y]).tolist())
    return [f'{{"op": "ingest", "stream_id": {json.dumps(s)}, '
            f'"points": {points}}}\n'.encode() for s in streams]


def _query_line(stream, kind, t=None):
    if t is None:
        return _line(op="query", stream_id=stream, kind=kind)
    return _line(op="query", stream_id=stream, kind=kind, t=float(t))


class Replay:
    """In-process engine fed the same batches as one server stream."""

    def __init__(self, reg=None):
        cfg = self.cfg = ServiceConfig()
        self.reg = reg or OnePassRegressor(
            BasisSpec(cfg.lo, cfg.hi, extension_margin=cfg.extension_margin),
            PenaltySpec(cfg.penalty),
            SchedulerConfig(h=cfg.h, mem_cap=cfg.mem_cap),
            batch_size=cfg.batch_size,
            known_uniform_density=cfg.known_uniform_density)

    def ingest(self, t, y, tau=None):
        """Fold one batch, counting schedule lookups in ``tau`` if given."""
        with tau or nullcontext():
            self.reg.ingest(t, y)
        return self.reg.n

    def snapshot(self):
        """A fresh engine with the replay's state and empty caches."""
        return OnePassRegressor.from_checkpoint(self.reg.checkpoint())

    def rho(self):
        return rho_at(self.cfg.C_rho, self.cfg.h, max(self.reg.n, 1))


def density_value(snap, t):
    """The clipped, renormalized density max(0, f)/int max(0, f) at t.

    With a zero extension margin the density family is orthonormal on the
    whole period, so every basis function but the constant one integrates to
    zero and int f = theta_1 * sqrt(P).  That closed form replaces the
    32k-node quadrature whenever f is provably positive: its minimum on a
    grid exceeds the most f can fall between grid points (half the spacing
    times a bound on |f'|).  Otherwise the engine's own normalizer is used.
    """
    dens = snap.density
    spec = dens.basis
    p = dens.active_count
    theta = dens.theta[:p]
    grid = np.linspace(spec.lo, spec.hi, CLIP_GRID)
    freq = 2.0 * np.pi * (np.arange(1, p + 1) // 2) / spec.period
    slope = np.sqrt(2.0 / spec.period) * float(np.abs(theta) @ freq)
    if spec.extension_margin != 0.0 or float(np.min(dens.evaluate(grid))) \
            <= slope * 0.5 * (grid[1] - grid[0]):
        return dens.evaluate_normalized(float(t))
    return max(dens.evaluate(float(t)), 0.0) / (
        float(theta[0]) * np.sqrt(spec.period))


class Server:
    """A ``perfbench/serve.py`` process and one client connection to it."""

    def __init__(self, trace_out=None):
        cmd = [sys.executable, SERVE]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        cmd += ["--port", "0"]
        self.log = open(os.path.join(common.OUT_DIR, "server.log"), "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, env=common.child_env(),
                                     cwd=common.ROOT)
        self.sock = self.file = None
        words = self.readline().split()
        if words[:2] != ["serving", "on"]:
            raise RuntimeError(f"unexpected server banner {words!r}")
        port = int(words[2].rsplit(":", 1)[1])
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.file = self.sock.makefile("rwb")

    def readline(self):
        """One line of the server's stdout, or an error after a timeout."""
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("server printed nothing (see server.log)")
        return line.decode()

    def call(self, line):
        self.file.write(line)
        self.file.flush()
        reply = self.file.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def start_tracing(self):
        self.proc.send_signal(signal.SIGUSR1)
        if self.readline().strip() != "tracing on":
            raise RuntimeError("server did not start tracing")

    def peak_rss_mb(self):
        return common.peak_rss_mb(self.proc.pid)

    def stop(self):
        if self.file is not None:
            self.file.close()
            self.sock.close()
            self.file = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def start_server(servers, trace_out):
    """Cold-start the server COLD_STARTS times; keep the last one running.

    Each start is timed from process launch to the reply of a first ingest,
    estimate and density query, so lazy imports and first-call set-up in the
    server count here and not in the timed window.  Returns the running
    server and the median normalized start time in seconds.
    """
    t, y = _data(np.random.default_rng(0), BATCH)
    warmup = [*_ingest_lines(["warmup"], t, y),
              _query_line("warmup", "estimate", 0.5),
              _query_line("warmup", "density", 0.5)]
    clock = time.perf_counter_ns
    speed = Speed()
    spans = []
    for i in range(common.COLD_STARTS):
        speed.sample(3)
        t0 = clock()
        srv = Server(trace_out if i == common.COLD_STARTS - 1 else None)
        servers.append(srv)
        for line in warmup:
            if not json.loads(srv.call(line))["ok"]:
                raise RuntimeError("warm-up request failed")
        spans.append((t0, clock()))
        speed.sample(3)
        if i < common.COLD_STARTS - 1:
            srv.stop()
    return servers[-1], median([speed.normalize(*span) / 1e9
                                for span in spans])


def _grow(srv, streams, rng):
    """Grow every stream to GROW_N with the same batches.

    Returns the replay of one grown stream and its memory units.
    """
    replay = Replay()
    for _ in range(GROW_N // GROW_BATCH):
        t, y = _data(rng, GROW_BATCH)
        replay.ingest(t, y)
        for line in _ingest_lines(streams, t, y):
            if not json.loads(srv.call(line))["ok"]:
                raise RuntimeError("set-up ingest failed")
    units = json.loads(srv.call(_query_line(streams[0], "stats")))[
        "memory_units"]
    return replay, units


def _send(srv, lines, step, speed):
    """Send each line and wait for its reply; time every request.

    The speed kernel runs before every unit of ``step`` lines and after the
    last one, outside the timed units.
    """
    clock = time.perf_counter_ns
    call = srv.call
    lat, replies, units = [], [], []
    for i in range(0, len(lines), step):
        speed.sample()
        u0 = clock()
        for line in lines[i:i + step]:
            t0 = clock()
            replies.append(call(line))
            lat.append(clock() - t0)
        units.append((u0, clock()))
    speed.sample()
    return {"lat": lat, "replies": replies, "units": units,
            "end_ns": clock()}


def _window(srv, lines, step, trace, speed):
    """Send the window's lines; when tracing, trace only the second half.

    ``step`` is the number of lines in one unit of work; the halves split on
    a whole unit.  Returns one or two halves (see ``_send``).
    """
    if not trace:
        return [_send(srv, lines, step, speed)]
    cut = len(lines) // step // 2 * step
    first = _send(srv, lines[:cut], step, speed)
    srv.start_tracing()
    return [first, _send(srv, lines[cut:], step, speed)]


def _normalized(half, step, speed):
    """Normalized unit times and request latencies (ns) of one half."""
    units, lat = [], []
    for u, (a, b) in enumerate(half["units"]):
        units.append(speed.normalize(a, b))
        factor = units[-1] / (b - a)
        lat += [x * factor for x in half["lat"][u * step:(u + 1) * step]]
    return units, lat


def _e2e(units):
    """Gated end-to-end metrics from normalized unit times (ns); see README."""
    return {"op_norm_p50_ms": (ms(quantile(units, 0.5)), "ms")}


def _unit_figures(half, step, speed):
    """The 90th percentile of the normalized unit times, and the median and
    90th percentile of their raw wall times (ms)."""
    units = _normalized(half, step, speed)[0]
    raw = [b - a for a, b in half["units"]]
    return {"op_norm_p90_ms": ms(quantile(units, 0.9)),
            "op_raw_p50_ms": ms(quantile(raw, 0.5)),
            "op_raw_p90_ms": ms(quantile(raw, 0.9))}


def _check_reply(reply, problems, **expect):
    msg = json.loads(reply)
    if not msg.get("ok"):
        problems.append(f"request failed: {msg}")
        return
    for key, want in expect.items():
        got = msg.get(key)
        if key == "value":
            if got is None or rel_diff(got, want) > REL_TOL:
                problems.append(f"{key} {got!r} != replay {want!r}")
        elif got != want:
            problems.append(f"{key} {got!r} != replay {want!r}")


def _result(halves, step, speed, problems, setup_s, rss, units_1e5, detail,
            trace_out, tau_calls):
    replies = [r for half in halves for r in half["replies"]]

    def e2e(half):
        return _e2e(_normalized(half, step, speed)[0])

    result = {"attempted": len(replies),
              "failed": sum(not json.loads(r)["ok"] for r in replies),
              "problems": problems, "setup_s": setup_s, "rss_peak_mb": rss,
              "e2e": e2e(halves[-1]),
              "detail": {**detail,
                         **_unit_figures(halves[-1], step, speed)},
              "units_1e5": units_1e5}
    if trace_out is not None:
        traced = halves[1]
        summary = tracing.summarize(tracing.load(trace_out), traced["end_ns"])
        layers = summary["layers"]
        handled = sum(layers[f"service.handle_request.{op}"]["total_ns"]
                      for op in ("ingest", "query"))
        wire_ms = ms(sum(traced["lat"]) - handled) / len(traced["lat"])
        result["e2e_untraced"] = e2e(halves[0])
        result["layers"] = tracing.metrics(
            summary, len(traced["lat"]) // step, tau_calls, wire_ms)
    return result


def _trace_out(workload, trace):
    if not trace:
        return None
    return os.path.join(common.OUT_DIR, f"spans-{workload}.jsonl")


def run_ingest(seed, seconds, trace):
    """Write-only: 100-point ingests round-robin over a few grown streams.

    Each stream is grown to n = 1e5 (116 slots) during set-up and keeps
    opening slots during the window.  Every stream receives the same batches
    in the same order, so the streams end in one state and a single replay
    checks them all; a reply that landed on the wrong stream still shows in
    its n.
    """
    rng = np.random.default_rng([seed, 1])
    streams = [f"s{i}" for i in range(INGEST_STREAMS)]
    step = INGEST_STREAMS
    batches = [_data(rng, BATCH)
               for _ in range(_units(seconds, INGEST_ROUNDS_PER_S))]
    lines = [line for b in batches for line in _ingest_lines(streams, *b)]
    check_ts = rng.uniform(0.0, 1.0, 3)
    trace_out = _trace_out("ingest", trace)

    problems = []
    servers = []
    speed = Speed()
    try:
        srv, setup_s = start_server(servers, trace_out)
        replay, units_1e5 = _grow(srv, streams, rng)
        halves = _window(srv, lines, step, trace, speed)
        # read before the verification queries below, whose density
        # evaluations at the final q would otherwise set the peak
        rss = srv.peak_rss_mb()

        replies = [r for half in halves for r in half["replies"]]
        traced_from = (len(halves[0]["replies"]) // step if trace
                       else len(batches))
        tau = tracing.TauCounter()
        for r, (t, y) in enumerate(batches):
            n = replay.ingest(t, y, tau if r >= traced_from else None)
            for reply in replies[r * step:(r + 1) * step]:
                _check_reply(reply, problems, n=n)

        snap, rho = replay.snapshot(), replay.rho()
        for stream in streams:
            _check_reply(srv.call(_query_line(stream, "stats")), problems,
                         n=snap.n, memory_units=snap.memory_footprint(),
                         q_active=snap.active_count)
            for t in check_ts:
                _check_reply(srv.call(_query_line(stream, "estimate", t)),
                             problems, value=snap.estimate(float(t), rho))
            _check_reply(srv.call(_query_line(stream, "density",
                                              check_ts[0])),
                         problems, value=density_value(snap, check_ts[0]))
    finally:
        for server in servers:
            server.stop()

    units, lat = _normalized(halves[-1], step, speed)
    detail = {
        "ingest_requests": len(lat),
        "pts_per_s": BATCH * len(lat) / (sum(units) / 1e9),
        "ingest_req_p50_ms": ms(quantile(lat, 0.5)),
        "ingest_req_p99_ms": ms(quantile(lat, 0.99)),
        "stream_n": snap.n,
        "state_units": INGEST_STREAMS * snap.memory_footprint(),
    }
    # every stream folded the same batches, so one stream's count times
    # the number of streams is the server's
    return _result(halves, step, speed, problems, setup_s, rss, units_1e5,
                   detail, trace_out, INGEST_STREAMS * tau.calls)


def _run_cycles(workload, seed, seconds, trace, kind, per_cycle, per_s,
                n_streams):
    """Cycles of one 100-point ingest, then ``per_cycle`` queries of ``kind``.

    Cycles rotate over ``n_streams`` streams, all grown to n = 1e5 (q = 92)
    with the same batches during set-up.  The ingest clears the stream's
    coefficient cache, so the cycle's first query is cold.  One untimed
    cycle per stream before the window makes the first solve at this q
    set-up too.  Every reply, untimed ones included, is checked against a
    fresh engine restored from the replay's checkpoint, so a stale
    server-side cache shows.
    """
    rng = np.random.default_rng([seed, 2])
    streams = [f"{workload[0]}{i}" for i in range(n_streams)]
    n_cycles = n_streams + _units(seconds, per_s)
    cycles = [(streams[c % n_streams], *_data(rng, BATCH),
               rng.uniform(0.0, 1.0, per_cycle)) for c in range(n_cycles)]
    step = per_cycle + 1
    lines = []
    for s, t, y, ts in cycles:
        lines += _ingest_lines([s], t, y)
        lines += [_query_line(s, kind, x) for x in ts]
    trace_out = _trace_out(workload, trace)

    servers = []
    speed = Speed()
    try:
        srv, setup_s = start_server(servers, trace_out)
        grown, units_1e5 = _grow(srv, streams, rng)
        untimed = n_streams * step
        replies = [srv.call(line) for line in lines[:untimed]]
        halves = _window(srv, lines[untimed:], step, trace, speed)
        rss = srv.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()

    problems = []
    replays = {s: Replay(grown.snapshot()) for s in streams}
    replies += [r for half in halves for r in half["replies"]]
    traced_from = (n_streams + len(halves[0]["replies"]) // step if trace
                   else n_cycles)
    tau = tracing.TauCounter()
    for c, (s, t, y, ts) in enumerate(cycles):
        replay = replays[s]
        n = replay.ingest(t, y, tau if c >= traced_from else None)
        cyc = replies[c * step:(c + 1) * step]
        _check_reply(cyc[0], problems, n=n)
        snap, rho = replay.snapshot(), replay.rho()
        for reply, x in zip(cyc[1:], ts):
            want = (snap.estimate(float(x), rho) if kind == "estimate"
                    else density_value(snap, x))
            _check_reply(reply, problems, value=want)

    units, lat = _normalized(halves[-1], step, speed)
    first = lat[1::step]
    repeat = [x for i in range(2, step) for x in lat[i::step]]
    detail = {"cycles": len(units),
              "pts_per_s": BATCH * len(units) / (sum(units) / 1e9),
              "ingest_req_p50_ms": ms(quantile(lat[0::step], 0.5)),
              f"{kind}_cold_p50_ms": ms(quantile(first, 0.5)),
              f"{kind}_cold_p90_ms": ms(quantile(first, 0.9)),
              f"{kind}_warm_p50_ms": ms(quantile(repeat, 0.5))}
    return _result(halves, step, speed, problems, setup_s, rss, units_1e5,
                   detail, trace_out, tau.calls)


def run_query(seed, seconds, trace):
    """The estimate path: one cold and WARM_PER_CYCLE warm estimates."""
    return _run_cycles("query", seed, seconds, trace, "estimate",
                       1 + WARM_PER_CYCLE, QUERY_CYCLES_PER_S, QUERY_STREAMS)


def run_density(seed, seconds, trace):
    """The density path: two density queries at different t per ingest."""
    return _run_cycles("density", seed, seconds, trace, "density", 2,
                       DENSITY_CYCLES_PER_S, 1)
