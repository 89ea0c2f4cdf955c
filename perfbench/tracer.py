"""Per-layer tracing by wrapping streamreg's public functions from outside.

``Tracer.install`` replaces each timed function with a wrapper that records
a span in a per-thread list kept in memory:

    [name, start_ns, end_ns, parent_index, work]

``work`` is the size of the call where the layer has one (cells evaluated,
quadrature nodes, checkpoint bytes).  Names bound into other modules by
``from ... import`` are patched wherever they are looked up.

``TauCounter`` counts ``SchedulerConfig.tau`` calls.  ``slot_count`` calls
``tau`` once per open slot, so a wrapper on every call would make up most
of ``slot_count``'s time; the benchmark counts them in an untimed pass of
its own instead, and the traced code runs with ``tau`` unwrapped.

``summarize`` turns spans into per-layer call counts and self times; a
span's self time is its duration minus the durations of its direct traced
children.  Clocks are ``perf_counter_ns`` (CLOCK_MONOTONIC on Linux), so
spans from a server process can be cut at a time taken in the client.
"""

import json
import sys
import threading
import time

# (layer name, owner, attribute); owners are resolved by ``_owners``.
SPANNED = (
    ("scheduler.slot_count", "SchedulerConfig", "slot_count"),
    ("basis.eval_matrix", "basis", "eval_matrix"),
    ("basis.penalty_matrix", "basis", "penalty_matrix"),
    ("basis.gram_uniform", "basis", "gram_uniform"),
    ("quadrature.rule", "quadrature", "rule"),
    ("engine.ingest", "OnePassRegressor", "ingest"),
    ("engine.solve_coefficients", "OnePassRegressor", "solve_coefficients"),
    ("engine.coefficients", "OnePassRegressor", "coefficients"),
    ("engine.checkpoint_json", "OnePassRegressor", "checkpoint_json"),
    ("engine.from_checkpoint", "OnePassRegressor", "from_checkpoint"),
    ("engine.batch_fit", "engine", "batch_fit"),
    ("density.update", "DensityState", "update"),
    ("density.gram", "DensityState", "gram"),
    ("density.evaluate_normalized", "DensityState", "evaluate_normalized"),
    ("tuning.cv_select", "tuning", "cv_select"),
    ("harness.integrated_squared_error", "harness",
     "integrated_squared_error"),
    ("lowerbound.alice_encode", "lowerbound", "alice_encode"),
    ("lowerbound.bob_decode", "lowerbound", "bob_decode"),
    ("service.handle_request", "service", "handle_request"),
)

# Work size of one call, for the layers that have one.
WORK = {
    "basis.eval_matrix": lambda out: out.size,
    "quadrature.rule": lambda out: out[0].size,
    "engine.checkpoint_json": len,
}

# Every layer the summary reports; handle_request is split by request op.
LAYERS = tuple(name for name, _, _ in SPANNED
               if name != "service.handle_request") + (
    "service.handle_request.ingest", "service.handle_request.query")


def _owners():
    from streamreg import (basis, density, engine, harness, lowerbound,
                           quadrature, scheduler, service, tuning)
    return {
        "SchedulerConfig": scheduler.SchedulerConfig,
        "OnePassRegressor": engine.OnePassRegressor,
        "DensityState": density.DensityState,
        "basis": basis, "quadrature": quadrature, "engine": engine,
        "tuning": tuning, "harness": harness, "lowerbound": lowerbound,
        "service": service,
    }


def _span_name(name, args):
    if name == "service.handle_request":
        op = args[1].get("op") if isinstance(args[1], dict) else None
        return f"{name}.{op if op in ('ingest', 'query') else 'other'}"
    return name


class Tracer:
    """In-memory span recorder; one span list per thread."""

    def __init__(self):
        self._local = threading.local()
        self.threads = []
        self.installed = False

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], [])
            self.threads.append(st[0])
        return st

    def _spanned(self, name, fn):
        state = self._state
        work = WORK.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            spans, stack = state()
            rec = [_span_name(name, args), 0, 0,
                   stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function at each place it is looked up."""
        owners = _owners()
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "streamreg"
                                         or k.startswith("streamreg."))]
        for name, owner_name, attr in SPANNED:
            owner = owners[owner_name]
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._spanned(name, raw.__func__)))
                continue
            wrapped = self._spanned(name, raw)
            setattr(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, wrapped)
        self.installed = True

    def dump(self, path):
        """Write every span as one JSON line: [thread, *span]."""
        with open(path, "w") as fh:
            for tid, spans in enumerate(self.threads):
                for rec in spans:
                    fh.write(json.dumps([tid, *rec]) + "\n")


class TauCounter:
    """Counts ``SchedulerConfig.tau`` calls made inside ``with`` blocks.

    The counter accumulates over every block it is entered for; outside
    them ``tau`` is the program's own method.
    """

    def __init__(self):
        self.calls = 0
        self._raw = None

    def __enter__(self):
        from streamreg.scheduler import SchedulerConfig

        raw = self._raw = vars(SchedulerConfig)["tau"]

        def tau(*args, **kwargs):
            self.calls += 1
            return raw(*args, **kwargs)

        SchedulerConfig.tau = tau
        return self

    def __exit__(self, *exc):
        from streamreg.scheduler import SchedulerConfig

        SchedulerConfig.tau = self._raw
        return False


def load(path):
    """Read spans written by ``Tracer.dump`` back into per-thread lists."""
    threads = {}
    with open(path) as fh:
        for line in fh:
            tid, *rec = json.loads(line)
            threads.setdefault(tid, []).append(rec)
    return list(threads.values())


def summarize(threads, until_ns=None):
    """Per-layer calls, self time, work and coefficient-cache hits.

    Only spans that start before ``until_ns`` count, which cuts off requests
    made after the measured window.
    """
    layers = {name: {"calls": 0, "self_ns": 0, "total_ns": 0, "work": 0}
              for name in LAYERS}
    coef_hits = 0
    for spans in threads:
        child_ns = [0] * len(spans)
        solved = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "engine.solve_coefficients":
                    solved[parent] = True
        for i, (name, start, end, _, work) in enumerate(spans):
            if until_ns is not None and start >= until_ns:
                continue
            layer = layers.setdefault(
                name, {"calls": 0, "self_ns": 0, "total_ns": 0, "work": 0})
            layer["calls"] += 1
            layer["total_ns"] += end - start
            layer["self_ns"] += end - start - child_ns[i]
            layer["work"] += work
            if name == "engine.coefficients" and not solved[i]:
                coef_hits += 1
    return {"layers": layers, "coefficient_hits": coef_hits}


def metrics(summary, ops, tau_calls, wire_ms=0.0):
    """Per-layer metrics as (value, unit), named as in BENCHMARK.json.

    ``ops`` is the number of units of work in the traced window and
    ``tau_calls`` the ``TauCounter`` count for the same work.  The
    memory-unit and tracing-overhead metrics are added by run.py.
    """
    layers = summary["layers"]
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (layers[name]["calls"], "count")
        out[f"{name}.self_ms"] = (layers[name]["self_ns"] / 1e6, "ms")
    coef = layers["engine.coefficients"]["calls"]
    out["engine.coefficients.hit_ratio"] = (
        summary["coefficient_hits"] / coef if coef else 0.0, "ratio")
    out["scheduler.tau.calls"] = (tau_calls, "count")
    out["basis.eval_matrix.cells"] = (layers["basis.eval_matrix"]["work"],
                                      "count")
    out["quadrature.rule.nodes"] = (layers["quadrature.rule"]["work"], "count")
    out["engine.checkpoint.bytes"] = (
        layers["engine.checkpoint_json"]["work"], "bytes")
    out["service.wire_ms"] = (wire_ms, "ms")
    out["bench.ops"] = (ops, "count")
    return out
