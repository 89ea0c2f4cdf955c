"""Line-delimited JSON ingestion/query service over a local TCP socket.

One request per line, one JSON response per line.  Requests:

    {"op": "ingest", "stream_id": s, "points": [[t, y], ...]}
    {"op": "query", "stream_id": s, "kind": "estimate"|"density", "t": x}
    {"op": "query", "stream_id": s, "kind": "stats"}

Requests must be strict JSON (RFC 8259), decoded by orjson: ``NaN``,
``Infinity``, a number that overflows a double, bytes that are not UTF-8, a
lone surrogate and nesting deeper than MAX_DEPTH levels are ``request``
errors ("bad JSON").  A stream_id is a string or an integer (not a bool);
anything else is a ``request`` error before any stream is read or created.
Integers outside [-2**63, 2**64) decode as floats, so they are refused as
ids rather than sharing a stream with a nearby float.  The entries of each
[t, y] pair and a query's t must be JSON numbers, and t a finite one: a
string or a boolean is a ``request`` error too, and the stream is left as it
was.

Responses carry {"ok": true, ...} or {"ok": false, "error": kind,
"message": text}.  The kinds are ``request`` (a request the service cannot
read or act on), ``validation`` (a t outside the stream's domain),
``not_found`` and ``non_finite``, described below.  A ``stats`` reply holds
n, q_active, p_active (the sketch's active slots; null for a known-uniform
density), pending_slots (slots opened but not yet active), memory_units,
rho, density_certified (whether the density sketch is proven non-negative,
so that its queries need no quadrature; null for a known-uniform density),
last_solve and coef_cache_hits.  last_solve is the gate record of the
stream's last coefficient solve, {"gate": "certificate", "kappa_bound": x}
or {"gate": "dpocon", "rcond": x}, or null before the first one;
coef_cache_hits counts the estimates answered from the coefficient cache.
Neither is checkpointed.
A request line ends at a newline or at the end of the client's stream: a
last line sent without its newline, followed by a half-close
(``shutdown(SHUT_WR)``), is handled as any other line, and its reply is
sent before the connection closes (a ``request`` error, "bad JSON", if it
does not parse).
Numbers survive the wire bit-exactly (JSON floats are emitted with shortest
round-trip formatting).  A reply that would hold NaN or inf, which JSON
cannot, is sent as a ``non_finite`` error instead.

A stream exists once its first batch has been accepted: a refused first
ingest leaves no stream behind, and a query of a stream that does not exist
gets a ``not_found`` error.  A request that lacks a field its op needs
(stream_id, points or kind) is a ``request`` error.  So is a request line
longer than MAX_LINE_BYTES, or an ingest that would create a stream past
MAX_STREAMS, so the memory a client can make the process hold stays
bounded; the connection and every existing stream keep being served.

One request holds at most a line of MAX_LINE_BYTES, the objects it decodes
to (about 9 times the line), and beyond them its t and y arrays and one
chunk of power tables (``basis.moments``) of at most SPARE_BYTES with a few
rows of the chunk's points.  A 1 002 717-byte line of 74 884 points
decoded to 9.6 MB by tracemalloc; folded into a stream at n = 1e5 it peaks
6.0 MB above its decoded objects.  On the query side, a cold estimate at
margin 0 holds two q x q arrays, the Gram matrix H and the system it
factors in place, beside O(q) for the penalty, which is diagonal there and
kept as its diagonal (``engine.penalized_solve``).
"""

import json
import reprlib
import socketserver
import threading
from dataclasses import dataclass

import numpy as np
import orjson

from .basis import BasisSpec, PenaltySpec, is_real
from .engine import OnePassRegressor
from .errors import DomainError, NotFoundError, StreamRegError
from .scheduler import SchedulerConfig
from .tuning import rho_at

# Longest request line read, in bytes without its newline; a 1000-point
# ingest line is about 40 KB.
MAX_LINE_BYTES = 1 << 20

# Most streams one service holds.
MAX_STREAMS = 1024

# Deepest array or object nesting a request line may have.  orjson builds the
# decoded objects recursively, so a deeper valid line would exhaust the
# handler thread's stack: one 300 000 levels deep ends the process.
MAX_DEPTH = 4096

# Every byte but brackets and quotes, and each bracket's step in depth.
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_DEPTH_STEP = np.zeros(256, dtype=np.intp)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1

# The types of a JSON number once decoded; bool, a subclass of int, is not one.
_NUMBERS = frozenset((int, float))

# json.dumps(..., allow_nan=False) would build this encoder for every reply
_REPLY = json.JSONEncoder(allow_nan=False)


@dataclass(frozen=True)
class ServiceConfig:
    """Engine configuration: the service applies it to every new stream, and
    ``streamreg ingest-csv`` to the stream it starts."""

    lo: float = 0.0
    hi: float = 1.0
    extension_margin: float = BasisSpec.extension_margin
    penalty: str = PenaltySpec.kind
    h: float = SchedulerConfig.h
    C_rho = 1.0  # not a field: the penalty constant of every rho served
    mem_cap: int | None = SchedulerConfig.mem_cap
    known_uniform_density: bool = False
    batch_size: int = 100

    def __post_init__(self):
        self.engine()  # the engine's constructors check every field

    def engine(self):
        """A fresh engine with this configuration."""
        return OnePassRegressor(
            BasisSpec(self.lo, self.hi, extension_margin=self.extension_margin),
            PenaltySpec(self.penalty),
            SchedulerConfig(h=self.h, mem_cap=self.mem_cap),
            batch_size=self.batch_size,
            known_uniform_density=self.known_uniform_density)


class StreamRegistry:
    """Thread-safe map of stream_id -> engine; per-stream serialization.
    A new stream_id is entered only with the engine that accepted its first
    batch."""

    def __init__(self, config):
        self.config = config
        self._streams = {}
        self._lock = threading.Lock()

    def _engine(self, stream_id):
        with self._lock:
            return self._streams.get(stream_id)

    def ingest(self, stream_id, points):
        ts, ys = _columns(points)
        entry = self._engine(stream_id)
        if entry is None:
            reg = self.config.engine()
            reg.ingest(ts, ys)
            with self._lock:
                entry = self._streams.get(stream_id)
                if entry is None:
                    if len(self._streams) >= MAX_STREAMS:
                        raise ValueError(f"the service holds its limit of "
                                         f"{MAX_STREAMS} streams")
                    self._streams[stream_id] = (reg, threading.Lock())
                    return {"n": reg.n}
            # another request entered the stream meanwhile: join it
        reg, lock = entry
        with lock:
            reg.ingest(ts, ys)
            return {"n": reg.n}

    def query(self, stream_id, kind, t):
        entry = self._engine(stream_id)
        if entry is None:
            raise NotFoundError(f"unknown stream {stream_id!r}")
        reg, lock = entry
        with lock:
            if kind == "stats":
                rho = served_rho(reg)
                return {"n": reg.n, "q_active": reg.active_count,
                        "p_active": reg.density.active_count,
                        "pending_slots": reg.G.size - reg.active_count,
                        "memory_units": reg.memory_footprint(), "rho": rho,
                        "density_certified": reg.density.certified(),
                        "last_solve": reg.last_solve and dict(reg.last_solve),
                        "coef_cache_hits": reg.coef_cache_hits}
            if not is_real(t):
                raise ValueError(f"query kind {reprlib.repr(kind)} requires "
                                 f"t, a finite number")
            if kind == "estimate":
                return {"value": reg.estimate(float(t), served_rho(reg))}
            if kind == "density":
                return {"value": reg.density.evaluate_normalized(float(t))}
            raise ValueError(f"unknown query kind {reprlib.repr(kind)}")


def served_rho(reg):
    """The rho of ``estimate``, ``stats`` and ``streamreg query`` for the
    engine ``reg``, at its n (1 before its first point)."""
    return rho_at(ServiceConfig.C_rho, reg.schedule.h, max(reg.n, 1),
                  reg.penalty.zeta)


def _columns(points):
    """The t and y columns of a non-empty list of [t, y] pairs whose entries
    are numbers: ints or floats, not bools or strings.  ValueError for
    anything else."""
    try:
        # strict: pairs of unequal length raise rather than truncate
        ts, ys = zip(*points, strict=True)
    except (TypeError, ValueError):
        raise ValueError("points must be a non-empty list of [t, y] "
                         "pairs") from None
    if not {*map(type, ts), *map(type, ys)} <= _NUMBERS:
        raise ValueError("point entries must be numbers")
    try:
        return (np.fromiter(ts, float, len(ts)),
                np.fromiter(ys, float, len(ys)))
    except OverflowError:  # an int past the float range
        raise ValueError("point entries must be finite numbers") from None


def _nesting_depth(raw):
    """Deepest array or object nesting of a JSON text, not counting brackets
    inside strings; exact for valid JSON, the only text orjson turns into
    objects."""
    # without escaped backslashes, then escaped quotes, every quote left
    # opens or closes a string
    marks = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    outside = b"".join(marks.translate(None, _NOT_MARKS).split(b'"')[::2])
    steps = _DEPTH_STEP[np.frombuffer(outside, dtype=np.uint8)]
    return int(np.cumsum(steps).max(initial=0))


def decode_request(raw):
    """Decode one request line (bytes) as strict JSON; ValueError if it is
    not, or if it nests deeper than MAX_DEPTH levels."""
    # each level takes two bytes, so a short line cannot nest too deep
    if len(raw) > 2 * MAX_DEPTH and _nesting_depth(raw) > MAX_DEPTH:
        raise ValueError(f"nested deeper than {MAX_DEPTH} levels")
    return orjson.loads(raw)


def _stream_id(request):
    stream_id = request["stream_id"]
    if isinstance(stream_id, bool) or not isinstance(stream_id, (str, int)):
        raise ValueError(f"stream_id must be a string or an integer, not "
                         f"{type(stream_id).__name__}")
    return stream_id


def handle_request(registry, request):
    """Dispatch one decoded request dict to a response dict."""
    try:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op = request.get("op")
        if op == "ingest":
            result = registry.ingest(_stream_id(request), request["points"])
        elif op == "query":
            result = registry.query(_stream_id(request), request["kind"],
                                    request.get("t"))
        else:
            # reprlib bounds the text of a long or deeply nested value
            raise ValueError(f"unknown op {reprlib.repr(op)}")
        return {"ok": True, **result}
    except NotFoundError as exc:
        return {"ok": False, "error": "not_found", "message": str(exc)}
    except KeyError as exc:
        return {"ok": False, "error": "request",
                "message": f"request lacks the field {exc}"}
    except DomainError as exc:
        return {"ok": False, "error": "validation", "message": str(exc)}
    except (ValueError, TypeError, StreamRegError) as exc:
        return {"ok": False, "error": "request", "message": str(exc)}


class _Handler(socketserver.StreamRequestHandler):
    def _skip_line(self):
        """Discard the rest of an over-long line, one bounded read at a time."""
        while True:
            chunk = self.rfile.readline(MAX_LINE_BYTES)
            if not chunk or chunk.endswith(b"\n"):
                return

    def handle(self):
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
                self._skip_line()
                response = {"ok": False, "error": "request",
                            "message": f"request line longer than "
                                       f"{MAX_LINE_BYTES} bytes"}
            elif not raw.strip():
                continue
            else:
                try:
                    request = decode_request(raw)
                except ValueError as exc:  # not strict JSON, or nested too deep
                    response = {"ok": False, "error": "request",
                                "message": f"bad JSON: {exc}"}
                else:
                    response = handle_request(self.server.registry, request)
            try:
                line = _REPLY.encode(response)
            except ValueError:  # NaN or inf, which JSON cannot hold
                line = json.dumps({"ok": False, "error": "non_finite",
                                   "message": "the reply holds a non-finite "
                                              "number"})
            self.wfile.write((line + "\n").encode())
            self.wfile.flush()


class StreamService(socketserver.ThreadingTCPServer):
    """Long-running ndjson service; one engine per stream_id."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, config, host="127.0.0.1", port=0):
        super().__init__((host, port), _Handler)
        self.registry = StreamRegistry(config)
