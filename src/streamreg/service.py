"""Line-delimited JSON ingestion/query service over a local TCP socket.

One request per line, one JSON response per line.  Requests:

    {"op": "ingest", "stream_id": s, "points": [[t, y], ...]}
    {"op": "query", "stream_id": s, "kind": "estimate"|"density", "t": x}
    {"op": "query", "stream_id": s, "kind": "stats"}

Responses carry {"ok": true, ...} or {"ok": false, "error": kind,
"message": text}.  Numbers survive the wire bit-exactly (JSON floats are
emitted with shortest round-trip formatting).
"""

import json
import socket
import socketserver
import threading
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, PenaltySpec
from .engine import OnePassRegressor
from .errors import DomainError, StateError, StreamRegError
from .scheduler import SchedulerConfig
from .tuning import rho_at


@dataclass(frozen=True)
class ServiceConfig:
    """Per-service engine configuration applied to every new stream."""

    lo: float = 0.0
    hi: float = 1.0
    extension_margin: float = 0.0
    penalty: str = "roughness"
    h: float = 1.0 / 3.0
    C_rho: float = 1.0
    mem_cap: int | None = None
    known_uniform_density: bool = False
    batch_size: int = 100


class StreamRegistry:
    """Thread-safe map of stream_id -> engine; per-stream serialization."""

    def __init__(self, config):
        self.config = config
        self._streams = {}
        self._lock = threading.Lock()

    def _engine(self, stream_id, create):
        with self._lock:
            if stream_id not in self._streams:
                if not create:
                    return None
                cfg = self.config
                spec = BasisSpec(cfg.lo, cfg.hi,
                                 extension_margin=cfg.extension_margin)
                sched = SchedulerConfig(h=cfg.h, mem_cap=cfg.mem_cap)
                reg = OnePassRegressor(
                    spec, PenaltySpec(cfg.penalty), sched,
                    batch_size=cfg.batch_size,
                    known_uniform_density=cfg.known_uniform_density)
                self._streams[stream_id] = (reg, threading.Lock())
            return self._streams[stream_id]

    def ingest(self, stream_id, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty list of [t, y] pairs")
        ts, ys = np.ascontiguousarray(points.T)
        reg, lock = self._engine(stream_id, create=True)
        with lock:
            reg.ingest(ts, ys)
            return {"n": reg.n}

    def query(self, stream_id, kind, t=None):
        entry = self._engine(stream_id, create=False)
        if entry is None:
            raise KeyError(f"unknown stream {stream_id!r}")
        reg, lock = entry
        with lock:
            if kind == "stats":
                rho = self._rho(reg)
                return {"n": reg.n, "q_active": reg.active_count,
                        "memory_units": reg.memory_footprint(), "rho": rho}
            if t is None:
                raise ValueError(f"query kind {kind!r} requires t")
            if reg.n < 1:
                raise StateError("stream has no data yet (warm-up)")
            if kind == "estimate":
                return {"value": reg.estimate(float(t), self._rho(reg))}
            if kind == "density":
                return {"value": reg.density_at(float(t))}
            raise ValueError(f"unknown query kind {kind!r}")

    def _rho(self, reg):
        if reg.n < 1:
            return rho_at(self.config.C_rho, self.config.h, 1)
        return rho_at(self.config.C_rho, self.config.h, reg.n)


def handle_request(registry, request):
    """Dispatch one decoded request dict to a response dict."""
    try:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op = request.get("op")
        if op == "ingest":
            result = registry.ingest(request["stream_id"], request["points"])
        elif op == "query":
            result = registry.query(request["stream_id"], request["kind"],
                                    request.get("t"))
        else:
            raise ValueError(f"unknown op {op!r}")
        return {"ok": True, **result}
    except KeyError as exc:
        return {"ok": False, "error": "not_found", "message": str(exc)}
    except DomainError as exc:
        return {"ok": False, "error": "validation", "message": str(exc)}
    except StateError as exc:
        return {"ok": False, "error": "warm_up", "message": str(exc)}
    except (ValueError, TypeError, StreamRegError) as exc:
        return {"ok": False, "error": "request", "message": str(exc)}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            raw = raw.strip()
            if not raw:
                continue
            try:
                request = json.loads(raw)
            except json.JSONDecodeError as exc:
                response = {"ok": False, "error": "request",
                            "message": f"bad JSON: {exc}"}
            else:
                response = handle_request(self.server.registry, request)
            self.wfile.write((json.dumps(response) + "\n").encode())
            self.wfile.flush()


class StreamService(socketserver.ThreadingTCPServer):
    """Long-running ndjson service; one engine per stream_id."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, config, host="127.0.0.1", port=0):
        super().__init__((host, port), _Handler)
        self.registry = StreamRegistry(config)

    @property
    def address(self):
        return self.server_address

    def serve_background(self):
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class ServiceClient:
    """Minimal ndjson client used by tests and the CLI."""

    def __init__(self, host, port):
        self._sock = socket.create_connection((host, port))
        self._file = self._sock.makefile("rwb")

    def request(self, **payload):
        self._file.write((json.dumps(payload) + "\n").encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def close(self):
        self._file.close()
        self._sock.close()
