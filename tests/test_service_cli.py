import csv
import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamreg import cli, harness, service
from streamreg.basis import BasisSpec, PenaltySpec
from streamreg.cli import main
from streamreg.engine import RCOND_FLOOR, OnePassRegressor
from streamreg.harness import Scenario
from streamreg.scheduler import SchedulerConfig
from streamreg.service import (MAX_DEPTH, MAX_LINE_BYTES, MAX_STREAMS,
                               ServiceConfig, StreamRegistry, StreamService,
                               decode_request, handle_request)
from streamreg.errors import TuningError
from streamreg.tuning import TuningGrid, cv_select, cv_table, rho_at


class ServiceClient:
    """Minimal blocking ndjson client."""

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


def serve_background(server):
    """Run ``server.serve_forever`` on a daemon thread."""
    threading.Thread(target=server.serve_forever, daemon=True).start()


@pytest.fixture
def registry():
    return StreamRegistry(ServiceConfig(known_uniform_density=True))


def ingest_points(registry, stream_id, n, seed=0, fn=np.sin):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0, 1, n)
    points = [[float(t), float(fn(t))] for t in ts]
    return handle_request(registry, {"op": "ingest", "stream_id": stream_id,
                                     "points": points})


class TestRegistry:
    def test_ingest_then_stats(self, registry):
        resp = ingest_points(registry, "a", 50)
        assert resp == {"ok": True, "n": 50}
        stats = handle_request(registry, {"op": "query", "stream_id": "a",
                                          "kind": "stats"})
        assert stats["ok"] and stats["n"] == 50
        assert stats["q_active"] >= 1
        assert stats["memory_units"] > 0

    @pytest.mark.parametrize("config, gate, p_active", [
        (ServiceConfig(known_uniform_density=True), "certificate", False),
        (ServiceConfig(), "certificate", True),  # a certified sketch
        (ServiceConfig(extension_margin=0.1), "dpocon", True)])
    def test_stats_report_slots_solves_and_cache_hits(self, config, gate,
                                                      p_active):
        registry = StreamRegistry(config)

        def stats():
            reply = handle_request(registry, {"op": "query", "stream_id": "a",
                                              "kind": "stats"})
            json.dumps(reply, allow_nan=False)  # the wire can carry it
            return reply

        def estimate():
            reply = handle_request(registry, {"op": "query", "stream_id": "a",
                                              "kind": "estimate", "t": 0.5})
            assert reply["ok"], reply

        ingest_points(registry, "a", 700)
        reg = registry._engine("a")[0]
        first = stats()
        assert first["last_solve"] is None and first["coef_cache_hits"] == 0
        assert first["p_active"] == (reg.active_count if p_active else None)
        assert first["pending_slots"] == \
            reg.schedule.slot_count(700) - reg.active_count > 0
        record = reg.checkpoint_json()
        estimate()
        estimate()
        estimate()
        second = stats()
        assert reg.checkpoint_json() == record  # none of it is checkpointed
        assert second["coef_cache_hits"] == 2
        solve = dict(second["last_solve"])
        assert set(solve) == {"gate", "kappa_bound" if gate == "certificate"
                              else "rcond"}
        assert solve["gate"] == gate
        assert {type(v) for k, v in solve.items() if k != "gate"} == {float}
        if gate == "certificate":
            assert 1.0 <= solve["kappa_bound"] \
                < 1.0 / (RCOND_FLOOR * reg.active_count)
        else:
            assert RCOND_FLOOR < solve["rcond"] <= 1.0
        # the reply holds a copy: changing it changes nothing in the stream
        second["last_solve"]["gate"] = "changed"
        assert stats()["last_solve"] == solve
        # an ingest clears the cache but not the record of the last solve
        ingest_points(registry, "a", 100, seed=1)
        third = stats()
        assert third["last_solve"] == solve
        assert third["coef_cache_hits"] == 2
        estimate()
        assert stats()["coef_cache_hits"] == 2

    def test_streams_are_isolated(self, registry):
        ingest_points(registry, "a", 30)
        ingest_points(registry, "b", 70)
        sa = handle_request(registry, {"op": "query", "stream_id": "a",
                                       "kind": "stats"})
        sb = handle_request(registry, {"op": "query", "stream_id": "b",
                                       "kind": "stats"})
        assert (sa["n"], sb["n"]) == (30, 70)

    def test_estimate_query(self, registry):
        ingest_points(registry, "a", 2000, fn=lambda t: 3.0 + 0 * t)
        resp = handle_request(registry, {"op": "query", "stream_id": "a",
                                         "kind": "estimate", "t": 0.5})
        assert resp["ok"]
        assert resp["value"] == pytest.approx(3.0, abs=0.2)

    def test_density_query_known_uniform(self, registry):
        ingest_points(registry, "a", 100)
        resp = handle_request(registry, {"op": "query", "stream_id": "a",
                                         "kind": "density", "t": 0.3})
        assert resp == {"ok": True, "value": 1.0}
        outside = handle_request(registry, {"op": "query", "stream_id": "a",
                                            "kind": "density", "t": 5.0})
        assert (outside["ok"], outside["error"]) == (False, "validation")

    def test_density_query_matches_sketch(self):
        registry = StreamRegistry(ServiceConfig())
        ts = np.random.default_rng(3).uniform(0, 1, 500)
        handle_request(registry, {"op": "ingest", "stream_id": "a",
                                  "points": np.c_[ts, np.sin(ts)].tolist()})
        reg = OnePassRegressor(BasisSpec(0.0, 1.0), PenaltySpec("roughness"),
                               SchedulerConfig())
        reg.ingest(ts, np.sin(ts))
        resp = handle_request(registry, {"op": "query", "stream_id": "a",
                                         "kind": "density", "t": 0.3})
        assert resp == {"ok": True,
                        "value": reg.density.evaluate_normalized(0.3)}

    def test_error_kinds(self, registry):
        missing = handle_request(registry, {"op": "query", "stream_id": "x",
                                            "kind": "stats"})
        assert missing == {"ok": False, "error": "not_found",
                           "message": "unknown stream 'x'"}
        # a missing field is the request's fault, not an unknown stream
        for request in ({"op": "ingest", "points": [[0.5, 1.0]]},
                        {"op": "ingest", "stream_id": "a"},
                        {"op": "query", "kind": "stats"},
                        {"op": "query", "stream_id": "a", "t": 0.5}):
            resp = handle_request(registry, request)
            assert (resp["ok"], resp["error"]) == (False, "request"), request
            assert "lacks the field" in resp["message"]
        assert registry._streams == {}
        bad = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                        "points": [[2.5, 1.0]]})
        assert bad["error"] == "validation"
        unknown = handle_request(registry, {"op": "frobnicate"})
        assert unknown["error"] == "request"
        no_t = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                         "points": [[0.5, 1.0]]})
        assert no_t["ok"]
        resp = handle_request(registry, {"op": "query", "stream_id": "a",
                                         "kind": "estimate"})
        assert resp["error"] == "request"

    def test_unknown_query_kind_is_a_request_error(self, registry):
        ingest_points(registry, "a", 20)
        resp = handle_request(registry, {"op": "query", "stream_id": "a",
                                         "kind": "median", "t": 0.5})
        assert resp == {"ok": False, "error": "request",
                        "message": "unknown query kind 'median'"}

    @pytest.mark.parametrize("C_rho", [0, 0.0, -1.0])
    def test_c_rho_must_be_positive(self, C_rho):
        with pytest.raises(ValueError, match="C_rho must be positive"):
            ServiceConfig(C_rho=C_rho)

    def test_non_finite_y_rejected(self, registry):
        # strict JSON cannot carry a NaN, so it is sent in-process
        ingest_points(registry, "a", 20)
        before = registry._engine("a")[0].checkpoint_json()
        with pytest.raises(ValueError, match="non-finite"):
            registry.ingest("a", [[0.5, float("nan")]])
        resp = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                         "points": [[0.5, float("nan")]]})
        assert (resp["ok"], resp["error"]) == (False, "request")
        assert registry._engine("a")[0].checkpoint_json() == before
        stats = handle_request(registry, {"op": "query", "stream_id": "a",
                                          "kind": "stats"})
        assert stats["n"] == 20
        est = handle_request(registry, {"op": "query", "stream_id": "a",
                                        "kind": "estimate", "t": 0.5})
        assert est["ok"] and np.isfinite(est["value"])

    @pytest.mark.parametrize("points", [
        [[0.5, "1.0"]], [["0.5", 1.0]], [[0.5, True]], [[False, 1.0]],
        [[0.5, None]], [[0.5, [1.0]]], [[0.5, {"y": 1.0}]], "ab",
        {"ab": 1.0, "cd": 2.0}, [[0.1, 1.0], [0.2]],
        [[0.1, 1.0, 2.0], [0.2, 3.0]], [[0.5, 10 ** 400]],
        [[0.2, 1.0], [0.5, True]]])
    def test_non_numbers_in_points_rejected(self, registry, points):
        # each is refused whole: a known stream keeps its bytes, and a new
        # stream_id stays unknown
        ingest_points(registry, "a", 20)
        before = registry._engine("a")[0].checkpoint_json()
        for stream_id in ("a", "new"):
            resp = handle_request(registry, {"op": "ingest",
                                             "stream_id": stream_id,
                                             "points": points})
            assert (resp["ok"], resp["error"]) == (False, "request")
        assert registry._engine("a")[0].checkpoint_json() == before
        assert registry._engine("new") is None

    def test_integer_entries_are_numbers(self, registry):
        resp = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                         "points": [[0, 1], [1, -2.5]]})
        assert resp == {"ok": True, "n": 2}

    @pytest.mark.parametrize("kind", ["estimate", "density"])
    @pytest.mark.parametrize("t", ["0.5", True, False, None, [0.5],
                                   float("nan"), float("inf"), 10 ** 400])
    def test_query_t_must_be_a_finite_number(self, registry, kind, t):
        ingest_points(registry, "a", 200)
        before = registry._engine("a")[0].checkpoint_json()
        resp = handle_request(registry, {"op": "query", "stream_id": "a",
                                         "kind": kind, "t": t})
        assert (resp["ok"], resp["error"]) == (False, "request")
        assert registry._engine("a")[0].checkpoint_json() == before
        for good in (0, 1, 0.5):
            assert handle_request(registry, {"op": "query", "stream_id": "a",
                                             "kind": kind, "t": good})["ok"]

    def test_overflowing_y_rejected(self):
        # finite y whose slot sums overflow must not reach G
        registry = StreamRegistry(ServiceConfig())
        ingest_points(registry, "a", 20)
        reg = registry._engine("a")[0]
        before = reg.checkpoint_json()
        resp = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                         "points": [[0.5, 1e308]] * 10})
        assert (resp["ok"], resp["error"]) == (False, "request")
        assert reg.checkpoint_json() == before
        est = handle_request(registry, {"op": "query", "stream_id": "a",
                                        "kind": "estimate", "t": 0.5})
        assert est["ok"] and np.isfinite(est["value"])
        OnePassRegressor.from_checkpoint(reg.checkpoint_json())

    def test_malformed_points_rejected(self, registry):
        for points in ([[0.5]], [[0.5, 1.0, 2.0]], [[0.1, 1.0], [0.2]], [],
                       [0.5, 1.0], "0.5,1.0", [["a", "b"]], [{"t": 0.5}]):
            resp = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                             "points": points})
            assert (resp["ok"], resp["error"]) == (False, "request"), points
        missing = handle_request(registry, {"op": "query", "stream_id": "a",
                                            "kind": "stats"})
        assert missing["error"] == "not_found"

    def test_stream_count_is_bounded(self, registry):
        for i in range(MAX_STREAMS):
            assert handle_request(registry, {
                "op": "ingest", "stream_id": i, "points": [[0.5, 1.0]]})["ok"]
        resp = handle_request(registry, {"op": "ingest", "stream_id": "new",
                                         "points": [[0.5, 1.0]]})
        assert (resp["ok"], resp["error"]) == (False, "request")
        missing = handle_request(registry, {"op": "query", "stream_id": "new",
                                            "kind": "stats"})
        assert missing["error"] == "not_found"
        # existing streams are still served
        for i in (0, MAX_STREAMS - 1):
            resp = handle_request(registry, {
                "op": "ingest", "stream_id": i, "points": [[0.25, 2.0]]})
            assert resp == {"ok": True, "n": 2}
            est = handle_request(registry, {"op": "query", "stream_id": i,
                                            "kind": "estimate", "t": 0.5})
            assert est["ok"]

    def test_refused_first_ingest_creates_no_stream(self, registry):
        resp = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                         "points": [[2.0, 1.0]]})
        assert (resp["ok"], resp["error"]) == (False, "validation")
        stats = handle_request(registry, {"op": "query", "stream_id": "a",
                                          "kind": "stats"})
        assert (stats["ok"], stats["error"]) == (False, "not_found")
        assert registry._streams == {}

    def test_refused_first_ingests_leave_room_for_new_streams(self,
                                                              registry):
        for i in range(MAX_STREAMS + 1):
            resp = handle_request(registry, {
                "op": "ingest", "stream_id": i, "points": [[2.0, 1.0]]})
            assert (resp["ok"], resp["error"]) == (False, "validation")
        resp = handle_request(registry, {"op": "ingest", "stream_id": "new",
                                         "points": [[0.5, 1.0]]})
        assert resp == {"ok": True, "n": 1}

    def test_concurrent_first_ingests_keep_both_batches(self, registry,
                                                        monkeypatch):
        # the first two engine ingests wait for each other, so both first
        # batches of the new stream are validated at once; the one that
        # loses the race to enter the stream must join it, not be lost
        meet = threading.Barrier(2, timeout=5)
        calls = itertools.count()
        ingest = OnePassRegressor.ingest

        def meeting_ingest(self, ts, ys):
            if next(calls) < 2:
                meet.wait()
            ingest(self, ts, ys)

        monkeypatch.setattr(OnePassRegressor, "ingest", meeting_ingest)
        replies = []

        def first_ingest(n, seed):
            replies.append(ingest_points(registry, "new", n, seed=seed))

        threads = [threading.Thread(target=first_ingest, args=(n, s))
                   for s, n in enumerate((100, 150))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        # the stream's first reply counts its own batch, the other both
        assert all(r["ok"] for r in replies)
        assert sorted(r["n"] for r in replies) in ([100, 250], [150, 250])
        stats = handle_request(registry, {"op": "query", "stream_id": "new",
                                          "kind": "stats"})
        assert stats["n"] == 250

    def test_rho_follows_the_penalty(self):
        # identity penalty: zeta = 0, so rho = n^(-1/3) at h = 1/3
        for penalty, zeta in (("identity", 0.0), ("roughness", 4.0)):
            registry = StreamRegistry(ServiceConfig(penalty=penalty))
            ingest_points(registry, "a", 1000)
            stats = handle_request(registry, {"op": "query", "stream_id": "a",
                                              "kind": "stats"})
            assert stats["rho"] == rho_at(1.0, 1 / 3, 1000, zeta)
            est = handle_request(registry, {"op": "query", "stream_id": "a",
                                            "kind": "estimate", "t": 0.3})
            reg = registry._engine("a")[0]
            assert est["value"] == reg.estimate(0.3, stats["rho"])

    def test_concurrent_ingest_is_consistent(self, registry):
        # "shared" is new, so the first batches race to enter the stream
        def worker(seed):
            ingest_points(registry, "shared", 200, seed=seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = handle_request(registry, {"op": "query", "stream_id": "shared",
                                          "kind": "stats"})
        assert stats["n"] == 1600


def nesting_depth(value):
    """Array or object nesting of a decoded JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return 1 + max(map(nesting_depth, value), default=0)
    return 0


# strings full of the characters the depth scan must see through
_tricky_text = st.text(alphabet='[]{}"\\a\u00e9\n', max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _tricky_text
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_tricky_text, kids, max_size=4),
    max_leaves=30)


class TestDecodeRequest:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(allow_nan=False,
                                              allow_infinity=False),
                                    st.floats(allow_nan=False,
                                              allow_infinity=False)),
                          min_size=1, max_size=20),
           fmt=st.sampled_from([repr, "%.17g".__mod__, "%.25g".__mod__]))
    def test_finite_doubles_decode_to_the_bits_json_gives(self, pairs, fmt):
        # so state, replies and checkpoints are those the stdlib decoder
        # gave; "%.25g" also writes integers past 2**64, which orjson
        # decodes as floats and json as ints
        points = ", ".join(f"[{fmt(t)}, {fmt(y)}]" for t, y in pairs)
        line = (f'{{"op": "ingest", "stream_id": "s", '
                f'"points": [{points}]}}\n').encode()
        got, want = decode_request(line), json.loads(line)
        assert got.keys() == want.keys()
        assert (got["op"], got["stream_id"]) == (want["op"], want["stream_id"])
        assert (np.asarray(got["points"], dtype=float).view(np.uint64)
                == np.asarray(want["points"], dtype=float).view(np.uint64)
                ).all()

    @settings(max_examples=300, deadline=None)
    @given(value=json_values, ensure_ascii=st.booleans())
    def test_depth_scan_counts_only_structure(self, value, ensure_ascii):
        line = json.dumps(value, ensure_ascii=ensure_ascii).encode()
        assert service._nesting_depth(line) == nesting_depth(value)

    def test_depth_limit(self):
        line = b"[" * MAX_DEPTH + b"]" * MAX_DEPTH
        value, depth = decode_request(line), 1
        while value:
            value, depth = value[0], depth + 1
        assert depth == MAX_DEPTH
        with pytest.raises(ValueError, match="nested deeper"):
            decode_request(b"[" + line + b"]")


class TestSocketService:
    def test_round_trip_over_tcp(self):
        server = StreamService(ServiceConfig(known_uniform_density=True))
        serve_background(server)
        try:
            host, port = server.server_address
            client = ServiceClient(host, port)
            resp = client.request(op="ingest", stream_id="s",
                                  points=[[0.1, 1.0], [0.9, 1.0]])
            assert resp == {"ok": True, "n": 2}
            stats = client.request(op="query", stream_id="s", kind="stats")
            assert stats["n"] == 2
            client.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_short_point_keeps_connection_alive(self):
        server = StreamService(ServiceConfig(known_uniform_density=True))
        serve_background(server)
        try:
            client = ServiceClient(*server.server_address)
            bad = client.request(op="ingest", stream_id="s", points=[[0.5]])
            assert (bad["ok"], bad["error"]) == (False, "request")
            good = client.request(op="ingest", stream_id="s",
                                  points=[[0.5, 1.0]])
            assert good == {"ok": True, "n": 1}
            client.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_non_object_line_keeps_connection_alive(self):
        server = StreamService(ServiceConfig(known_uniform_density=True))
        serve_background(server)
        try:
            with socket.create_connection(server.server_address) as sock:
                fh = sock.makefile("rwb")
                for line in (b"[1, 2]", b'"x"', b"1"):
                    fh.write(line + b"\n")
                    fh.flush()
                    resp = json.loads(fh.readline())
                    assert (resp["ok"], resp["error"]) == (False, "request")
                fh.write(b'{"op": "ingest", "stream_id": "s", '
                         b'"points": [[0.5, 1.0]]}\n')
                fh.flush()
                assert json.loads(fh.readline()) == {"ok": True, "n": 1}
        finally:
            server.shutdown()
            server.server_close()

    def test_long_line_keeps_connection_alive(self):
        server = StreamService(ServiceConfig(known_uniform_density=True))
        serve_background(server)
        ingest = b'{"op": "ingest", "stream_id": "s", "points": [[0.5, 1.0]]}'
        # a valid request padded past the limit, and one just within it
        too_long = ingest[:-1] + b" " * (MAX_LINE_BYTES + 1 - len(ingest)) \
            + b"}"
        longest = ingest[:-1] + b" " * (MAX_LINE_BYTES - len(ingest)) + b"}"
        assert (len(too_long), len(longest)) == (MAX_LINE_BYTES + 1,
                                                 MAX_LINE_BYTES)
        try:
            with socket.create_connection(server.server_address) as sock:
                fh = sock.makefile("rwb")
                for line, n in ((too_long, None), (ingest, 1),
                                (too_long * 3, None), (longest, 2),
                                (b"\xff\xfe", None), (ingest, 3)):
                    fh.write(line + b"\n")
                    fh.flush()
                    resp = json.loads(fh.readline())
                    if n is None:
                        assert (resp["ok"], resp["error"]) == (False,
                                                               "request")
                    else:
                        assert resp == {"ok": True, "n": n}
        finally:
            server.shutdown()
            server.server_close()

    def test_density_follows_ingest_over_tcp(self):
        server = StreamService(ServiceConfig())
        serve_background(server)
        rng = np.random.default_rng(21)
        try:
            client = ServiceClient(*server.server_address)
            fresh_batches = []
            # skewed data, so the sketch is clipped and the normalizer moves
            for size in (300, 700):
                ts = rng.beta(2, 3, size)
                client.request(op="ingest", stream_id="s",
                               points=np.c_[ts, np.sin(ts)].tolist())
                fresh_batches.append(ts)
                resp = client.request(op="query", stream_id="s",
                                      kind="density", t=0.3)
                fresh = OnePassRegressor(BasisSpec(0.0, 1.0),
                                         PenaltySpec("roughness"),
                                         SchedulerConfig())
                for batch in fresh_batches:
                    fresh.ingest(batch, np.sin(batch))
                assert resp == {"ok": True, "value": fresh.density_at(0.3)}
            client.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_stats_report_the_density_certificate(self):
        rng = np.random.default_rng(22)
        draws = {"uniform": lambda: rng.uniform(0, 1, 1000),
                 "beta": lambda: rng.beta(2, 3, 1000)}
        for known, want in ((False, {"uniform": True, "beta": False}),
                            (True, {"uniform": None, "beta": None})):
            server = StreamService(ServiceConfig(known_uniform_density=known))
            serve_background(server)
            try:
                client = ServiceClient(*server.server_address)
                for stream, draw in draws.items():
                    for _ in range(10):
                        ts = draw()
                        client.request(op="ingest", stream_id=stream,
                                       points=np.c_[ts, np.sin(ts)].tolist())
                    stats = client.request(op="query", stream_id=stream,
                                           kind="stats")
                    assert stats["n"] == 10_000
                    assert stats["density_certified"] is want[stream]
                client.close()
            finally:
                server.shutdown()
                server.server_close()

    def test_non_finite_reply_is_an_error(self, monkeypatch):
        # no input is known to make an estimate non-finite, so one is
        # injected; bare NaN is not JSON, so the reply names the error
        monkeypatch.setattr(OnePassRegressor, "estimate",
                            lambda self, t, rho: float("nan"))
        server = StreamService(ServiceConfig(known_uniform_density=True))
        serve_background(server)
        try:
            with socket.create_connection(server.server_address) as sock:
                fh = sock.makefile("rwb")
                for request in (
                        {"op": "ingest", "stream_id": "s",
                         "points": [[0.5, 1.0]]},
                        {"op": "query", "stream_id": "s",
                         "kind": "estimate", "t": 0.5},
                        {"op": "query", "stream_id": "s", "kind": "stats"}):
                    fh.write((json.dumps(request) + "\n").encode())
                    fh.flush()
                ingest, estimate, stats = (fh.readline() for _ in range(3))
            assert json.loads(ingest) == {"ok": True, "n": 1}
            reply = json.loads(estimate, parse_constant=pytest.fail)
            assert (reply["ok"], reply["error"]) == (False, "non_finite")
            assert json.loads(stats)["n"] == 1
        finally:
            server.shutdown()
            server.server_close()

    def test_stream_id_is_a_string_or_an_integer(self):
        server = StreamService(ServiceConfig(known_uniform_density=True))
        serve_background(server)
        ingest = b'{"op": "ingest", "stream_id": %s, "points": [[0.5, 1.0]]}'
        stats = b'{"op": "query", "stream_id": %s, "kind": "stats"}'
        try:
            with socket.create_connection(server.server_address) as sock:
                fh = sock.makefile("rwb")

                def send(line):
                    fh.write(line + b"\n")
                    fh.flush()
                    return json.loads(fh.readline())

                # 2**64 and 2**64 + 1 decode to one float, so they would
                # share a stream
                for bad in (b"true", b"1.5", b"null", b"[1]",
                            b"18446744073709551616", b"18446744073709551617"):
                    for line in (ingest % bad, stats % bad):
                        resp = send(line)
                        assert (resp["ok"], resp["error"]) == (False,
                                                               "request")
                assert server.registry._streams == {}
                good = (b"0", b"1023", b"-9223372036854775808",
                        b"18446744073709551615", b'"1"')
                for sid in good:
                    assert send(ingest % sid) == {"ok": True, "n": 1}
                    assert send(stats % sid)["n"] == 1
                assert set(server.registry._streams) == {
                    0, 1023, -2 ** 63, 2 ** 64 - 1, "1"}
        finally:
            server.shutdown()
            server.server_close()

    def test_non_strict_json_is_a_request_error(self):
        server = StreamService(ServiceConfig())
        serve_background(server)
        ingest = b'{"op": "ingest", "stream_id": "s", "points": [[0.5, %s]]}'
        # past MAX_DEPTH, and deep enough that decoding it would exhaust the
        # handler thread's stack
        deep = b"[" * 300_000 + b"]" * 300_000
        try:
            with socket.create_connection(server.server_address) as sock:
                fh = sock.makefile("rwb")

                def send(line):
                    fh.write(line + b"\n")
                    fh.flush()
                    return json.loads(fh.readline())

                assert send(ingest % b"1.0") == {"ok": True, "n": 1}
                reg = server.registry._engine("s")[0]
                before = reg.checkpoint_json()
                for line in (ingest % b"NaN", ingest % b"Infinity",
                             ingest % b"-Infinity", ingest % b"1e400",
                             b'{"op": "ingest", "stream_id": "\\ud800", '
                             b'"points": [[0.5, 1.0]]}',
                             ingest % deep):
                    resp = send(line)
                    assert (resp["ok"], resp["error"]) == (False, "request")
                    assert resp["message"].startswith("bad JSON"), line[:80]
                    assert reg.checkpoint_json() == before
                # nested as deep as a request may be, a value is refused
                # like any other bad field
                op = b"[" * (MAX_DEPTH - 1) + b"]" * (MAX_DEPTH - 1)
                resp = send(b'{"op": %s}' % op)
                assert (resp["ok"], resp["error"]) == (False, "request")
                assert resp["message"].startswith("unknown op")
                # so is such a kind on a query that lacks t
                resp = send(b'{"op": "query", "stream_id": "s", "kind": %s}'
                            % op)
                assert (resp["ok"], resp["error"]) == (False, "request")
                assert "requires t" in resp["message"]
                assert set(server.registry._streams) == {"s"}
                assert send(ingest % b"2.0") == {"ok": True, "n": 2}
        finally:
            server.shutdown()
            server.server_close()

    def test_blank_lines_get_no_reply(self):
        server = StreamService(ServiceConfig(known_uniform_density=True))
        serve_background(server)
        try:
            with socket.create_connection(server.server_address) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"\n  \t\n\r\n" + b'{"op": "ingest", "stream_id": '
                         b'"s", "points": [[0.5, 1.0]]}\n')
                fh.flush()
                # the first reply is the ingest's
                assert json.loads(fh.readline()) == {"ok": True, "n": 1}
        finally:
            server.shutdown()
            server.server_close()

    def test_malformed_line_reports_error(self):
        server = StreamService(ServiceConfig())
        serve_background(server)
        try:
            host, port = server.server_address
            with socket.create_connection((host, port)) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"this is not json\n")
                fh.flush()
                resp = json.loads(fh.readline())
            assert resp["ok"] is False and resp["error"] == "request"
        finally:
            server.shutdown()
            server.server_close()


def write_stream_csv(path, n=600, seed=0):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0, 1, n)
    ys = np.sin(2 * np.pi * ts) + rng.normal(0, 0.1, n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, y in zip(ts, ys):
            writer.writerow([repr(float(t)), repr(float(y))])
    return ts, ys


class TestCli:
    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["simulate", "--target", "m9"]) == 2
        capsys.readouterr()

    def test_ingest_query_pipeline(self, tmp_path, capsys):
        data = tmp_path / "stream.csv"
        ckpt = tmp_path / "state.json"
        out = tmp_path / "fit.csv"
        write_stream_csv(data)
        assert main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt)]) == 0
        assert json.loads(ckpt.read_text())["n"] == 600
        assert main(["query", "--checkpoint", str(ckpt), "--grid", "11",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert all(np.isfinite(float(r["estimate"])) for r in rows)
        capsys.readouterr()

    def test_query_rho_follows_the_penalty(self, tmp_path, capsys):
        data, ckpt, out = (tmp_path / name
                           for name in ("s.csv", "c.json", "q.csv"))
        write_stream_csv(data, n=1000)
        assert main(["ingest-csv", "--input", str(data), "--checkpoint",
                     str(ckpt), "--penalty", "identity"]) == 0
        assert main(["query", "--checkpoint", str(ckpt), "--grid", "11",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [float(r["estimate"]) for r in csv.DictReader(fh)]
        reg = OnePassRegressor.from_checkpoint(ckpt.read_text())
        rho = rho_at(1.0, 1 / 3, 1000, 0.0)
        assert rows == reg.estimate(np.linspace(0.0, 1.0, 11), rho).tolist()
        capsys.readouterr()

    def test_default_ingest_stays_solvable(self, tmp_path, capsys):
        # past n = 2e4 the active q passes 50, where an extended basis
        # makes the penalized system singular; the default margin is 0
        data, ckpt, out = (tmp_path / name
                           for name in ("s.csv", "c.json", "q.csv"))
        write_stream_csv(data, n=20_000)
        assert main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt)]) == 0
        assert main(["query", "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        assert all(np.isfinite(float(r["estimate"])) for r in rows)
        capsys.readouterr()

    def test_engine_flags_default_to_service_config(self):
        parser = cli.build_parser()
        for argv in (["serve"], ["ingest-csv", "--input", "in.csv",
                                 "--checkpoint", "out.json"]):
            assert cli._engine_config(parser.parse_args(argv)) \
                == ServiceConfig()

    def test_query_density_of_sketch(self, tmp_path, capsys):
        data, ckpt, out = (tmp_path / name
                           for name in ("s.csv", "c.json", "d.csv"))
        write_stream_csv(data)
        main(["ingest-csv", "--input", str(data), "--checkpoint", str(ckpt)])
        assert main(["query", "--checkpoint", str(ckpt), "--kind", "density",
                     "--grid", "11", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [float(r["density"]) for r in csv.DictReader(fh)]
        reg = OnePassRegressor.from_checkpoint(ckpt.read_text())
        assert rows == reg.density.evaluate_normalized(
            np.linspace(0.0, 1.0, 11)).tolist()
        capsys.readouterr()

    def test_query_density_known_uniform(self, tmp_path, capsys):
        ckpt, out = tmp_path / "c.json", tmp_path / "d.csv"
        reg = OnePassRegressor(BasisSpec(-1.0, 3.0), PenaltySpec("roughness"),
                               SchedulerConfig(), known_uniform_density=True)
        reg.ingest(np.linspace(-1.0, 3.0, 50), np.ones(50))
        ckpt.write_text(reg.checkpoint_json())
        assert main(["query", "--checkpoint", str(ckpt), "--kind", "density",
                     "--grid", "7", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [float(r["density"]) for r in csv.DictReader(fh)]
        assert rows == [0.25] * 7
        capsys.readouterr()

    def test_query_output_is_deterministic(self, tmp_path, capsys):
        data = tmp_path / "stream.csv"
        ckpt = tmp_path / "state.json"
        write_stream_csv(data)
        main(["ingest-csv", "--input", str(data), "--checkpoint", str(ckpt)])
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["query", "--checkpoint", str(ckpt), "--out", str(out1)])
        main(["query", "--checkpoint", str(ckpt), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_resume_matches_single_pass(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        ts = rng.uniform(0, 1, 400)
        ys = ts ** 2

        def dump(path, idx):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t", "y"])
                for i in idx:
                    w.writerow([repr(float(ts[i])), repr(float(ys[i]))])

        full_csv, a_csv, b_csv = (tmp_path / f"{s}.csv" for s in "fab")
        dump(full_csv, range(400))
        dump(a_csv, range(200))
        dump(b_csv, range(200, 400))
        full_ck, part_ck = tmp_path / "full.json", tmp_path / "part.json"
        main(["ingest-csv", "--input", str(full_csv),
              "--checkpoint", str(full_ck)])
        main(["ingest-csv", "--input", str(a_csv),
              "--checkpoint", str(part_ck)])
        main(["ingest-csv", "--input", str(b_csv), "--resume", str(part_ck),
              "--checkpoint", str(part_ck)])
        assert full_ck.read_text() == part_ck.read_text()
        capsys.readouterr()

    @pytest.mark.parametrize("fault", ["write", "replace"])
    def test_a_failed_checkpoint_write_keeps_the_previous_file(
            self, tmp_path, capsys, monkeypatch, fault):
        # --resume and --checkpoint name one file: a write that raises
        # must leave the checkpoint the run resumed from byte for byte,
        # and no partial file beside it
        data, ckpt = tmp_path / "s.csv", tmp_path / "c.json"
        write_stream_csv(data, n=50)
        assert main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt)]) == 0
        before, listing = ckpt.read_bytes(), sorted(os.listdir(tmp_path))
        resume = ["ingest-csv", "--input", str(data), "--resume", str(ckpt),
                  "--checkpoint", str(ckpt)]
        capsys.readouterr()
        if fault == "write":
            # a lone surrogate cannot be encoded, so the write itself raises
            text = OnePassRegressor.checkpoint_json
            monkeypatch.setattr(OnePassRegressor, "checkpoint_json",
                                lambda reg: text(reg)[:40] + "\udc80")
            with pytest.raises(UnicodeEncodeError):
                main(resume)
        else:
            def refuse(src, dst):
                raise OSError("no space left")
            # an OSError is reported as for a file that cannot be opened
            monkeypatch.setattr(cli.os, "replace", refuse)
            assert main(resume) == 1
            assert capsys.readouterr().err == "error: no space left\n"
        assert ckpt.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == listing
        monkeypatch.undo()
        assert main(resume) == 0
        assert json.loads(ckpt.read_text())["n"] == 100
        assert sorted(os.listdir(tmp_path)) == listing
        capsys.readouterr()

    def test_resume_rejects_engine_flags(self, tmp_path, capsys):
        # a resumed stream keeps the checkpoint's configuration, so a flag
        # that would change it is an error, not silently dropped
        data, ckpt = tmp_path / "s.csv", tmp_path / "c.json"
        write_stream_csv(data, n=50)
        assert main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt)]) == 0
        before = ckpt.read_text()
        capsys.readouterr()
        for flags in (["--penalty", "identity", "--margin", "0.1",
                       "--batch-size", "7"], ["--lo", "0.0"],
                      ["--mem-cap", "30"]):
            assert main(["ingest-csv", "--input", str(data), "--resume",
                         str(ckpt), "--checkpoint", str(ckpt), *flags]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and flags[0] in err
            assert ckpt.read_text() == before
        assert main(["ingest-csv", "--input", str(data), "--resume",
                     str(ckpt), "--checkpoint", str(ckpt)]) == 0
        assert json.loads(ckpt.read_text())["n"] == 100
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value, field", [
        ("--h", "2", "h"), ("--margin", "nan", "extension_margin"),
        ("--lo", "inf", "lo"), ("--batch-size", "0", "batch_size")])
    def test_invalid_engine_flag_is_an_error(self, tmp_path, capsys, flag,
                                             value, field):
        data, ckpt = tmp_path / "s.csv", tmp_path / "c.json"
        write_stream_csv(data, n=50)
        code = main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt), flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must ")
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lo", "1", "--hi", "0"], "domain requires lo < hi"),
        (["--lo", "0.5", "--hi", "0.5"], "domain requires lo < hi"),
        (["--margin", "-0.1"], "extension_margin must be >= 0"),
        # phi_1's uniform Gram, 1/P, lies below the floor
        (["--margin", "1e8"], "extension_margin 100000000.0 leaves no "
                              "identifiable basis function")])
    def test_engine_flags_out_of_range_are_errors(self, tmp_path, capsys,
                                                  flags, message):
        data, ckpt = tmp_path / "s.csv", tmp_path / "c.json"
        write_stream_csv(data, n=50)
        assert main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ckpt.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{missing}"],
        ["ingest-csv", "--input", "{missing}", "--checkpoint", "{out}"],
        ["ingest-csv", "--input", "{data}", "--resume", "{missing}",
         "--checkpoint", "{out}"],
        ["query", "--checkpoint", "{missing}", "--out", "{out}"]])
    def test_a_missing_file_is_an_error(self, tmp_path, capsys, argv):
        data, missing, out = (tmp_path / name
                              for name in ("s.csv", "missing", "out"))
        write_stream_csv(data, n=50)
        names = {"data": data, "missing": missing, "out": out}
        assert main([arg.format(**names) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert str(missing) in err and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--snr", "0"], "snr > 0"),
        (["simulate", "--checkpoints", "50"], "batch boundaries"),
        (["rate", "--checkpoints", "100", "1000"], "2 decades"),
        (["phase", "--checkpoints", "200000"], "<= n"),
        (["tune", "--n0", "1"], "at least J"),
        (["protocol", "--trials", "0"], "trials must be >= 1"),
        (["protocol", "--k", "0"], "k must be >= 1"),
        (["protocol", "--noise-sd", "-1"], "noise_sd must be"),
        (["protocol", "--noise-sd", "nan"], "noise_sd must be"),
        (["simulate", "--checkpoints", "0", "1000"],
         "checkpoints must be >= 1"),
        (["simulate", "--checkpoints", "-100", "1000"],
         "checkpoints must be >= 1"),
        (["simulate", "--target", "m1", "--n", "2000", "--replicates", "1",
          "--checkpoints", "1000", "1000"], "checkpoints must be distinct"),
        (["rate", "--checkpoints", "100", "100", "10000"],
         "3 distinct checkpoints"),
        *[(["rate", "--beta", beta], "beta must be a finite number > 0")
          for beta in ("0", "-0.5", "nan", "inf")],
        *[(["protocol", "--beta", beta], "beta must be a finite number > 0")
          for beta in ("inf", "nan")],
        (["protocol", "--c-K", "inf"], "c_K must be a finite number > 0")])
    def test_invalid_experiment_flag_is_an_error(self, tmp_path, capsys, argv,
                                                 message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--grid", "-1"], "--grid must be >= 1"),
        (["--grid", "0"], "--grid must be >= 1"),
        (["--rho", "-1"], "--rho must be a finite number >= 0"),
        (["--rho", "nan"], "--rho must be a finite number >= 0"),
        (["--rho", "inf"], "--rho must be a finite number >= 0")])
    def test_invalid_query_flag_is_an_error(self, tmp_path, capsys, flags,
                                            message):
        data, ckpt, out = (tmp_path / name
                           for name in ("s.csv", "c.json", "q.csv"))
        write_stream_csv(data, n=200)
        assert main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["query", "--checkpoint", str(ckpt), *flags,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_serve_takes_no_batch_size(self, monkeypatch, capsys):
        # the service folds the batch each request carries and writes no
        # checkpoint, so no stream would read the flag
        def bind(*args, **kwargs):
            raise AssertionError("serve bound a port")

        monkeypatch.setattr(cli, "StreamService", bind)
        assert main(["serve", "--batch-size", "7", "--port", "0"]) == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_serve_rejects_an_invalid_flag_before_binding(self, monkeypatch,
                                                          capsys):
        def bind(*args, **kwargs):
            raise AssertionError("serve bound a port")

        monkeypatch.setattr(cli, "StreamService", bind)
        assert main(["serve", "--h", "2", "--port", "0"]) == 1
        assert capsys.readouterr().err == "error: h must lie in (0, 1)\n"

    @pytest.mark.slow
    def test_serve_stops_on_sigint_when_started_ignoring_it(self):
        # a non-interactive shell starts a background job with SIGINT
        # ignored, and an ignored signal stays ignored across exec
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        launch = ("import os, signal, sys; "
                  "signal.signal(signal.SIGINT, signal.SIG_IGN); "
                  "os.execv(sys.executable, [sys.executable, '-m', "
                  "'streamreg.cli', 'serve', '--port', '0'])")
        # a SIGINT sent the moment the banner arrives must still stop the
        # server cleanly; repeat, since a race shows only now and then
        for _ in range(5):
            proc = subprocess.Popen([sys.executable, "-c", launch], env=env,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL)
            try:
                # the banner reaches a pipe without -u
                ready, _, _ = select.select([proc.stdout], [], [], 10)
                assert ready, "no banner within 10 s"
                assert proc.stdout.readline().startswith(b"serving on ")
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=10) == 0
            finally:
                proc.kill()
                proc.wait()
                proc.stdout.close()

    @pytest.mark.parametrize("row, message", [
        ("0.5,abc", "expected two numbers"), ("0.5", "expected two numbers"),
        ("0.5,1,2", "expected two numbers"), ("0.5,nan", "not finite"),
        ("0.5,-inf", "not finite"), ("1.5,1", "outside the domain"),
        ("nan,1", "outside the domain")])
    def test_bad_row_reports_its_line(self, tmp_path, capsys, row, message):
        data, ckpt = tmp_path / "s.csv", tmp_path / "c.json"
        data.write_text(f"t,y\n0.1,2.0\n\n{row}\n0.2,1.0\n")
        code = main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 4: ") and message in err
        assert not ckpt.exists()

    def test_overflowing_batch_reports_its_lines(self, tmp_path, capsys):
        data, ckpt = tmp_path / "s.csv", tmp_path / "c.json"
        data.write_text("t,y\n" + "0.5,1e308\n" * 3)
        code = main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: lines 2-4: ")
        assert not ckpt.exists()

    def test_bad_header_fails(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("x,y\n0.1,2.0\n")
        code = main(["ingest-csv", "--input", str(data),
                     "--checkpoint", str(tmp_path / "c.json")])
        assert code == 1
        capsys.readouterr()

    def test_protocol_command(self, tmp_path, capsys):
        out = tmp_path / "protocol.csv"
        code = main(["protocol", "--k", "2", "--n", "2000", "--trials", "2",
                     "--out", str(out)])
        assert code == 0
        assert "per-bit error rate" in capsys.readouterr().out
        assert out.exists()

    def test_tune_command(self, tmp_path, capsys):
        out = tmp_path / "tuning.csv"
        code = main(["tune", "--target", "m1", "--n", "1000",
                     "--n0", "500", "--out", str(out)])
        assert code == 0
        assert "selected C_rho" in capsys.readouterr().out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["selected"]) for r in rows) == 1

    def test_tune_reports_what_simulate_runs(self, tmp_path, capsys):
        # replicate 0's warm-up prefix, screened for deployment to n as
        # ``simulate`` screens it
        out = tmp_path / "tuning.csv"
        assert main(["tune", "--target", "m1", "--seed", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(
            "selected C_rho=1, h=0.25 ")
        with open(out) as fh:
            chosen = [r for r in csv.DictReader(fh) if r["selected"] == "1"]
        sc = Scenario(target="m1", seed=0)
        spec = BasisSpec(0.0, 1.0, harness.EXTENSION_MARGINS["m1"])
        ts, ys = harness._replicate_data(sc, 0)
        pick = cv_select(cv_table(ts[:1000], ys[:1000], TuningGrid(),
                                  harness.PENALTY, spec),
                         spec, sc.n, None)
        assert [{k: float(v) for k, v in r.items() if k != "selected"}
                for r in chosen] == [{**{k: pick[k] for k in
                                         ("C_rho", "h", "rho", "cv", "se")},
                                      "deployable": 1.0}]

    def test_tune_report_shows_why_the_pick_won(self, tmp_path, capsys):
        # from the file alone: every row with a lower cv than the pick is
        # screened out for deployment to n, or lies in the one-standard-
        # error band of the best deployable row but is less regularized;
        # the pick is the most regularized row of that band
        out = tmp_path / "tuning.csv"
        assert main(["tune", "--target", "m1", "--seed", "0",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = [{k: float(v) for k, v in r.items()}
                    for r in csv.DictReader(fh)]
        chosen, = [r for r in rows if r["selected"]]
        ok = [r for r in rows if r["deployable"] and np.isfinite(r["cv"])]
        best = min(ok, key=lambda r: (r["cv"], -r["rho"], r["h"]))
        band = [r for r in ok if r["cv"] <= best["cv"] + best["se"]]

        def regularization(r):
            return r["rho"], -r["h"]

        assert chosen is max(band, key=regularization)
        lower = [r for r in rows if r["cv"] < chosen["cv"]]
        assert any(not r["deployable"] for r in lower)
        assert any(r["deployable"] for r in lower)
        for r in lower:
            assert not r["deployable"] or (
                r in band and regularization(r) < regularization(chosen))

    def test_rate_command(self, tmp_path, capsys):
        # m3 has no extension margin, so h = 1/3 deploys to n = 2e4
        out = tmp_path / "rate.csv"
        code = main(["rate", "--target", "m3", "--n", "20000",
                     "--replicates", "1", "--checkpoints", "200", "2000",
                     "20000", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("log-log RMISE slope ")
        assert printed.endswith(", 0 failed replicates\n")
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [200, 2000, 20000]
        assert all(np.isfinite(float(r["rmise"])) for r in rows)

    def test_rate_skips_the_slope_when_rmise_is_zero(self, tmp_path, capsys,
                                                     monkeypatch):
        def exact(sc, checkpoints, **kwargs):
            report = harness.ExperimentReport()
            for n in checkpoints:
                report.add(n=n, rmise=0.0)
            return report

        monkeypatch.setattr(harness, "run_experiment", exact)
        out = tmp_path / "rate.csv"
        assert main(["rate", "--checkpoints", "100", "1000", "10000",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "slope test skipped: RMISE numerically zero, 0 failed "
            "replicates\n")
        assert out.exists()

    def test_rate_without_an_rmise_is_an_error(self, tmp_path, capsys):
        # at margin 0.1 the deployment screen refuses h = 1/3 once q passes
        # the identifiable count (q = 43 at n = 1e4), so every replicate
        # fails and no slope exists
        out = tmp_path / "rate.csv"
        assert main(["rate", "--target", "m1", "--n", "10000",
                     "--replicates", "1", "--checkpoints", "100", "1000",
                     "10000", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 1 of 1 replicates failed, leaving no RMISE to fit a "
            "slope to at n = 100, 1000, 10000\n")
        assert not out.exists()

    def test_rate_reports_failed_replicates(self, tmp_path, capsys,
                                            monkeypatch):
        # the first replicate's tuning fails; the second one's slope stands
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise TuningError("no feasible tuning")
            return cv_select(*args, **kwargs)

        monkeypatch.setattr(harness, "cv_select", first_fails)
        out = tmp_path / "rate.csv"
        assert main(["rate", "--target", "m3", "--n", "10000",
                     "--replicates", "2", "--checkpoints", "100", "1000",
                     "10000", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("log-log RMISE slope ")
        assert printed.endswith(", 1 failed replicates\n")
        assert len(calls) == 2

    def test_phase_command(self, tmp_path, capsys):
        out = tmp_path / "phase.csv"
        code = main(["phase", "--target", "m1", "--n", "20000",
                     "--replicates", "1", "--checkpoints", "2000", "20000",
                     "--mem-caps", "30", "0", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out} (4 rows)\n"
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["streaming_cap30"] * 2 \
            + ["streaming_uncapped"] * 2

    def test_config_file_matches_the_flags(self, tmp_path, capsys):
        config = tmp_path / "scenario.txt"
        config.write_text("# tuning scenario\ntarget = m2\nn = 800\n"
                          "snr = 4.0\nseed = 3  # not the default\n")
        outs = [tmp_path / f"{name}.csv" for name in ("config", "flags",
                                                      "defaults")]
        for out, flags in zip(outs, (
                ["--config", str(config)],
                ["--target", "m2", "--n", "800", "--snr", "4", "--seed", "3"],
                [])):
            assert main(["tune", "--n0", "500", *flags,
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() != outs[2].read_bytes()
        capsys.readouterr()

    def test_config_file_with_a_repeated_key_is_refused(self, tmp_path,
                                                        capsys):
        config = tmp_path / "scenario.txt"
        config.write_text("n = 1000\nn = 2000\n")
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(config), "--checkpoints",
                     "1000", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: repeated scenario key 'n'\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--n", "500", "--target", "m3"], "--target, --n"),
        # a flag at its default value is given all the same
        (["--seed", "0"], "--seed"),
        (["--batch-size", "100", "--snr", "2", "--replicates", "1"],
         "--batch-size, --snr, --replicates"),
    ])
    def test_config_file_refuses_scenario_flags_beside_it(self, tmp_path,
                                                          capsys, flags,
                                                          named):
        config = tmp_path / "scenario.txt"
        config.write_text("target = m1\nn = 1000\nreplicates = 1\n")
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(config), *flags,
                     "--checkpoints", "1000", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {named} cannot be combined with --config: the file "
            f"sets the scenario\n")
        assert not out.exists()

    def test_simulate_command(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["simulate", "--target", "m1", "--n", "1000",
                     "--replicates", "2", "--checkpoints", "1000",
                     "--out", str(out)])
        assert code == 0
        assert out.exists() and (tmp_path / "report.csv.gp").exists()
        capsys.readouterr()
