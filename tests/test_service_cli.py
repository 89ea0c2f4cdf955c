import csv
import json
import socket
import threading

import numpy as np
import pytest

from streamreg.basis import BasisSpec, PenaltySpec
from streamreg.cli import main
from streamreg.engine import OnePassRegressor
from streamreg.scheduler import SchedulerConfig
from streamreg.service import (ServiceClient, ServiceConfig, StreamRegistry,
                               StreamService, handle_request)


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
        assert (missing["ok"], missing["error"]) == (False, "not_found")
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

    def test_non_finite_y_rejected(self, registry):
        ingest_points(registry, "a", 20)
        resp = handle_request(registry, {"op": "ingest", "stream_id": "a",
                                         "points": [[0.5, "nan"]]})
        assert (resp["ok"], resp["error"]) == (False, "request")
        stats = handle_request(registry, {"op": "query", "stream_id": "a",
                                          "kind": "stats"})
        assert stats["n"] == 20
        est = handle_request(registry, {"op": "query", "stream_id": "a",
                                        "kind": "estimate", "t": 0.5})
        assert est["ok"] and np.isfinite(est["value"])

    def test_overflowing_y_rejected(self):
        # finite y whose slot sums overflow must not reach G
        registry = StreamRegistry(ServiceConfig())
        ingest_points(registry, "a", 20)
        reg = registry._engine("a", create=False)[0]
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

    def test_concurrent_ingest_is_consistent(self, registry):
        def worker(seed):
            ingest_points(registry, "shared", 200, seed=seed)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = handle_request(registry, {"op": "query", "stream_id": "shared",
                                          "kind": "stats"})
        assert stats["n"] == 800


class TestSocketService:
    def test_round_trip_over_tcp(self):
        server = StreamService(ServiceConfig(known_uniform_density=True))
        server.serve_background()
        try:
            host, port = server.address
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
        server.serve_background()
        try:
            client = ServiceClient(*server.address)
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
        server.serve_background()
        try:
            with socket.create_connection(server.address) as sock:
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

    def test_density_follows_ingest_over_tcp(self):
        server = StreamService(ServiceConfig())
        server.serve_background()
        rng = np.random.default_rng(21)
        try:
            client = ServiceClient(*server.address)
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

    def test_malformed_line_reports_error(self):
        server = StreamService(ServiceConfig())
        server.serve_background()
        try:
            host, port = server.address
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

    def test_simulate_command(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["simulate", "--target", "m1", "--n", "1000",
                     "--replicates", "2", "--checkpoints", "1000",
                     "--out", str(out)])
        assert code == 0
        assert out.exists() and (tmp_path / "report.csv.gp").exists()
        capsys.readouterr()
