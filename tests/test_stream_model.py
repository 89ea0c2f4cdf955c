"""A stream's whole life, driven by a hypothesis state machine.

The machine sends one stream interleaved requests through ``handle_request``:
accepted ingests of 1 to 300 points (so that slots open inside a batch),
refused ingests, ``estimate``, ``density`` and ``stats`` queries, and a
checkpoint that ``from_checkpoint`` reloads in place of the live engine.
Every request also goes to a twin registry whose engine is never reloaded.
The model is the count of accepted points and the ledger that
``oracles.ledger_step`` folds from the accepted calls.  After every step:

- n equals the model's count, and the start vector is the schedule's at n;
- G and theta are the model ledger's to the byte;
- ``memory_footprint()`` counts the reals of the checkpoint record;
- the reloaded engine's checkpoint is the twin's to the byte, and the two
  registries gave the same reply;
- a refused request left the checkpoint byte-identical, and a refused first
  ingest left no stream.
"""

import threading

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from oracles import ledger_step, sample
from streamreg.basis import BasisSpec, identifiable_count
from streamreg.engine import SCALAR_UNITS, OnePassRegressor
from streamreg.service import ServiceConfig, StreamRegistry, handle_request

SID = "s"

# Points that a stream must refuse, appended to a few valid ones: each
# request is refused as a whole.  Two y of 1e308 overflow phi_1's sum at
# every margin.
BAD_POINTS = {
    "t out of domain": [[1.5, 0.0]],
    "NaN y": [[0.5, float("nan")]],
    "overflowing y": [[0.5, 1e308], [0.5, 1e308]],
    "string": [["0.5", 1.0]],
    "bool": [[True, 1.0]],
    "ragged pair": [[0.5, 1.0], [0.25]],
}

# Reply fields an engine does not checkpoint, so a reloaded one starts over.
UNSAVED = ("last_solve", "coef_cache_hits")


def points(size, seed):
    """``size`` [t, y] pairs: uniform t and y = N(0, 1) noise."""
    return np.column_stack(sample(size, seed, np.zeros_like, 1.0)).tolist()


class StreamLife(RuleBasedStateMachine):
    @initialize(margin=st.sampled_from([0.0, 0.1]), sketch=st.booleans(),
                mem_cap=st.sampled_from([None, 30]),
                h=st.sampled_from([1 / 3, 0.4]))
    def configure(self, margin, sketch, mem_cap, h):
        config = ServiceConfig(extension_margin=margin, h=h, mem_cap=mem_cap,
                               known_uniform_density=not sketch)
        self.registry = StreamRegistry(config)
        self.twin = StreamRegistry(config)
        self.n = 0
        eng = config.engine()
        self.spaces = (eng.reg_basis, BasisSpec(config.lo, config.hi),
                       eng.schedule)
        self.model = (0, eng.start, eng.G, np.zeros(0) if sketch else None)

    def engine(self, registry):
        entry = registry._streams.get(SID)
        return None if entry is None else entry[0]

    def snapshot(self):
        reg = self.engine(self.registry)
        return None if reg is None else reg.checkpoint_json()

    def send(self, request):
        """The reply to ``request``, after checking that the twin gives the
        same one."""
        reply = handle_request(self.registry, request)
        twin = handle_request(self.twin, request)
        for key in UNSAVED:
            reply.pop(key, None)
            twin.pop(key, None)
        assert reply == twin
        return reply

    @rule(size=st.integers(1, 300), seed=st.integers(0, 2 ** 16))
    def ingest(self, size, seed):
        batch = points(size, seed)
        reply = self.send({"op": "ingest", "stream_id": SID,
                           "points": batch})
        self.n += size
        assert reply == {"ok": True, "n": self.n}
        self.model = ledger_step(*self.spaces, self.model,
                                 *np.array(batch).T)

    @rule(kind=st.sampled_from(sorted(BAD_POINTS) + ["empty list"]),
          size=st.integers(0, 5), seed=st.integers(0, 2 ** 16))
    def refused_ingest(self, kind, size, seed):
        batch = ([] if kind == "empty list"
                 else points(size, seed) + BAD_POINTS[kind])
        before = self.snapshot()
        reply = self.send({"op": "ingest", "stream_id": SID,
                           "points": batch})
        assert reply["ok"] is False
        assert reply["error"] in ("request", "validation")
        assert self.snapshot() == before

    @rule(kind=st.sampled_from(["estimate", "density"]),
          t=st.floats(0.0, 1.0))
    def query(self, kind, t):
        before = self.snapshot()
        reply = self.send({"op": "query", "stream_id": SID, "kind": kind,
                           "t": t})
        if before is None:
            assert reply["error"] == "not_found"
        assert self.snapshot() == before

    @rule()
    def stats(self):
        before = self.snapshot()
        reply = self.send({"op": "query", "stream_id": SID,
                           "kind": "stats"})
        assert self.snapshot() == before
        if before is None:
            assert reply["error"] == "not_found"
        else:
            assert (reply["n"], reply["memory_units"]) == (
                self.n, self.engine(self.registry).memory_footprint())

    @precondition(lambda self: self.n > 0)
    @rule()
    def reload(self):
        record = self.snapshot()
        restored = OnePassRegressor.from_checkpoint(record)
        assert restored.checkpoint_json() == record
        self.registry._streams[SID] = (restored, threading.Lock())

    @invariant()
    def ledger(self):
        reg = self.engine(self.registry)
        if reg is None:
            assert self.n == 0
            assert self.engine(self.twin) is None
            return
        assert reg.n == self.n
        start = reg.schedule.extend(np.zeros(0, dtype=np.int64), self.n,
                                    identifiable_count(reg.reg_basis))
        _, model_start, G, theta = self.model
        for got, want in [(reg.start, start), (reg.start, model_start),
                          (reg.G, G)] + ([] if theta is None else
                                         [(reg.density.theta, theta)]):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        record = reg.checkpoint()
        assert reg.memory_footprint() == SCALAR_UNITS + sum(
            len(record[key]) for key in ("G", "start", "theta",
                                         "theta_start"))
        assert reg.checkpoint_json() == \
            self.engine(self.twin).checkpoint_json()


TestStreamLife = StreamLife.TestCase
TestStreamLife.settings = settings(max_examples=30, stateful_step_count=25,
                                   deadline=None)
