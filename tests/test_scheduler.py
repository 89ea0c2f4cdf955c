import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamreg.basis import BasisSpec, PenaltySpec, eval_matrix
from streamreg.engine import OnePassRegressor
from streamreg.scheduler import NEVER, SchedulerConfig, _floor

UNIT = BasisSpec(0.0, 1.0)


class TestFloor:
    def test_guards_against_representation_error(self):
        # 1000 ** (1/3) evaluates just below 10 in floating point; the floor
        # used throughout the schedule must still land on 10
        assert 1000 ** (1 / 3) < 10
        assert _floor(1000 ** (1 / 3)) == 10

    def test_plain_values(self):
        assert _floor(2.9999) == 2
        assert _floor(3.0) == 3


class TestSchedule:
    def test_default_arrival_thresholds(self):
        sched = SchedulerConfig()
        # S(j) = floor((j/2)^3) at h = 1/3: S(2) = 1, S(4) = 8, S(10) = 125
        assert [sched.S(j) for j in (2, 4, 10)] == [1, 8, 125]
        # early slots all start at observation 1
        assert [sched.tau(j) for j in range(1, 6)] == [1, 1, 1, 1, 1]
        assert sched.tau(10) == 62

    def test_tau_never_decreases(self):
        sched = SchedulerConfig(h=0.25)
        taus = [sched.tau(j) for j in range(1, 200)]
        assert all(a <= b for a, b in zip(taus, taus[1:]))

    def test_active_count_examples(self):
        sched = SchedulerConfig()
        assert sched.active_count(1000) == 20
        assert sched.active_count(1) == 5
        assert SchedulerConfig(h=0.5).active_count(10_000) == 200

    def test_slot_count_exceeds_active_count(self):
        sched = SchedulerConfig()
        for n in (10, 1000, 50_000):
            assert sched.slot_count(n) >= sched.active_count(n)

    def test_slot_count_is_minimal(self):
        # only slots whose start time has arrived are open
        sched = SchedulerConfig()
        for n in (1, 100, 5000):
            m = sched.slot_count(n)
            assert sched.tau(m) <= n
            assert sched.tau(m + 1) > n or m == sched.cap_q

    def test_memory_cap_limits_slots(self):
        sched = SchedulerConfig(mem_cap=30)
        assert sched.active_count(10 ** 9) == 10
        assert sched.slot_count(10 ** 9) == 10

    def test_fixed_q_overrides_growth(self):
        sched = SchedulerConfig(fixed_q=3)
        assert sched.active_count(10 ** 6) == 3
        assert sched.slot_count(10 ** 6) == 3
        assert sched.tau(2) == 1

    def test_growth_rate_tracks_n_to_the_h(self):
        sched = SchedulerConfig(h=1 / 3)
        for n in (10 ** 3, 10 ** 6, 10 ** 9):
            assert sched.active_count(n) == math.floor(n ** (1 / 3) / 0.5 + 1e-9)

    def test_slot_past_int64_never_opens(self):
        # a slot whose activation time overflows a float (h = 0.001) or
        # passes 2**63 (h = 1/2 near n = 2**63) never opens
        for h, n, last in ((0.001, 10, 5), (0.001, 2 ** 63 - 1, 5),
                           (0.5, 2 ** 63 - 1, 6074000999)):
            sched = SchedulerConfig(h=h)
            assert sched.slot_count(n) == last
            assert sched.tau(last) <= n < sched.tau(last + 1) == NEVER

    def test_invalid_parameters_rejected(self):
        for kwargs in (dict(h=0.0), dict(h=1.5), dict(C_q=0.0),
                       dict(c_circ=-1.0), dict(q0=0), dict(mem_cap=0),
                       dict(fixed_q=0)):
            with pytest.raises(ValueError):
                SchedulerConfig(**kwargs)


class TauList:
    """The explicit tau list tau(1), ..., tau(length), built on access."""

    def __init__(self, sched, length):
        self.sched, self.length = sched, length

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        return self.sched.tau(i + 1)


def slot_count_oracle(sched, taus, n):
    """max{j >= q0 : tau(j) <= n} from a tau list, capped."""
    j = max(sched.q0, bisect.bisect_right(taus, n))
    return j if sched.cap_q is None else min(j, sched.cap_q)


class TestSlotCountClosedForm:
    CONFIGS = list(itertools.product(
        (1 / 3, 0.4, 0.5), (None, 5, 30), ((0.5, 0.5, 5), (0.3, 0.8, 2))))

    @pytest.mark.parametrize("h, mem_cap, shape", CONFIGS)
    def test_agrees_with_tau_list(self, h, mem_cap, shape):
        C_q, c_circ, q0 = shape
        sched = SchedulerConfig(h=h, C_q=C_q, c_circ=c_circ, q0=q0,
                                mem_cap=mem_cap)
        taus = []
        while not taus or taus[-1] <= 2_000_000:
            taus.append(sched.tau(len(taus) + 1))
        # every n up to 2e4, and both sides of every step up to 2e6
        ns = set(range(20_001))
        ns.update(n for tau in taus for n in (tau - 1, tau, tau + 1))
        for n in sorted(ns):
            assert sched.slot_count(n) == slot_count_oracle(sched, taus, n), n
        # sampled n up to 1e15, at random points and on both sides of steps
        lazy = TauList(sched, 10 ** 10)
        rng = np.random.default_rng(0)
        ns = [int(n) for n in 10.0 ** rng.uniform(6.3, 15, 100)]
        steps = [bisect.bisect_right(lazy, n) for n in ns[:30]]
        ns += [sched.tau(j) + d for j in steps for d in (-1, 0)]
        for n in ns:
            assert sched.slot_count(n) == slot_count_oracle(sched, lazy, n), n


def replay_ledger(sched, ts, ys):
    """One-shot replay of the slot ledger over the whole retained stream."""
    n = ts.size
    start = np.array([sched.tau(j) for j in range(1, sched.slot_count(n) + 1)])
    vals = eval_matrix(UNIT, start.size, ts)
    G = np.array([vals[s - 1:, j] @ ys[s - 1:] for j, s in enumerate(start)])
    theta = np.array([vals[s - 1:, j].sum() / (n - s + 1)
                      for j, s in enumerate(start)])
    return start, G, theta


def assert_close_relative(actual, expected, rel):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rel * scale


class TestLedger:
    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=12),
           mem_cap=st.sampled_from([None, 12, 30]),
           seed=st.integers(0, 2 ** 16))
    # one batch of 500 opens slots 6..20 strictly inside it
    @example(sizes=[500], mem_cap=None, seed=0)
    def test_batches_match_one_shot_replay(self, sizes, mem_cap, seed):
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0, 1, sum(sizes))
        ys = np.sin(5 * ts) + rng.normal(0, 0.3, ts.size)
        sched = SchedulerConfig(mem_cap=mem_cap)
        eng = OnePassRegressor(UNIT, PenaltySpec("roughness"), sched)
        edges = np.cumsum([0] + sizes)
        for lo, hi in zip(edges[:-1], edges[1:]):
            eng.ingest(ts[lo:hi], ys[lo:hi])
        start, G, theta = replay_ledger(sched, ts, ys)
        np.testing.assert_array_equal(eng.start, eng.density.start)
        np.testing.assert_array_equal(eng.start, start)
        assert_close_relative(eng.G, G, 1e-10)
        assert_close_relative(eng.density.theta, theta, 1e-10)
