import bisect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fold as matrix_fold
from oracles import (UNIT, Tables, fold_scan, ledger_step, make_engine,
                     replay_ledger, sample)
from streamreg.basis import SPLIT_MIN, BasisSpec, eval_matrix
from streamreg.engine import OnePassRegressor
from streamreg.errors import CheckpointError
from streamreg.scheduler import (C_CIRC, C_Q, MAX_INITIAL_SLOTS, NEVER,
                                 SchedulerConfig, _floor, fold)
from streamreg.service import ServiceConfig
from streamreg.tuning import TuningGrid


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

    @pytest.mark.parametrize("at", [0, -1])
    def test_slot_index_and_n_start_at_one(self, at):
        sched = SchedulerConfig()
        with pytest.raises(ValueError, match="slot index must be >= 1"):
            sched.S(at)
        with pytest.raises(ValueError, match="n must be >= 1"):
            sched.active_count(at)

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

    def test_cap_at_q0_pins_the_slot_count(self):
        sched = SchedulerConfig(q0=3, mem_cap=9)
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
        for kwargs in (dict(h=0.0), dict(h=1.5), dict(q0=0), dict(mem_cap=0)):
            with pytest.raises(ValueError):
                SchedulerConfig(**kwargs)

    def test_float_counts_rejected_at_once(self):
        # a float q0 made the constructor's slot_count(1) step j + 1 == j
        # forever at 1e20
        for kwargs in (dict(q0=1e20), dict(q0=5.0), dict(mem_cap=30.0)):
            with pytest.raises(ValueError):
                SchedulerConfig(**kwargs)

    def test_h_is_bounded_where_the_slot_count_overflows(self):
        # about (2**63)^h / C_Q slots open by n = 2**63; past 2**53 a float
        # holds no exact slot index, which bounds h by 52/63 = 0.8254
        assert C_Q == C_CIRC == 0.5
        assert SchedulerConfig(h=0.825).slot_count(2 ** 63 - 1) < 2 ** 53
        # the schedule alone states the bound; the service's and the tuning
        # grid's constructors raise its message
        builds = (lambda h: SchedulerConfig(h=h), lambda h: ServiceConfig(h=h),
                  lambda h: TuningGrid(h_grid=(h,)))
        for build, h in itertools.product(builds, (0.826, 0.9, 0.99)):
            with pytest.raises(ValueError) as raised:
                build(h)
            assert str(raised.value) == (
                f"h must be at most 52/63 (about 0.8254), past which the "
                f"slot count overflows; got {h!r}")
        # outside (0, 1) the message is the plain range
        for h in (0.0, -0.5, 1.0, 2.0):
            with pytest.raises(ValueError, match=r"^h must lie in \(0, 1\)$"):
                SchedulerConfig(h=h)

    def test_initial_slots_are_bounded_by_q0(self):
        # with C_Q and C_CIRC fixed the schedule opens at most max(q0, 7)
        # slots at n = 1, so bounding q0 bounds them
        for h in [*np.linspace(1e-3, 0.825, 1000), 1 / 3, 0.825]:
            for q0 in (1, 2, 5, 7, 8, 100):
                sched = SchedulerConfig(h=float(h), q0=q0)
                assert sched.slot_count(1) <= max(q0, 7), (h, q0)

    def test_huge_initial_slot_count_rejected(self):
        # a huge q0 would make the first ingest build a tau list that long
        for kwargs in (dict(q0=10 ** 9), dict(q0=MAX_INITIAL_SLOTS + 1)):
            with pytest.raises(ValueError, match="q0 must lie in"):
                SchedulerConfig(**kwargs)
        assert SchedulerConfig(
            q0=MAX_INITIAL_SLOTS,
            mem_cap=3 * MAX_INITIAL_SLOTS).slot_count(1) == MAX_INITIAL_SLOTS

    def test_huge_initial_slot_count_checkpoint_rejected(self):
        record = make_engine(known=False).checkpoint()
        for key, value in (("C_q", 1e-9), ("q0", 10 ** 9),
                           ("fixed_q", 10 ** 9)):
            bad = json.loads(json.dumps(record))
            bad["config"][key] = value
            with pytest.raises(CheckpointError):
                OnePassRegressor.from_checkpoint(json.dumps(bad))

    def test_test_configs_stay_below_the_bound(self):
        # every config the suite builds passes the constructor; these are
        # the largest initial slot counts among them
        for h, mem_cap, shape in TestSlotCountClosedForm.CONFIGS:
            sched = SchedulerConfig(h=h, mem_cap=mem_cap, **shape)
            assert sched.slot_count(1) <= MAX_INITIAL_SLOTS


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
    return min(j, sched.cap_q)


class TestSlotCountClosedForm:
    CONFIGS = list(itertools.product(
        (1 / 3, 0.4, 0.5), (None, 5, 30), ({"q0": 5}, {"q0": 2})))

    @pytest.mark.parametrize("h, mem_cap, shape", CONFIGS)
    def test_agrees_with_tau_list(self, h, mem_cap, shape):
        sched = SchedulerConfig(h=h, mem_cap=mem_cap, **shape)
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


class TestExtend:
    @pytest.mark.parametrize("h, mem_cap, shape",
                             TestSlotCountClosedForm.CONFIGS)
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.one_of(st.integers(1, 3), st.integers(1, 200),
                                    st.integers(1, 200_000)),
                          min_size=1, max_size=20),
           limit=st.sampled_from([NEVER, 3, 39]))
    def test_incremental_equals_one_shot(self, h, mem_cap, shape, sizes,
                                         limit):
        # extend's early return (at the cap or the limit, or next slot past
        # n) must leave the same start vector as building it at once
        sched = SchedulerConfig(h=h, mem_cap=mem_cap, **shape)
        start = np.zeros(0, dtype=np.int64)
        n = 0
        for size in sizes:
            n += size
            start = sched.extend(start, n, limit)
            count = min(sched.slot_count(n), limit)
            one_shot = [sched.tau(j) for j in range(1, count + 1)]
            assert start.dtype == np.int64
            np.testing.assert_array_equal(start, one_shot)


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
        ts, ys = sample(sum(sizes), seed, lambda t: np.sin(5 * t), 0.3)
        eng = make_engine(known=False, mem_cap=mem_cap)
        edges = np.cumsum([0] + sizes)
        for lo, hi in zip(edges[:-1], edges[1:]):
            eng.ingest(ts[lo:hi], ys[lo:hi])
        start, G, theta = replay_ledger(UNIT, SchedulerConfig(mem_cap=mem_cap),
                                        ts, ys)
        record = eng.checkpoint()
        assert record["theta_start"] == record["start"]
        np.testing.assert_array_equal(eng.start, start)
        assert_close_relative(eng.G, G, 1e-10)
        assert_close_relative(eng.density.theta, theta, 1e-10)


class TestFold:
    # slot counts at the table boundaries: K = 0 (the row of ones alone),
    # the last K with one table and the first with two, and K = r^2 - 1,
    # r^2 where r steps
    BOUNDARY_S = (1, 2 * SPLIT_MIN - 1, 2 * SPLIT_MIN, 2 * SPLIT_MIN + 1,
                  48, 49, 50, 51, 2 * 99, 2 * 100 + 1)

    @settings(max_examples=200, deadline=None)
    @given(s=st.one_of(st.integers(1, 400), st.sampled_from(BOUNDARY_S)),
           m=st.integers(1, 1000), margin=st.sampled_from([0.0, 0.1]),
           unit_weight=st.booleans(), n_old=st.integers(0, 10 ** 6),
           opening=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
    @example(s=1, m=1, margin=0.0, unit_weight=False, n_old=0, opening=1.0,
             seed=0)
    @example(s=400, m=1000, margin=0.1, unit_weight=False, n_old=7,
             opening=0.5, seed=1)
    # the last slot starts on the batch's first point, so every sum is a
    # whole-batch sum, and one point later, so its sum alone is a tail
    @example(s=400, m=1000, margin=0.1, unit_weight=False, n_old=1000,
             opening=0.0, seed=1)
    @example(s=64, m=200, margin=0.0, unit_weight=False, n_old=1000,
             opening=0.02, seed=4)
    def test_matches_the_basis_matrix_fold(self, s, m, margin, unit_weight,
                                           n_old, opening, seed):
        # a share ``opening`` of the slots, slot 1 among them when all
        # open, opens somewhere inside the batch or after it; the rest
        # before it.  Sorted, as every start vector is.
        rng = np.random.default_rng(seed)
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        ts = rng.uniform(0.0, 1.0, m)
        w = np.ones(m) if unit_weight else \
            np.sin(6 * ts) + rng.normal(0.0, 0.3, m)
        start = np.sort(np.where(rng.uniform(size=s) < opening,
                                 n_old + 1 + rng.integers(0, m + 2, s),
                                 rng.integers(1, n_old + 2, s)).astype(np.int64))
        # unit weights (None) read the tables as they are, then w weights
        # them in place: each fold has the bits of its out-of-place oracle
        tables = Tables(spec, s, ts)
        unit, got = fold(spec, ts, (None, w), start, n_old)
        assert unit.tobytes() == \
            fold_scan(tables, np.ones(m), start, n_old).tobytes()
        assert got.tobytes() == fold_scan(tables, w, start, n_old).tobytes()
        want = matrix_fold(eval_matrix(spec, s, ts), w, start, n_old)
        assert got.shape == (s,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLeanLedger:
    """The engine's fold (the suffix of mid-batch slots found by bisection)
    and sketch update (no clamps when no slot opens) against ``fold_scan``
    and ``update_theta``, byte for byte after every batch."""

    @staticmethod
    def mid_batch_openings(sizes, margin, sketch, mem_cap, seed, h=1 / 3):
        """Run both ledgers over batches of ``sizes``; return the most
        slots one batch opened strictly inside it."""
        rng = np.random.default_rng(seed)
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        sched = SchedulerConfig(h=h, mem_cap=mem_cap)
        eng = make_engine(known=not sketch, spec=spec, h=h, mem_cap=mem_cap)
        state = (0, np.zeros(0, dtype=np.int64), np.zeros(0),
                 np.zeros(0) if sketch else None)
        most = 0
        for size in sizes:
            ts = rng.uniform(0.0, 1.0, size)
            ys = np.sin(5 * ts) + rng.normal(0.0, 0.3, size)
            n_old = eng.n
            eng.ingest(ts, ys)
            state = ledger_step(spec, UNIT, sched, state, ts, ys)
            n, start, G, theta = state
            assert eng.n == n
            for got, want in ((eng.start, start), (eng.G, G)) + (
                    ((eng.density.theta, theta),) if sketch else ()):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            most = max(most, int(np.count_nonzero(start > n_old + 1)))
        return most

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=15),
           margin=st.sampled_from([0.0, 0.1]), sketch=st.booleans(),
           mem_cap=st.sampled_from([None, 30]), seed=st.integers(0, 2 ** 16))
    # batches start one point before tau = 13 and 45 and on tau = 21 and 32,
    # at either side of the first slot that opens mid-batch
    @example(sizes=[11, 9, 11, 12, 20], margin=0.0, sketch=True,
             mem_cap=None, seed=0)
    def test_matches_the_full_scan_ledger(self, sizes, margin, sketch,
                                          mem_cap, seed):
        self.mid_batch_openings(sizes, margin, sketch, mem_cap, seed)

    # The engine folds G and the sketch from tables it reads in place and
    # weights in place; the ledger folds each weight from its own weighted
    # copy (``oracles.sums_out_of_place``).  Calls of up to 3000 points
    # under h = 0.4 pass K = SPLIT_MIN uncapped (a first call of 3000
    # points ends with 64 slots, K = 32) and stay below it at cap 30
    # (10 slots, K = 5).
    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=8),
           h=st.sampled_from([1 / 3, 0.4]),
           margin=st.sampled_from([0.0, 0.1]), sketch=st.booleans(),
           mem_cap=st.sampled_from([None, 30]), seed=st.integers(0, 2 ** 16))
    @example(sizes=[3000, 1, 2999, 3000], h=0.4, margin=0.0, sketch=True,
             mem_cap=None, seed=0)
    @example(sizes=[3000, 1, 2999, 3000], h=0.4, margin=0.1, sketch=True,
             mem_cap=30, seed=0)
    def test_large_calls_match_the_out_of_place_ledger(self, sizes, h, margin,
                                                       sketch, mem_cap, seed):
        self.mid_batch_openings(sizes, margin, sketch, mem_cap, seed, h)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("sketch", [True, False])
    @pytest.mark.parametrize("mem_cap", [None, 30])
    def test_large_calls_open_slots_on_both_sides_of_the_split(
            self, margin, sketch, mem_cap):
        # the first call opens slots 6 to 10 (cap 30) or 6 to 64 inside it
        most = self.mid_batch_openings([3000, 3000, 3000], margin, sketch,
                                       mem_cap, 1, 0.4)
        slots = SchedulerConfig(h=0.4, mem_cap=mem_cap).slot_count(9000)
        assert most >= 5
        assert (slots // 2 >= SPLIT_MIN) == (mem_cap is None)

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("sketch", [True, False])
    @pytest.mark.parametrize("mem_cap", [None, 30])
    def test_batches_opening_several_slots(self, margin, sketch, mem_cap):
        # the first 400 points open slots 6 to 10 (cap 30) or 6 to 18
        # strictly inside the batch
        most = self.mid_batch_openings([400, 1, 399, 400, 250], margin,
                                       sketch, mem_cap, 0)
        assert most >= 5
