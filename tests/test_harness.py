import csv
import os

import numpy as np
import pytest

from oracles import (generate_stream, m3_at_nodes, m3_partial_sum,
                     replicate_data_unchunked, run_fresh, traced_peak)
from streamreg import harness, quadrature, tuning
from streamreg.basis import BasisSpec
from streamreg.engine import OnePassRegressor
from streamreg.errors import DomainError, IllConditionedSystemError
from streamreg.harness import (ExperimentReport, Scenario,
                               integrated_squared_error, load_scenario, m1,
                               m2, m3, noise_sigma,
                               phase_transition_experiment, rate_experiment,
                               rmise, run_experiment, signal_power)
from streamreg.scheduler import SchedulerConfig


def count_ingests(monkeypatch):
    """A list that grows by one at each ``OnePassRegressor.ingest`` call."""
    calls = []
    ingest = OnePassRegressor.ingest

    def counted(self, ts, ys):
        calls.append(self.schedule.mem_cap)
        return ingest(self, ts, ys)

    monkeypatch.setattr(OnePassRegressor, "ingest", counted)
    return calls


def rows_without_wall(report):
    """The report's rows without their run-dependent ``wall_ms``."""
    return [{k: v for k, v in r.items() if k != "wall_ms"}
            for r in report.rows]


class TestTargets:
    def test_m1_values(self):
        assert m1(0.0) == pytest.approx(1.0)
        assert m1(0.25) == pytest.approx(np.e)
        assert m1(0.75) == pytest.approx(np.exp(-1.0))

    def test_m2_values(self):
        assert m2(0.4) == 0.0
        assert m2(0.0) == pytest.approx(0.4)
        assert m2(1.0) == pytest.approx(0.6)

    def test_m3_matches_direct_series(self):
        # interpolation table against the slow chunked partial sum
        t = np.array([0.0, 0.1, 1 / 3, 0.55, 0.975])
        np.testing.assert_allclose(m3(t), m3_partial_sum(t), atol=2e-5)

    def test_m3_is_np_interp_on_the_table(self):
        # the direct cell index must give np.interp's bytes everywhere
        vals = harness._m3_interp_table()
        grid = np.arange(vals.size) / (vals.size - 1)
        rng = np.random.default_rng(3)
        cases = [
            rng.uniform(0, 1, 200_000),
            grid,
            np.array([0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0),
                      5e-324]),
            np.nextafter(grid[1:-1:997], 0.0),
            np.nextafter(grid[1:-1:997], 1.0),
            np.array([-1e-300, -0.5, -3.0, -np.inf, 1.0 + 2 ** -52, 1.5,
                      7.0, np.inf]),
            rng.uniform(-1, 2, 10_000),
        ]
        for t in cases:
            got = m3(t)
            want = np.interp(t, grid, vals)
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))
        assert np.isnan(m3(np.array([np.nan]))).all()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0 ** -60,
                        reason="needs an extended-precision long double")
    def test_m3_table_nodes_match_the_long_double_series(self):
        # the sliced build against the direct series at 400 nodes: the
        # ends, the middle, every slice's first nodes and random ones.  An
        # FFT's rounding is bounded in norm, so the error is counted in
        # units u of m3's largest value (about 3.3 u measured)
        vals = harness._m3_interp_table()
        N = vals.size - 1
        rng = np.random.default_rng(11)
        j = np.unique(np.concatenate([
            [0, 1, N // 4, N // 2, N // 2 + 1, N - 16, N - 1],
            np.arange(32), rng.integers(0, N, 400)]))
        assert j.size >= 400
        want = m3_at_nodes(j, N)
        u = np.finfo(float).eps / 2
        err = np.abs(vals[j] - want) / (u * np.abs(want).max())
        assert float(err.max()) <= 8.0
        assert vals[N] == vals[0]

    def test_m3_table_build_holds_one_slice_beside_the_table(self):
        # one 2**17-point slice, the spectrum of 2**16 + 1 complex numbers
        # and its twiddles, 3 MiB, and the build's coefficient arrays of
        # M3_TERMS / 2 numbers; four slices at a time took 6.4 MiB
        table = harness._m3_interp_table()
        peak = traced_peak(harness._m3_interp_table.__wrapped__)
        assert peak <= table.nbytes + 3.5 * 2 ** 20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak RSS from /proc")
    def test_m3_table_build_stays_near_its_size(self):
        # the table is (2**21 + 1) float64s, 16 MB; the sliced build holds
        # one 2**17-point slice, the spectrum and its twiddles besides
        # (measured about 22 MB in all).  VmHWM is the peak RSS of the
        # process's own address space; getrusage's peak would start from
        # the forking test process's RSS and hide the growth.
        code = ("from streamreg import harness\n"
                "def peak_kb():\n"
                "    for line in open('/proc/self/status'):\n"
                "        if line.startswith('VmHWM:'):\n"
                "            return int(line.split()[1])\n"
                "before = peak_kb()\n"
                "harness._m3_interp_table()\n"
                "print((peak_kb() - before) / 1024)\n")
        assert float(run_fresh(code, NUMPY_MADVISE_HUGEPAGE="0")) <= 28.0

    def test_m3_is_periodic(self):
        assert m3(0.0) == pytest.approx(m3(1.0), abs=1e-10)

    def test_m3_squared_norm(self):
        # the harmonics are unnormalized (int cos^2 = 1/2), so
        # int m3^2 = 1 + sum_{j>=2} j^(-3)/2, truncated at the shared cutoff
        js = np.arange(2, 100_001)
        expected = 1.0 + np.sum(js ** -3.0) / 2.0
        got = quadrature.integrate(lambda x: m3(x) ** 2, 0, 1, 1 << 16)
        assert got == pytest.approx(expected, abs=1e-4)


class TestScenario:
    def test_noise_sigma_from_snr(self):
        sc = Scenario(target="m2", snr=2.0)
        # E m2(T)^2 = int (t - 0.4)^2 dt = 0.4^3/3 + 0.6^3/3
        power = (0.4 ** 3 + 0.6 ** 3) / 3.0
        assert signal_power("m2") == pytest.approx(power, abs=1e-10)
        assert noise_sigma(sc) == pytest.approx(np.sqrt(power / 2.0))

    def test_stream_is_deterministic_and_sized(self):
        sc = Scenario(target="m1", n=250, B=100, seed=7)
        a = list(generate_stream(sc))
        b = list(generate_stream(sc))
        assert [len(t) for t, _ in a] == [100, 100, 50]
        for (ta, ya), (tb, yb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(ya, yb)

    @pytest.mark.parametrize("target", ["m1", "m2", "m3"])
    def test_replicate_has_the_bits_of_one_call_at_n(self, target):
        chunk = harness.REPLICATE_CHUNK
        for n in (1, chunk, 3 * chunk + 17):
            sc = Scenario(target=target, n=n, seed=5)
            got = harness._replicate_data(sc, 2)
            want = replicate_data_unchunked(sc, 2)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    def test_replicate_holds_its_arrays_and_one_chunk(self):
        # t and y, 16 n bytes, and one chunk's temporaries: m3's copy of t,
        # its node, index and result arrays, y_j and two masks (42 bytes a
        # point), or the noise draw after it.  In one call at n, m3's
        # temporaries took 3.4 MB at n = 1e5.
        n = 100_000
        sc = Scenario(target="m3", n=n)
        noise_sigma(sc)  # builds the m3 table once, outside the bound
        peak = traced_peak(harness._replicate_data, sc, 0)
        assert peak <= 16 * n + 48 * harness.REPLICATE_CHUNK

    def test_invalid_scenarios_rejected(self):
        # out of range, then of the wrong type or not finite
        for kwargs in (dict(target="m9"), dict(n=0), dict(snr=0.0),
                       dict(snr=float("nan")), dict(snr=float("inf")),
                       dict(snr="2"), dict(n=1000.5), dict(B=True),
                       dict(seed=1.5), dict(replicates=2.0)):
            with pytest.raises(ValueError):
                Scenario(**kwargs)

    def test_load_scenario_round_trip(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(
            "target = m2\nn = 5000\n# comment\nsnr = 4.0\nseed = 3\n")
        sc = load_scenario(path)
        assert sc == Scenario(target="m2", n=5000, snr=4.0, seed=3)
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_load_scenario_refuses_a_repeated_key(self, tmp_path):
        # the last value silently won
        path = tmp_path / "scenario.txt"
        path.write_text("n = 1000\nseed = 3\nn = 2000\n")
        with pytest.raises(ValueError, match="repeated scenario key 'n'"):
            load_scenario(path)


class TestErrorMetrics:
    def test_ise_of_known_offset(self):
        # predicting m1 + 0.5 gives ISE exactly 0.25
        err = integrated_squared_error(lambda t: m1(t) + 0.5, "m1")
        assert err == pytest.approx(0.25, abs=1e-10)

    def test_rmise_aggregation(self):
        assert rmise([0.04, 0.16]) == pytest.approx(np.sqrt(0.10))
        with pytest.raises(ValueError):
            rmise([])


class TestReport:
    def test_csv_round_trip(self, tmp_path):
        rpt = ExperimentReport()
        rpt.add(method="streaming", target="m1", n=100, rmise=0.5,
                q_mean=5.0, mem_units_mean=24.0, wall_ms=1.0, failures=0)
        path = tmp_path / "report.csv"
        rpt.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "streaming"
        assert float(rows[0]["rmise"]) == 0.5
        rpt.write_gnuplot(tmp_path / "plot.gp", path)
        assert "logscale" in (tmp_path / "plot.gp").read_text()


class TestRunExperiment:
    def test_rmise_decreases_with_n(self):
        sc = Scenario(target="m1", n=4000, B=100, seed=1, replicates=4)
        rpt = run_experiment(sc, [500, 4000])
        values = rpt.column("rmise")
        assert values[1] < values[0]
        assert rpt.failures == 0

    def test_batch_oracle_runs(self):
        sc = Scenario(target="m1", n=2000, B=100, seed=2, replicates=2)
        rpt = run_experiment(sc, [2000], method="batch_oracle")
        assert rpt.rows[0]["method"] == "batch_oracle"
        assert np.isfinite(rpt.rows[0]["rmise"])

    def test_mem_cap_bounds_reported_units(self):
        sc = Scenario(target="m1", n=4000, B=100, seed=3, replicates=2)
        rpt = run_experiment(sc, [4000], mem_caps=[30])
        assert rpt.rows[0]["mem_units_mean"] <= 30 + 16

    def test_checkpoint_validation(self):
        sc = Scenario(n=1000, B=100)
        with pytest.raises(ValueError):
            run_experiment(sc, [])
        with pytest.raises(ValueError):
            run_experiment(sc, [2000])
        with pytest.raises(ValueError):
            run_experiment(sc, [150])
        # a checkpoint below 1 would reach the engine as an empty call
        for bad in ([0, 1000], [-100, 1000]):
            with pytest.raises(ValueError, match="checkpoints must be >= 1"):
                run_experiment(sc, bad)
        # a repeated checkpoint would write the same row twice
        with pytest.raises(ValueError, match="checkpoints must be distinct"):
            run_experiment(sc, [500, 1000, 500])
        # a checkpoint that is not an integer was truncated and reported
        # as the n below it
        for bad in ([500.5, 1000], [500, 1000.0], [True, 1000], ["500"]):
            with pytest.raises(ValueError,
                               match="checkpoints must be integers"):
                run_experiment(sc, bad)

    def test_method_and_caps_are_validated(self):
        sc = Scenario(n=1000, B=100)
        with pytest.raises(ValueError, match="unknown method 'oracle'"):
            run_experiment(sc, [1000], method="oracle")
        with pytest.raises(ValueError, match="mem_caps must be non-empty"):
            run_experiment(sc, [1000], mem_caps=[])

    def test_a_row_counts_the_replicates_missing_from_it(self, monkeypatch):
        # replicate 0's estimate is refused at its second checkpoint: its
        # first checkpoint's ISE stays in the first row, so only the second
        # row misses it
        sc = Scenario(target="m1", n=2000, B=100, seed=5, replicates=3)
        whole = run_experiment(sc, [1000, 2000])
        estimate = OnePassRegressor.estimate
        refused = []

        def refused_once_at_2000(self, t, rho):
            if self.n == 2000 and not refused:
                refused.append(self.n)
                raise IllConditionedSystemError("refused")
            return estimate(self, t, rho)

        monkeypatch.setattr(OnePassRegressor, "estimate",
                            refused_once_at_2000)
        rpt = run_experiment(sc, [1000, 2000])
        assert refused == [2000]
        assert rpt.column("failures") == [0, 1]
        assert rpt.failures == 1
        assert rpt.rows[0]["rmise"] == whole.rows[0]["rmise"]
        assert rpt.rows[1]["rmise"] != whole.rows[1]["rmise"]

    def test_a_refused_batch_fit_keeps_the_checkpoints_before_it(
            self, monkeypatch):
        # the baseline refits at each checkpoint: replicate 0's refit at
        # the second is refused, so only the second row misses it
        sc = Scenario(target="m1", n=2000, B=100, seed=2, replicates=2)
        batch_fit = harness.batch_fit
        refused = []

        def refused_once_at_2000(ts, ys, *args):
            if ts.size == 2000 and not refused:
                refused.append(ts.size)
                raise IllConditionedSystemError("refused")
            return batch_fit(ts, ys, *args)

        monkeypatch.setattr(harness, "batch_fit", refused_once_at_2000)
        rpt = run_experiment(sc, [1000, 2000], method="batch_oracle")
        assert refused == [2000]
        assert rpt.column("failures") == [0, 1]
        assert rpt.failures == 1

    def test_deterministic_given_seed(self):
        sc = Scenario(target="m2", n=1500, B=100, seed=4, replicates=2)
        a = run_experiment(sc, [1500])
        b = run_experiment(sc, [1500])
        assert a.rows[0]["rmise"] == b.rows[0]["rmise"]


class TestCompositeExperiments:
    def test_phase_transition_labels(self):
        sc = Scenario(target="m1", n=2000, B=100, seed=5, replicates=2)
        rpt = phase_transition_experiment(sc, [None, 30], [1000, 2000])
        labels = set(rpt.column("method"))
        assert labels == {"streaming_uncapped", "streaming_cap30"}

    def test_each_replicate_is_drawn_and_tuned_once(self, monkeypatch):
        calls = {"data": 0, "cv_table": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        table = counted("cv_table", tuning.cv_table)
        monkeypatch.setattr(tuning, "cv_table", table)
        monkeypatch.setattr(harness, "cv_table", table, raising=False)
        monkeypatch.setattr(harness, "_replicate_data",
                            counted("data", harness._replicate_data))
        sc = Scenario(target="m1", n=2000, B=100, seed=5, replicates=3)
        rpt = phase_transition_experiment(sc, [None, 30], [1000, 2000])
        assert calls == {"data": 3, "cv_table": 3}
        assert rpt.column("method") == ["streaming_uncapped"] * 2 \
            + ["streaming_cap30"] * 2

    @pytest.mark.parametrize("caps", [[None, 30], [30, None]])
    def test_caps_share_a_table_without_sharing_a_screen(self, caps,
                                                         monkeypatch):
        # at margin 0.1 and n = 2e4 the uncapped screen removes h >= 1/3
        # and the cap-30 screen removes nothing; both replicates of this
        # seed pick h = 1/3 under the cap, so a screen that leaked from one
        # cap into the next would change the cap-30 rows.  The picks
        # differ, so each cap streams each replicate itself: 10 calls
        # (every 2000 points) per cap and replicate
        sc = Scenario(target="m1", n=20_000, B=100, seed=2, replicates=2)
        calls = count_ingests(monkeypatch)
        both = run_experiment(sc, [2000, 20_000], mem_caps=caps)
        assert len(calls) == 2 * 2 * 10
        alone = [rows_without_wall(run_experiment(sc, [2000, 20_000],
                                                  mem_caps=[cap]))
                 for cap in caps]
        assert rows_without_wall(both) == alone[0] + alone[1]
        assert both.failures == 0
        by_cap = dict(zip(caps, alone))
        assert by_cap[30][1]["q_mean"] != by_cap[None][1]["q_mean"]

    def test_caps_that_pick_one_h_stream_once(self, monkeypatch):
        # criterion 8's shape: at margin 0 every cap picks the same h, so
        # the replicate is streamed once, at the uncapped schedule, in 50
        # calls (every 2000 points to 1e5); the cap-30 engine is read off
        # that stream
        sc = Scenario(target="m3", n=100_000, B=100, snr=20.0, seed=0,
                      replicates=1)
        calls = count_ingests(monkeypatch)
        rpt = phase_transition_experiment(sc, [None, 30], [10_000, 100_000])
        assert calls == [None] * 50
        assert rpt.failures == 0
        assert rpt.rows[3]["q_mean"] == 10.0 < rpt.rows[1]["q_mean"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_shared_stream_gives_each_cap_its_lone_rows(self, seed):
        # every cap of the joint run picks one h (margin 0): the uncapped
        # rows are those of a lone uncapped run to the bit, and the capped
        # ones differ from a lone capped run only in the rounding of G and
        # theta, each folded at the stream's own slot count
        sc = Scenario(target="m3", n=20_000, B=100, snr=20.0, seed=seed,
                      replicates=2)
        caps, marks = [None, 60, 30], [2000, 20_000]
        both = rows_without_wall(run_experiment(sc, marks, mem_caps=caps))
        alone = [row for cap in caps for row in rows_without_wall(
            run_experiment(sc, marks, mem_caps=[cap]))]
        assert both[:2] == alone[:2]
        for got, want in zip(both, alone):
            assert got["rmise"] == pytest.approx(want["rmise"], rel=1e-12,
                                                 abs=0.0)
            assert {**got, "rmise": 0} == {**want, "rmise": 0}
        # both caps bind by n = 2e4, so each derived engine is a proper cut
        assert both[1]["q_mean"] > both[3]["q_mean"] == 20.0
        assert both[5]["q_mean"] == 10.0

    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("lead_cap", [None, 90])
    def test_a_derived_engine_is_the_capped_stream(self, margin, lead_cap):
        # the leading slots of a larger cap's checkpoint, loaded under a
        # cap of 30, against a stream run at that cap: the same ledger and
        # footprint, and G and theta within a few ulp of their largest
        # entry (at most 2 measured), from before the cap binds to after
        spec = BasisSpec(0.0, 1.0, extension_margin=margin)
        rng = np.random.default_rng(4)
        ts = rng.uniform(0.0, 1.0, 20_000)
        ys = m3(ts) + rng.normal(0.0, 0.1, ts.size)
        capped = SchedulerConfig(h=0.4, mem_cap=30)
        lead = OnePassRegressor(spec, harness.PENALTY,
                                SchedulerConfig(h=0.4, mem_cap=lead_cap))
        direct = OnePassRegressor(spec, harness.PENALTY, capped)
        # 8 slots are open at n = 20, 10 by n = 100
        ends = (20, 100, 2000, 4000, 12_000, 20_000)
        slots = []
        for lo, hi in zip((0, *ends), ends):
            lead.ingest(ts[lo:hi], ys[lo:hi])
            direct.ingest(ts[lo:hi], ys[lo:hi])
            derived = harness._leading_slots(lead.checkpoint(), capped)
            assert derived.schedule == capped
            assert derived.n == direct.n
            assert derived.start.tobytes() == direct.start.tobytes()
            assert derived.active_count == direct.active_count
            assert derived.memory_footprint() == direct.memory_footprint()
            slots.append(derived.start.size)
            for a, b in ((derived.G, direct.G),
                         (derived.density.theta, direct.density.theta)):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 4 * np.spacing(np.abs(b).max())
        assert slots[:2] == [8, 10] and lead.start.size > 10

    def test_a_refused_uncapped_estimate_leaves_the_capped_rows(
            self, monkeypatch):
        # the stream's own cap is refused at the first checkpoint: its rows
        # lose the replicate, and the cap-30 rows, read off the same
        # stream, keep it
        sc = Scenario(target="m3", n=20_000, B=100, snr=20.0, seed=1,
                      replicates=2)
        marks = [2000, 20_000]
        whole = run_experiment(sc, marks, mem_caps=[None, 30])
        estimate = OnePassRegressor.estimate
        refused = []

        def refused_uncapped_once(self, t, rho):
            if self.schedule.mem_cap is None and not refused:
                refused.append(self.n)
                raise IllConditionedSystemError("refused")
            return estimate(self, t, rho)

        monkeypatch.setattr(OnePassRegressor, "estimate",
                            refused_uncapped_once)
        rpt = run_experiment(sc, marks, mem_caps=[None, 30])
        assert refused == [2000]
        assert rpt.column("failures") == [1, 1, 0, 0]
        assert rpt.failures == 1
        assert rows_without_wall(rpt)[2:] == rows_without_wall(whole)[2:]

    def test_a_refused_ingest_fails_every_cap_of_its_stream(self,
                                                            monkeypatch):
        # replicate 0's stream is refused past the first checkpoint: both
        # caps keep its first checkpoint and lose its second
        sc = Scenario(target="m3", n=20_000, B=100, snr=20.0, seed=1,
                      replicates=2)
        ingest = OnePassRegressor.ingest
        refused = []

        def refused_once_past_2000(self, ts, ys):
            if self.n >= 2000 and not refused:
                refused.append(self.n)
                raise DomainError("refused")
            return ingest(self, ts, ys)

        monkeypatch.setattr(OnePassRegressor, "ingest",
                            refused_once_past_2000)
        rpt = run_experiment(sc, [2000, 20_000], mem_caps=[None, 30])
        assert refused == [2000]
        assert rpt.column("failures") == [0, 1, 0, 1]
        assert rpt.failures == 2

    def test_rate_experiment_validates_span(self):
        sc = Scenario(target="m3", n=10_000, B=100)
        with pytest.raises(ValueError):
            rate_experiment(sc, 1.0, [1000, 2000, 4000])
        # three checkpoints but two distinct n: the fit would double a point
        with pytest.raises(ValueError, match="3 distinct checkpoints"):
            rate_experiment(sc, 1.0, [100, 100, 10_000])
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            rate_experiment(sc, 1.0, [100, 1000.5, 10_000])

    @pytest.mark.parametrize("beta", [0.0, -0.5, float("nan"),
                                      float("inf"), "1", True])
    def test_rate_experiment_checks_beta_before_the_run(self, beta,
                                                        monkeypatch):
        # -beta / (2 beta + 1) divides by zero at beta = -0.5, and no beta
        # <= 0 or non-finite gives a meaningful slope
        def never(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(harness, "run_experiment", never)
        sc = Scenario(target="m3", n=10_000, B=100)
        with pytest.raises(ValueError, match="beta must be a finite number"):
            rate_experiment(sc, beta, [100, 1000, 10_000])

    def test_rate_experiment_slope_sign(self):
        sc = Scenario(target="m3", n=10_000, B=100, seed=6, replicates=3)
        slope, hyp, rpt, skipped = rate_experiment(
            sc, 1.0, [100, 1000, 10_000])
        assert hyp == pytest.approx(-1.0 / 3.0)
        assert not skipped
        assert slope < 0
