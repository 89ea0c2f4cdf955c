import csv

import numpy as np
import pytest

from streamreg import quadrature
from streamreg.harness import (ExperimentReport, Scenario, generate_stream,
                               integrated_squared_error, load_scenario, m1,
                               m2, m3, m3_partial_sum, noise_sigma,
                               phase_transition_experiment, rate_experiment,
                               rmise, run_experiment, signal_power,
                               target_eval)
from streamreg.tuning import TuningGrid


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

    def test_m3_is_periodic(self):
        assert m3(0.0) == pytest.approx(m3(1.0), abs=1e-10)

    def test_m3_squared_norm(self):
        # the harmonics are unnormalized (int cos^2 = 1/2), so
        # int m3^2 = 1 + sum_{j>=2} j^(-3)/2, truncated at the shared cutoff
        js = np.arange(2, 100_001)
        expected = 1.0 + np.sum(js ** -3.0) / 2.0
        got = quadrature.integrate(lambda x: m3(x) ** 2, 0, 1, 1 << 16)
        assert got == pytest.approx(expected, abs=1e-4)

    def test_target_eval_scalar_and_callable(self):
        assert target_eval("m2", 0.4) == 0.0
        assert target_eval(lambda t: 2 * t, 0.5) == 1.0


class TestScenario:
    def test_noise_sigma_from_snr(self):
        sc = Scenario(target="m2", snr=2.0)
        # E m2(T)^2 = int (t - 0.4)^2 dt = 0.4^3/3 + 0.6^3/3
        power = (0.4 ** 3 + 0.6 ** 3) / 3.0
        assert signal_power("m2") == pytest.approx(power, abs=1e-10)
        assert noise_sigma(sc) == pytest.approx(np.sqrt(power / 2.0))
        assert noise_sigma(Scenario(noiseless=True)) == 0.0

    def test_stream_is_deterministic_and_sized(self):
        sc = Scenario(target="m1", n=250, B=100, seed=7)
        a = list(generate_stream(sc))
        b = list(generate_stream(sc))
        assert [len(t) for t, _ in a] == [100, 100, 50]
        for (ta, ya), (tb, yb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(ya, yb)

    def test_invalid_scenarios_rejected(self):
        for kwargs in (dict(target="m9"), dict(n=0), dict(snr=0.0)):
            with pytest.raises(ValueError):
                Scenario(**kwargs)

    def test_load_scenario_round_trip(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(
            "target = m2\nn = 5000\n# comment\nsnr = 4.0\nseed = 3\n"
            "noiseless = true\n")
        sc = load_scenario(path)
        assert sc == Scenario(target="m2", n=5000, snr=4.0, seed=3,
                              noiseless=True)
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
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


SMALL_GRID = TuningGrid(C_rho_grid=(1e-2, 1.0), h_grid=(1 / 3,), n0=500)


class TestRunExperiment:
    def test_rmise_decreases_with_n(self):
        sc = Scenario(target="m1", n=4000, B=100, seed=1, replicates=4)
        rpt = run_experiment(sc, [500, 4000], grid=SMALL_GRID)
        values = rpt.column("rmise")
        assert values[1] < values[0]
        assert rpt.failures == 0

    def test_batch_oracle_runs(self):
        sc = Scenario(target="m1", n=2000, B=100, seed=2, replicates=2)
        rpt = run_experiment(sc, [2000], method="batch_oracle",
                             grid=SMALL_GRID)
        assert rpt.rows[0]["method"] == "batch_oracle"
        assert np.isfinite(rpt.rows[0]["rmise"])

    def test_mem_cap_bounds_reported_units(self):
        sc = Scenario(target="m1", n=4000, B=100, seed=3, replicates=2)
        rpt = run_experiment(sc, [4000], grid=SMALL_GRID, mem_cap=30)
        assert rpt.rows[0]["mem_units_mean"] <= 30 + 16

    def test_checkpoint_validation(self):
        sc = Scenario(n=1000, B=100)
        with pytest.raises(ValueError):
            run_experiment(sc, [])
        with pytest.raises(ValueError):
            run_experiment(sc, [2000])
        with pytest.raises(ValueError):
            run_experiment(sc, [150])

    def test_deterministic_given_seed(self):
        sc = Scenario(target="m2", n=1500, B=100, seed=4, replicates=2)
        a = run_experiment(sc, [1500], grid=SMALL_GRID)
        b = run_experiment(sc, [1500], grid=SMALL_GRID)
        assert a.rows[0]["rmise"] == b.rows[0]["rmise"]


class TestCompositeExperiments:
    def test_phase_transition_labels(self):
        sc = Scenario(target="m1", n=2000, B=100, seed=5, replicates=2)
        rpt = phase_transition_experiment(sc, [None, 30], [1000, 2000],
                                          grid=SMALL_GRID)
        labels = set(rpt.column("method"))
        assert labels == {"streaming_uncapped", "streaming_cap30"}

    def test_rate_experiment_validates_span(self):
        sc = Scenario(target="m3", n=10_000, B=100)
        with pytest.raises(ValueError):
            rate_experiment(sc, 1.0, [1000, 2000, 4000])

    def test_rate_experiment_slope_sign(self):
        sc = Scenario(target="m3", n=10_000, B=100, seed=6, replicates=3)
        slope, hyp, rpt, skipped = rate_experiment(
            sc, 1.0, [100, 1000, 10_000], grid=SMALL_GRID)
        assert hyp == pytest.approx(-1.0 / 3.0)
        assert not skipped
        assert slope < 0
