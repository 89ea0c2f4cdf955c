import csv
import json

import numpy as np
import pytest

from oracles import (alice_encode_per_batch, build_m_omega,
                     build_m_omega_loop, bump_kernel, bump_kernel_expression,
                     holder_constant_estimate, partition_tolerance)
from streamreg import lowerbound, quadrature
from streamreg.errors import CheckpointError
from streamreg.lowerbound import (BATCH_SIZE, BLOCK_BATCHES,
                                  DEFAULT_NOISE_SD, HypercubeInstance,
                                  alice_encode, bob_decode,
                                  build_m_omega_into, bump_kernel_into,
                                  run_protocol)


class TestBumpKernel:
    def test_peak_and_support(self):
        assert bump_kernel(0.0) == pytest.approx(1.0)
        assert bump_kernel(0.5) == 0.0
        assert bump_kernel(-0.7) == 0.0
        assert bump_kernel(np.array([0.49999]))[0] < 1e-6

    def test_scaling(self):
        # the encoded bump's peak is c_K k^-beta times the kernel's peak 1
        inst = HypercubeInstance(k=4, omega=(0, 1, 0, 0), beta=2.0, c_K=0.3)
        assert inst.peak == 0.3 * 4 ** -2.0
        assert build_m_omega(inst)(inst.centers[1])[0] == inst.peak

    def test_in_place_steps_keep_the_expression_bytes(self):
        # each in-place step is one of the expression's operations, in its
        # order, so every value keeps its bits, into a given buffer too
        rng = np.random.default_rng(4)
        half = np.nextafter(0.5, 0.0)
        t = np.concatenate([
            rng.uniform(-1.0, 1.0, 5000), rng.uniform(-0.5, 0.5, 5000),
            [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e-9, half, -half, 0.5,
             -0.5, np.nextafter(0.5, 1.0), 3.0, -np.inf, np.inf, np.nan]])
        want = bump_kernel_expression(t)
        assert_same_bytes(bump_kernel(t), want)
        out = np.full_like(t, np.nan)
        assert bump_kernel_into(t, out) is out
        assert_same_bytes(out, want)
        for v in (0.0, 0.25, -0.49, 0.5, np.nan):
            got = bump_kernel(v)
            assert isinstance(got, float)
            assert_same_bytes(np.array(got), bump_kernel_expression(v))

    def test_symmetry_and_smooth_decay(self):
        t = np.linspace(0, 0.49, 50)
        np.testing.assert_allclose(bump_kernel(t), bump_kernel(-t))
        assert np.all(np.diff(bump_kernel(t)) <= 0)


class TestInstance:
    def test_geometry(self):
        inst = HypercubeInstance(k=4, omega=(1, 0, 0, 1))
        np.testing.assert_allclose(inst.centers, [0.125, 0.375, 0.625, 0.875])
        assert inst.peak == pytest.approx(0.1 * 4 ** -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HypercubeInstance(k=0, omega=())
        with pytest.raises(ValueError):
            HypercubeInstance(k=2, omega=(1, 2))
        with pytest.raises(ValueError):
            HypercubeInstance(k=2, omega=(1,))

    @pytest.mark.parametrize("fields, message", [
        ({"k": 2.0}, "k must be an integer"),
        ({"k": True}, "k must be an integer"),
        *[({name: bad}, f"{name} must be a finite number > 0")
          for name in ("beta", "c_K")
          for bad in (0.0, -1.0, np.inf, np.nan, "1")]])
    def test_parameters_are_finite_and_positive(self, fields, message):
        # beta = inf would encode a zero signal, and NaN an undecodable one
        args = {"k": 2, "omega": (0, 1), **fields}
        with pytest.raises(ValueError, match=message):
            HypercubeInstance(**args)


class TestEncodedFunction:
    def test_peaks_at_active_centers_only(self):
        inst = HypercubeInstance(k=8, omega=(1, 0, 1, 0, 0, 0, 0, 1))
        m = build_m_omega(inst)
        vals = m(inst.centers)
        active = np.asarray(inst.omega, dtype=bool)
        np.testing.assert_allclose(vals[active], inst.peak, rtol=1e-12)
        np.testing.assert_allclose(vals[~active], 0.0, atol=1e-15)

    def test_writes_into_the_given_buffers(self):
        # Alice's block path: values into ``out``, the cell index and the
        # kernel's argument into ``work``, whatever the buffers held
        inst = HypercubeInstance(k=8, omega=(1, 0, 1, 1, 0, 0, 1, 0))
        t = np.random.default_rng(9).uniform(0.0, 1.0, 3000)
        out, work = np.full(t.size, np.nan), np.full((2, t.size), np.inf)
        assert build_m_omega_into(inst)(t, out, work) is out
        assert_same_bytes(out, build_m_omega(inst)(t))
        assert_same_bytes(out, build_m_omega_loop(inst)(t))

    def test_supports_are_disjoint(self):
        # each bump vanishes outside its own 1/k-interval
        inst = HypercubeInstance(k=5, omega=(1, 1, 1, 1, 1))
        m = build_m_omega(inst)
        edges = np.arange(6) / 5.0
        np.testing.assert_allclose(m(edges), 0.0, atol=1e-15)

    def test_l2_norm_scales_with_popcount(self):
        one = build_m_omega(HypercubeInstance(k=6, omega=(1, 0, 0, 0, 0, 0)))
        three = build_m_omega(
            HypercubeInstance(k=6, omega=(1, 0, 1, 0, 1, 0)))
        n1 = quadrature.integrate(lambda t: one(t) ** 2, 0, 1, 4096)
        n3 = quadrature.integrate(lambda t: three(t) ** 2, 0, 1, 4096)
        assert n3 == pytest.approx(3 * n1, rel=1e-8)

    def test_holder_constant_bounded_by_chi(self):
        # c_K = 0.1 was sized so the encoded function stays in the class
        for k in (2, 8):
            inst = HypercubeInstance(k=k, omega=(1,) * k)
            assert holder_constant_estimate(inst) <= 1.0


def assert_same_bytes(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def protocol_draws(k, n, trials, seed, batch=100):
    """The (instance, batch points) pairs ``run_protocol`` draws, replayed
    from its generator without running the engine."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        omega = tuple(int(b) for b in rng.integers(0, 2, k))
        rng.integers(0, k)
        batches = []
        for lo in range(0, n, batch):
            size = min(batch, n - lo)
            batches.append(rng.uniform(0.0, 1.0, size))
            rng.normal(0.0, DEFAULT_NOISE_SD, size)
        yield HypercubeInstance(k=k, omega=omega), batches


class TestSingleBump:
    def test_replay_follows_run_protocol(self, monkeypatch):
        # the replay below must see the instances and points run_protocol
        # feeds the encoder.  Alice evaluates m_omega once per block of
        # batches, so each trial's evaluated points, concatenated, must be
        # its replayed batches' points end to end.  n spans two full
        # blocks, then a partial one that ends in a short batch.
        trials = []  # [instance, evaluated point arrays] per encoder call

        def recording(inst):
            m = build_m_omega_into(inst)
            trials.append((inst, []))

            def m_omega(t, out, work):
                trials[-1][1].append(np.array(t))
                return m(t, out, work)
            return m_omega

        n = 2 * BLOCK_BATCHES * BATCH_SIZE + 250
        monkeypatch.setattr(lowerbound, "build_m_omega_into", recording)
        run_protocol(k=8, n=n, trials=3, seed=0)
        replayed = list(protocol_draws(8, n, 3, 0))
        assert len(trials) == len(replayed)
        for (inst_a, seen), (inst_b, batches) in zip(trials, replayed):
            assert inst_a == inst_b
            assert len(seen) == 3
            assert_same_bytes(np.concatenate(seen), np.concatenate(batches))

    @pytest.mark.parametrize("n", [1050, 10_000,
                                   2 * BLOCK_BATCHES * BATCH_SIZE])
    @pytest.mark.parametrize("noise_sd", [0.0, DEFAULT_NOISE_SD])
    @pytest.mark.parametrize("mem_cap", [None, 5])
    def test_payload_matches_the_per_batch_encoder(self, n, noise_sd,
                                                   mem_cap):
        # one ingest per block moves only the rounding of G: the record's n,
        # config and start, the units and the generator's state are the
        # per-batch encoder's to the byte, G lies within the rounding both
        # call sequences explain, and Bob reads the same bits.  1050 ends
        # in a short batch inside the first block, 1e4 in a partial second
        # block (of 64 batches), the last on a block boundary
        inst = HypercubeInstance(k=8, omega=(1, 0, 1, 1, 0, 0, 1, 0))
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        got, got_units = alice_encode(inst, n, rng_a, mem_cap, noise_sd)
        want, want_units = alice_encode_per_batch(
            inst, n, rng_b, mem_cap=mem_cap, noise_sd=noise_sd)
        assert got_units == want_units
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert bob_decode(got, inst.k, inst.beta, inst.c_K) == bob_decode(
            want, inst.k, inst.beta, inst.c_K)
        a, b = json.loads(got), json.loads(want)
        G_a, G_b = np.array(a.pop("G")), np.array(b.pop("G"))
        assert a == b
        # the responses both encoders folded, drawn again batch by batch
        rng, m, ys = np.random.default_rng(11), build_m_omega(inst), []
        for lo in range(0, n, BATCH_SIZE):
            size = min(BATCH_SIZE, n - lo)
            y = m(rng.uniform(0.0, 1.0, size))
            ys.append(y + rng.normal(0.0, noise_sd, size) if noise_sd > 0
                      else y)
        block = BLOCK_BATCHES * BATCH_SIZE
        tol = partition_tolerance(
            np.concatenate(ys), np.array(a["start"]), 1.0, 1,
            [min(block, n - lo) for lo in range(0, n, block)],
            [min(BATCH_SIZE, n - lo) for lo in range(0, n, BATCH_SIZE)])
        assert G_a.shape == G_b.shape
        assert np.all(np.abs(G_a - G_b) <= tol)

    @pytest.mark.slow
    def test_criterion_9_instances_match_the_bump_loop(self):
        # criterion 9 runs k = 8, n = 1e5, 200 trials from seed 0 with and
        # without a cap; the cap changes the engine, not the draws
        for inst, batches in protocol_draws(8, 100_000, 200, 0):
            t = np.concatenate(batches)
            assert_same_bytes(build_m_omega(inst)(t),
                              build_m_omega_loop(inst)(t))

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_edges_and_outside_points_match_the_bump_loop(self, k):
        rng = np.random.default_rng(k)
        edges = np.arange(k + 1) / k
        centers = (np.arange(k) + 0.5) / k
        t = np.concatenate([
            [0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
            centers, rng.uniform(0, 1, 1000),
            [-1e-12, -0.3, -5.0, 1.0 + 1e-12, 1.2, 5.0, -np.inf, np.inf]])
        for omega in ((1,) * k, tuple(rng.integers(0, 2, k)), (0,) * k):
            inst = HypercubeInstance(k=k, omega=omega)
            assert_same_bytes(build_m_omega(inst)(t),
                              build_m_omega_loop(inst)(t))
        inst = HypercubeInstance(k=k, omega=(1,) * k)
        assert build_m_omega(inst)(np.array([np.nan]))[0] == 0.0


class TestProtocolPieces:
    def test_decode_recovers_bits_without_noise(self):
        inst = HypercubeInstance(k=4, omega=(1, 0, 1, 1))
        rng = np.random.default_rng(0)
        payload, units = alice_encode(inst, 20_000, rng, None, 0.0)
        assert bob_decode(payload, 4, inst.beta, inst.c_K) == inst.omega
        assert units == len(json.loads(payload)["G"]) * 2 + 4

    def test_payload_units_match_footprint(self):
        inst = HypercubeInstance(k=2, omega=(0, 1))
        rng = np.random.default_rng(1)
        payload, units = alice_encode(inst, 3000, rng, None,
                                      DEFAULT_NOISE_SD)
        record = json.loads(payload)
        assert units == (len(record["G"]) + len(record["start"])
                         + len(record["theta"]) + len(record["theta_start"])
                         + 4)
        assert record["theta"] == []  # density known, nothing extra shipped

    def test_memory_cap_shrinks_payload(self):
        inst = HypercubeInstance(k=2, omega=(1, 1))
        rng = np.random.default_rng(2)
        _, wide = alice_encode(inst, 10_000, rng, None, DEFAULT_NOISE_SD)
        _, narrow = alice_encode(inst, 10_000, rng, 5, DEFAULT_NOISE_SD)
        assert narrow < wide
        assert narrow == 2 * 1 + 4  # one slot survives a cap of 5

    @pytest.mark.parametrize("noise_sd", [-1.0, float("nan"), float("inf")])
    def test_invalid_noise_rejected_before_the_first_draw(self, noise_sd):
        inst = HypercubeInstance(k=2, omega=(0, 1))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="noise_sd"):
            alice_encode(inst, 200, rng, None, noise_sd)
        with pytest.raises(ValueError, match="noise_sd"):
            run_protocol(k=2, n=200, trials=1, noise_sd=noise_sd)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [0, -5, 1000.0, True, "100"])
    def test_invalid_n_rejected_before_the_first_draw(self, n):
        # the encoder slices its block buffers by n, so n must be an integer
        inst = HypercubeInstance(k=2, omega=(0, 1))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="n must be an integer"):
            alice_encode(inst, n, rng, None, DEFAULT_NOISE_SD)
        assert rng.bit_generator.state == state

    def test_garbage_payload_raises(self):
        with pytest.raises(CheckpointError):
            bob_decode("definitely not a checkpoint", 4, 1.0, 0.1)


class TestRunProtocol:
    def test_uncapped_protocol_is_reliable(self):
        rpt = run_protocol(k=4, n=20_000, trials=10, seed=3)
        assert rpt.error_rate <= 0.1
        assert rpt.transmitted_units > 0
        assert len(rpt.rows) == 10

    def test_capped_protocol_degrades(self):
        capped = run_protocol(k=8, n=20_000, trials=12, seed=4, mem_cap=5)
        assert capped.error_rate >= 0.25

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            run_protocol(k=2, n=100, trials=0)
        # counts that are not integers are refused before the first draw,
        # not by numpy or ``range``
        for args, message in (({"k": 2.5}, "k must be an integer"),
                              ({"k": True}, "k must be an integer"),
                              ({"k": 0}, "k must be >= 1"),
                              ({"trials": 1.5}, "trials must be an integer"),
                              ({"trials": True}, "trials must be an integer")):
            with pytest.raises(ValueError, match=message):
                run_protocol(**{"k": 2, "n": 100, "trials": 1, **args})

    def test_report_csv(self, tmp_path):
        rpt = run_protocol(k=2, n=2000, trials=3, seed=5)
        path = tmp_path / "protocol.csv"
        rpt.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["correct"] in ("0", "1") for r in rows)
