"""Geometry, channel synthesis, and observation tests.

Frozen expected values were computed by hand from the construction rules
(wavelength = c/f, uniform spacing, per-ray scaling) and cross-checked
with brute-force Monte Carlo where a distributional claim is made.
"""

from dataclasses import replace

import numpy as np
import pytest

from fasbar import (
    ChannelRealization,
    PilotObservation,
    SscModelParams,
    build_port_geometry,
    design_plan,
    draw_port_noise,
    generate_ssc_channel,
    kernel_exponential,
    noise_power_for_snr,
    observe_pilots,
    observe_ports,
    ssc_channel_from_rays,
    steering_matrix,
)

C_LIGHT = 299_792_458.0


class TestPortGeometry:
    def test_reference_layout_256_ports(self):
        geom = build_port_geometry(256, 10.0, 3.5e9)
        lam = C_LIGHT / 3.5e9
        assert np.isclose(geom.wavelength, 0.08565, rtol=0, atol=5e-6)
        assert np.isclose(geom.spacing, 10 * lam / 255, rtol=1e-12)
        assert geom.positions[0] == 0.0
        assert np.isclose(geom.positions[-1], 10 * lam, rtol=1e-12)

    def test_five_ports_at_1ghz(self):
        geom = build_port_geometry(5, 2.0, 1.0e9)
        # adjacent spacing = 2*lambda/4 = 0.14990 m
        assert np.isclose(geom.spacing, 0.149896229, rtol=1e-9)

    def test_uniform_spacing(self):
        geom = build_port_geometry(97, 7.3, 2.4e9)
        gaps = np.diff(geom.positions)
        assert np.allclose(gaps, gaps[0], rtol=1e-12)

    def test_two_port_minimum(self):
        geom = build_port_geometry(2, 1.0, 1e9)
        assert np.isclose(geom.positions[1], geom.wavelength, rtol=1e-12)

    def test_positions_read_only(self):
        geom = build_port_geometry(8, 1.0, 1e9)
        with pytest.raises(ValueError, match="read-only"):
            geom.positions[0] = 1.0

    @pytest.mark.parametrize(
        "n,w,f",
        [
            (1, 10.0, 3.5e9),
            (0, 10.0, 3.5e9),
            (16, 0.0, 3.5e9),
            (16, 10.0, -1.0),
            (16, float("nan"), 3.5e9),
            (16, float("inf"), 3.5e9),
            (16, 10.0, float("nan")),
            (16, 10.0, float("inf")),
        ],
    )
    def test_rejects_bad_arguments(self, n, w, f):
        # a NaN or infinite aperture or carrier passed the bare comparisons and laid out NaN ports
        with pytest.raises(ValueError):
            build_port_geometry(n, w, f)

    @pytest.mark.parametrize("n", [16.7, 2.5, True, "16", None])
    def test_port_count_must_be_a_whole_number(self, n):
        # int() built 16 ports from 16.7 and 16 from "16"
        with pytest.raises(ValueError, match="num_ports must be a whole number"):
            build_port_geometry(n, 5.0, 3.5e9)

    @pytest.mark.parametrize("n", [16.0, np.int64(16), np.float64(16.0)])
    def test_whole_port_count_accepted(self, n):
        geom = build_port_geometry(n, 5.0, 3.5e9)
        assert geom.num_ports == 16 and type(geom.num_ports) is int
        assert geom.positions.tobytes() == build_port_geometry(16, 5.0, 3.5e9).positions.tobytes()


class TestSscChannel:
    def test_single_broadside_ray_is_constant(self):
        geom = build_port_geometry(32, 10.0, 3.5e9)
        ch = ssc_channel_from_rays(geom, [0.0], [1.0])
        assert np.allclose(ch.values, np.ones(32), rtol=0, atol=1e-15)
        assert np.isclose(np.linalg.norm(ch.values) ** 2, 32.0, rtol=1e-12)

    def test_steering_entries_have_unit_modulus(self):
        geom = build_port_geometry(16, 4.0, 2.8e9)
        mat = steering_matrix(geom, np.linspace(-1, 1, 11))
        assert np.allclose(np.abs(mat), 1.0, rtol=0, atol=1e-12)

    # 1000 and 3000 are not multiples of b = ceil(sqrt(N)), so the last hi row is cut short
    @pytest.mark.parametrize("n", [2, 3, 17, 256, 1000, 1024, 2048, 3000, 4096])
    def test_factored_steering_matches_direct_formula(self, n):
        geom = build_port_geometry(n, 10.0, 3.5e9)
        s = np.concatenate([np.linspace(-1.0, 1.0, 201), np.random.default_rng(n).uniform(-1, 1, 50)])
        direct = np.exp(-2j * np.pi * np.outer(geom.positions, s) / geom.wavelength)
        mat = steering_matrix(geom, s)
        assert mat.shape == (n, s.size)
        assert np.abs(mat - direct).max() <= 1e-12
        assert np.all(steering_matrix(geom, [0.0]) == 1.0)

    @pytest.mark.parametrize("n", [2, 17, 1000])
    def test_ray_sum_matches_direct_formula(self, n):
        geom = build_port_geometry(n, 10.0, 3.5e9)
        rng = np.random.default_rng(n)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, 300)
        gains = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        phase = -2j * np.pi * np.outer(geom.positions, np.sin(angles)) / geom.wavelength
        direct = np.exp(phase) @ gains / np.sqrt(300)
        values = ssc_channel_from_rays(geom, angles, gains).values
        assert values.shape == (n,)
        assert np.abs(values - direct).max() <= 1e-12 * np.abs(gains).sum() / np.sqrt(300)

    def test_same_seed_reproduces_bit_for_bit(self):
        geom = build_port_geometry(64, 10.0, 3.5e9)
        params = SscModelParams(rng_seed=1234)
        a = generate_ssc_channel(geom, params)
        b = generate_ssc_channel(geom, params)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        geom = build_port_geometry(64, 10.0, 3.5e9)
        a = generate_ssc_channel(geom, SscModelParams(rng_seed=1))
        b = generate_ssc_channel(geom, SscModelParams(rng_seed=2))
        assert not np.allclose(a.values, b.values)

    def test_ensemble_power_is_port_count(self):
        # Monte Carlo oracle for E||h||^2 = N with the reference model size
        geom = build_port_geometry(256, 10.0, 3.5e9)
        acc = 0.0
        for seed in range(1000):
            ch = generate_ssc_channel(geom, SscModelParams(9, 100, 5.0, rng_seed=seed))
            acc += np.linalg.norm(ch.values) ** 2 / 256.0
        assert 0.9 < acc / 1000.0 < 1.1

    @pytest.mark.parametrize("c,r,s", [(0, 100, 5.0), (9, 0, 5.0), (9, 100, -1.0), (9, 100, 90.0)])
    def test_params_validation(self, c, r, s):
        with pytest.raises(ValueError):
            SscModelParams(c, r, s)

    def test_ray_shape_mismatch(self):
        geom = build_port_geometry(8, 2.0, 1e9)
        with pytest.raises(ValueError):
            ssc_channel_from_rays(geom, [0.0, 0.1], [1.0])


class TestNoiseAndSnr:
    def test_snr_conversion_frozen_values(self):
        assert noise_power_for_snr(256.0, 20.0) == 2.56
        assert noise_power_for_snr(1.0, 0.0) == 1.0
        assert noise_power_for_snr(256.0, 10.0) == 25.6
        assert noise_power_for_snr(100.0, float("inf")) == 0.0

    def test_snr_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            noise_power_for_snr(0.0, 20.0)

    @pytest.mark.parametrize(
        "power, snr_db, name",
        [
            (float("nan"), 20.0, "h_ensemble_power"),
            (float("inf"), 20.0, "h_ensemble_power"),
            (256.0, float("nan"), "snr_db"),
        ],
    )
    def test_snr_rejects_non_finite_numbers(self, power, snr_db, name):
        # a NaN SNR gave a NaN noise power, and run_sweep failed later on its seed key
        with pytest.raises(ValueError, match=name):
            noise_power_for_snr(power, snr_db)

    def test_noise_variance_matches_request(self):
        # sample-variance oracle over 1e5 draws
        z = draw_port_noise(100_000, 0.01, rng_seed=77)
        var = np.mean(np.abs(z) ** 2)
        assert abs(var - 0.01) < 0.0005
        # real and imaginary parts carry half the power each
        assert abs(np.mean(z.real**2) - 0.005) < 0.0005

    def test_zero_noise_power_gives_zeros(self):
        assert np.array_equal(draw_port_noise(16, 0.0, 3), np.zeros(16))

    def test_negative_noise_power_rejected(self):
        with pytest.raises(ValueError):
            draw_port_noise(4, -0.1, 0)

    @pytest.mark.parametrize("noise_power", [float("nan"), float("inf")])
    def test_non_finite_noise_power_rejected(self, noise_power):
        with pytest.raises(ValueError, match="noise power"):
            draw_port_noise(4, noise_power, 0)

    @pytest.mark.parametrize("noise_power", [float("nan"), float("inf")])
    def test_observations_reject_non_finite_noise_power(self, noise_power):
        geom = build_port_geometry(16, 5.0, 3.5e9)
        plan = design_plan(kernel_exponential(geom), 2, 2, 0.5)
        h = generate_ssc_channel(geom, SscModelParams(2, 5, 5.0, rng_seed=1))
        with pytest.raises(ValueError, match="noise power"):
            observe_ports(h.values, plan.order, noise_power, rng_seed=2)
        with pytest.raises(ValueError, match="noise power"):
            observe_pilots(h, plan, noise_power, rng_seed=2)


class TestObservation:
    def _plan(self, n=16, p=2, m=2, noise=0.0):
        geom = build_port_geometry(n, 5.0, 3.5e9)
        return design_plan(kernel_exponential(geom), p, m, noise)

    def test_noiseless_observation_reads_ports_exactly(self):
        plan = self._plan()
        h = np.arange(16) + 1j * np.arange(16)[::-1]
        y = observe_ports(h, plan.order, 0.0, rng_seed=5)
        assert np.array_equal(y, h[list(plan.order)])

    def test_observe_pilots_binds_to_plan(self):
        plan = self._plan(noise=0.5)
        geom = build_port_geometry(16, 5.0, 3.5e9)
        ch = generate_ssc_channel(geom, SscModelParams(3, 10, 5.0, rng_seed=9))
        obs = observe_pilots(ch, plan, 0.5, rng_seed=11)
        assert isinstance(obs, PilotObservation)
        assert obs.plan_id == plan.plan_id
        assert obs.values.shape == (4,)

    def test_shared_ports_see_identical_noise(self):
        # two port subsets observed under the same seed agree wherever they overlap
        h = np.zeros(32, dtype=complex)
        y_a = observe_ports(h, [3, 7, 20], 1.0, rng_seed=42)
        y_b = observe_ports(h, [7, 8, 20], 1.0, rng_seed=42)
        assert y_a[1] == y_b[0]  # port 7
        assert y_a[2] == y_b[2]  # port 20

    def test_wrong_channel_length_rejected(self):
        plan = self._plan()
        ch = generate_ssc_channel(build_port_geometry(8, 5.0, 3.5e9), SscModelParams(3, 10, 5.0, 1))
        with pytest.raises(ValueError):
            observe_pilots(ch, plan, 0.0, rng_seed=0)

    def test_duplicate_and_out_of_range_ports_rejected(self):
        h = np.ones(8, dtype=complex)
        with pytest.raises(ValueError):
            observe_ports(h, [1, 1], 0.0, 0)
        with pytest.raises(ValueError):
            observe_ports(h, [7, 8], 0.0, 0)

    @pytest.mark.parametrize(
        "ports, match",
        [
            ([0.9, 2.5], "integral"),  # used to measure ports 0 and 2
            ([True, False], "integral"),  # used to measure ports 1 and 0
            ([True, 3], "integral"),
            ((3, np.True_), "integral"),
            (np.array([2.0, np.nan]), "integral"),
            ([[0, 1], [2, 3]], "one measurement per port"),  # used to return a 2 x 2 block
            (np.array([2.0, np.inf]), "out of range"),
        ],
    )
    def test_ports_that_are_not_a_port_set_rejected(self, ports, match):
        with pytest.raises(ValueError, match=match):
            observe_ports(np.ones(8, dtype=complex), ports, 0.0, 0)

    def test_whole_float_ports_are_ports(self):
        h = np.arange(8.0) + 0j
        assert np.array_equal(observe_ports(h, np.array([3.0, 0.0]), 0.0, 0), [3.0, 0.0])

    @pytest.mark.parametrize("ports", [[1, 2], [10, 2]])
    def test_a_block_of_channels_is_rejected(self, ports):
        # a (4, 8) block used to pass the port check against 4 * 8 ports, then
        # fail in numpy broadcasting ([1, 2]) or indexing ([10, 2])
        with pytest.raises(ValueError, match=r"\(4, 8\)"):
            observe_ports(np.ones((4, 8), dtype=complex), ports, 0.0, 0)

    def test_observe_pilots_measures_the_plan_order_as_observe_ports_does(self):
        plan = self._plan(noise=0.5)
        ch = generate_ssc_channel(build_port_geometry(16, 5.0, 3.5e9), SscModelParams(3, 10, 5.0, rng_seed=9))
        obs = observe_pilots(ch, plan, 0.5, rng_seed=11)
        assert obs.values.tobytes() == observe_ports(ch.values, plan.order, 0.5, rng_seed=11).tobytes()

    @pytest.mark.parametrize("order", [(3, 0, 3, 5), (3, 0, 2, 16), (3, -1, 2, 5), (3, 0, 2, 4.5)])
    def test_a_bad_order_is_rejected_before_observe_pilots(self, order):
        # the frozen plan refuses a bad order when it is made, before any observation
        with pytest.raises(ValueError):
            replace(self._plan(), order=order)

    def test_observe_pilots_rejects_a_block_of_channels(self):
        plan = self._plan()
        with pytest.raises(ValueError, match="channel length"):
            observe_pilots(ChannelRealization(np.ones((1, 16), dtype=complex)), plan, 0.0, rng_seed=0)
