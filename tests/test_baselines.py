"""Baseline estimator tests.

The nearest-hold scheme is checked against a brute-force per-port loop,
and the pursuit against planted on-grid sparse channels it must recover
exactly in the noiseless case, and against a reference pursuit that
refits every pick with ``np.linalg.lstsq``.
"""

import warnings

import numpy as np
import pytest

from fasbar import (
    RankDeficientFitWarning,
    SscModelParams,
    build_port_geometry,
    build_steering_dictionary,
    estimate_fas_omp,
    estimate_selmmse,
    generate_ssc_channel,
    random_ports,
    selmmse_ports,
)
from fasbar.baselines import omp_solve


def lstsq_pursuit(a, y, max_atoms, residual_tol):
    """Reference OMP: argmax |a^H r|, then a fresh lstsq refit of every pick."""
    norm_y = float(np.linalg.norm(y))
    support, coeffs = [], np.zeros(0, dtype=complex)
    residual = y.astype(complex)
    norms = [norm_y]
    if norm_y == 0.0:
        return coeffs, support, norms
    for _ in range(max_atoms):
        if norms[-1] <= residual_tol * norm_y:
            break
        corr = np.abs(a.conj().T @ residual)
        corr[support] = -1.0
        trial = support + [int(np.argmax(corr))]
        sol, _, rank, _ = np.linalg.lstsq(a[:, trial], y, rcond=None)
        if rank < len(trial):
            warnings.warn("rank-deficient refit", RankDeficientFitWarning)
            break
        support, coeffs = trial, sol
        residual = y - a[:, support] @ coeffs
        norms.append(float(np.linalg.norm(residual)))
    return coeffs, support, norms


@pytest.fixture(scope="module")
def geom():
    return build_port_geometry(64, 10.0, 3.5e9)


@pytest.fixture(scope="module")
def dictionary(geom):
    return build_steering_dictionary(geom)


class TestSteeringDictionary:
    def test_grid_and_shape(self, geom, dictionary):
        assert dictionary.matrix.shape == (64, 256)
        assert dictionary.grid[0] == -1.0 and dictionary.grid[-1] == 1.0
        steps = np.diff(dictionary.grid)
        assert np.allclose(steps, steps[0], rtol=1e-12)

    def test_columns_have_norm_sqrt_n(self, dictionary):
        norms = np.linalg.norm(dictionary.matrix, axis=0)
        assert np.allclose(norms, np.sqrt(64), rtol=1e-12)
        assert np.allclose(np.abs(dictionary.matrix), 1.0, atol=1e-12)

    def test_oversampling_validated(self, geom):
        with pytest.raises(ValueError):
            build_steering_dictionary(geom, 0)


class TestSelmmse:
    def test_all_ports_when_budget_equals_n(self):
        assert np.array_equal(selmmse_ports(4, 4), [0, 1, 2, 3])

    def test_two_of_four(self):
        assert np.array_equal(selmmse_ports(4, 2), [0, 2])

    def test_ports_distinct_and_increasing(self):
        ports = selmmse_ports(256, 40)
        assert np.all(np.diff(ports) > 0)
        assert ports[0] >= 0 and ports[-1] < 256

    def test_budget_cannot_exceed_ports(self):
        with pytest.raises(ValueError):
            selmmse_ports(4, 5)

    def test_hold_pattern_with_tie_to_lower_port(self):
        # ports {0, 2}: port 1 is equidistant and must copy port 0
        est = estimate_selmmse(np.array([1 + 1j, 2.0]), [0, 2], 4)
        assert np.array_equal(est.values, [1 + 1j, 1 + 1j, 2.0, 2.0])

    def test_full_measurement_is_exact(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = estimate_selmmse(h, np.arange(8), 8)
        assert np.array_equal(est.values, h)

    def test_measured_ports_keep_their_measurements(self):
        rng = np.random.default_rng(4)
        ports = selmmse_ports(64, 12)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        est = estimate_selmmse(y, ports, 64)
        assert np.array_equal(est.values[ports], y)

    def test_matches_bruteforce_nearest_oracle(self):
        rng = np.random.default_rng(5)
        n, pm = 256, 40
        ports = selmmse_ports(n, pm)
        y = rng.standard_normal(pm) + 1j * rng.standard_normal(pm)
        est = estimate_selmmse(y, ports, n)
        for port in range(n):
            dists = np.abs(ports - port)
            best = ports[dists == dists.min()].min()  # lower port wins ties
            assert est.values[port] == y[list(ports).index(best)]

    def test_matches_bruteforce_nearest_oracle_n1024(self):
        rng = np.random.default_rng(6)
        n, pm = 1024, 40
        ports = selmmse_ports(n, pm)
        y = rng.standard_normal(pm) + 1j * rng.standard_normal(pm)
        est = estimate_selmmse(y, ports, n)
        for port in range(n):
            dists = np.abs(ports - port)
            best = ports[dists == dists.min()].min()  # lower port wins ties
            assert est.values[port] == y[list(ports).index(best)]

    def test_matches_distance_matrix_argmin(self):
        # the N x PM distance-matrix rule, on unsorted ports with repeats
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            ports = rng.integers(0, n, int(rng.integers(1, 12)))
            y = rng.standard_normal(ports.size) + 1j * rng.standard_normal(ports.size)
            srt = np.argsort(ports, kind="stable")
            dist = np.abs(np.arange(n)[:, None] - ports[srt][None, :])
            expected = y[srt][np.argmin(dist, axis=1)]
            assert np.array_equal(estimate_selmmse(y, ports, n).values, expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_selmmse(np.ones(3), [0, 2], 4)

    @pytest.mark.parametrize("ports", [[-5, 2, 10], [0, 2, 16], [-1, 2, 5]])
    def test_ports_outside_the_aperture_rejected(self, ports):
        with pytest.raises(ValueError, match="out of range"):
            estimate_selmmse(np.ones(3), ports, 16)


class TestOmp:
    def test_single_on_grid_atom_recovered_exactly(self, geom, dictionary):
        h = 0.8j * dictionary.matrix[:, 100]
        ports = random_ports(64, 6, rng_seed=11)
        est = estimate_fas_omp(h[ports], ports, dictionary, max_atoms=1)
        nmse = np.linalg.norm(h - est.values) ** 2 / np.linalg.norm(h) ** 2
        assert nmse < 1e-10

    def test_two_separated_atoms_recovered(self, geom, dictionary):
        h = dictionary.matrix[:, 40] + 0.8j * dictionary.matrix[:, 200]
        ports = random_ports(64, 8, rng_seed=12)
        est = estimate_fas_omp(h[ports], ports, dictionary, max_atoms=2)
        nmse = np.linalg.norm(h - est.values) ** 2 / np.linalg.norm(h) ** 2
        assert nmse < 1e-6

    def test_zero_observation_returns_zero_without_iterating(self, dictionary):
        ports = np.arange(6)
        coeffs, support, norms = omp_solve(dictionary.matrix[ports], np.zeros(6), 5, 1e-3)
        assert support == [] and norms == [0.0]
        est = estimate_fas_omp(np.zeros(6), ports, dictionary)
        assert np.array_equal(est.values, np.zeros(64))

    def test_residual_norms_never_increase(self, dictionary):
        rng = np.random.default_rng(13)
        ports = random_ports(64, 16, rng_seed=14)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        _, support, norms = omp_solve(dictionary.matrix[ports], y, 9, 0.0)
        assert np.all(np.diff(norms) <= 1e-12)
        assert len(set(support)) == len(support)

    def test_atom_budget_respected(self, dictionary):
        rng = np.random.default_rng(15)
        ports = random_ports(64, 20, rng_seed=16)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        _, support, _ = omp_solve(dictionary.matrix[ports], y, 3, 0.0)
        assert len(support) == 3

    def test_rank_deficient_refit_warns_and_stops(self, dictionary):
        # 2 measurements cannot support a third atom: the refit must go
        # rank deficient and the pursuit must keep the last full-rank fit
        rng = np.random.default_rng(17)
        ports = np.array([5, 40])
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        with pytest.warns(RankDeficientFitWarning):
            _, support, _ = omp_solve(dictionary.matrix[ports], y, 3, 0.0)
        assert len(support) == 2

    @pytest.mark.parametrize("n,count", [(256, 200), (64, 60)])
    def test_matches_lstsq_pursuit(self, n, count):
        # sweep-sized fits: a noisy SSC channel at P*M = 4..40 random ports
        geom = build_port_geometry(n, 10.0, 3.5e9)
        atoms = build_steering_dictionary(geom).matrix
        for seed in range(count):
            rng = np.random.default_rng(seed)
            pm = 4 * (seed % 10 + 1)
            ports = random_ports(n, pm, rng_seed=seed)
            h = generate_ssc_channel(geom, SscModelParams(rng_seed=seed)).values
            y = h[ports] + 0.1 * (rng.standard_normal(pm) + 1j * rng.standard_normal(pm))
            a = atoms[ports]
            ref_coeffs, ref_support, ref_norms = lstsq_pursuit(a, y, 9, 1e-3)
            coeffs, support, norms = omp_solve(a, y, 9, 1e-3)
            assert support == ref_support
            ref_est = atoms[:, ref_support] @ ref_coeffs
            est = atoms[:, support] @ coeffs
            assert np.linalg.norm(est - ref_est) <= 1e-10 * np.linalg.norm(ref_est)
            assert len(norms) == len(ref_norms)
            assert np.abs(np.subtract(norms, ref_norms)).max() <= 1e-12 * np.linalg.norm(y)

    def test_duplicated_column_stops_at_the_lstsq_pick(self):
        # the copy of atom 0 is picked last, once every other atom is used
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
            a[:, 3] = a[:, 0]
            y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            with pytest.warns(RankDeficientFitWarning):
                _, ref_support, _ = lstsq_pursuit(a, y, 4, 0.0)
            with pytest.warns(RankDeficientFitWarning):
                _, support, _ = omp_solve(a, y, 4, 0.0)
            assert support == ref_support and len(support) == 3

    def test_more_atoms_than_rows_stops_at_the_lstsq_pick(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        with pytest.warns(RankDeficientFitWarning):
            _, ref_support, _ = lstsq_pursuit(a, y, 5, 0.0)
        with pytest.warns(RankDeficientFitWarning):
            _, support, _ = omp_solve(a, y, 5, 0.0)
        assert support == ref_support and len(support) == 3

    def test_pursuit_never_calls_lstsq(self, dictionary, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq was called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        rng = np.random.default_rng(19)
        ports = random_ports(64, 16, rng_seed=20)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        _, support, _ = omp_solve(dictionary.matrix[ports], y, 9, 0.0)
        assert len(support) == 9
        with pytest.warns(RankDeficientFitWarning):
            omp_solve(dictionary.matrix[ports[:2]], y[:2], 3, 0.0)

    def test_extreme_scales_keep_the_fit(self, dictionary):
        # ||y|| formed directly underflows to 0 at 1e-200 and overflows at 1e200
        rng = np.random.default_rng(21)
        a = dictionary.matrix[random_ports(64, 16, rng_seed=22)]
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        coeffs, support, norms = omp_solve(a, y, 9, 1e-3)
        for scale in (1e-200, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled_coeffs, scaled_support, scaled_norms = omp_solve(a, y * scale, 9, 1e-3)
            assert scaled_support == support
            assert np.abs(scaled_coeffs / scale - coeffs).max() <= 1e-12 * np.abs(coeffs).max()
            assert np.abs(np.divide(scaled_norms, scale) - norms).max() <= 1e-12 * norms[0]

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_power_of_two_scales_are_bit_identical(self, dictionary, exponent):
        rng = np.random.default_rng(23)
        a = dictionary.matrix[random_ports(64, 16, rng_seed=24)]
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        coeffs, support, norms = omp_solve(a, y, 9, 1e-3)
        scale = 2.0**exponent
        scaled_coeffs, scaled_support, scaled_norms = omp_solve(a, y * scale, 9, 1e-3)
        assert scaled_support == support
        assert np.array_equal(scaled_coeffs, coeffs * scale)
        assert scaled_norms == [v * scale for v in norms]

    def test_argument_validation(self, dictionary):
        with pytest.raises(ValueError):
            estimate_fas_omp(np.ones(3), [0, 1], dictionary)
        with pytest.raises(ValueError):
            omp_solve(dictionary.matrix[:4], np.ones(4), 0, 1e-3)
        with pytest.raises(ValueError):
            omp_solve(dictionary.matrix[:4], np.ones(4), 2, -1.0)

    @pytest.mark.parametrize("ports", [[-1, 2, 5], [2, 5, 64]])
    def test_ports_outside_the_aperture_rejected(self, dictionary, ports):
        with pytest.raises(ValueError, match="out of range"):
            estimate_fas_omp(np.ones(3), ports, dictionary)


class TestRandomPorts:
    def test_distinct_sorted_and_seeded(self):
        a = random_ports(64, 10, rng_seed=1)
        b = random_ports(64, 10, rng_seed=1)
        c = random_ports(64, 10, rng_seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.diff(a) > 0)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            random_ports(8, 9, rng_seed=0)
        with pytest.raises(ValueError):
            random_ports(8, 0, rng_seed=0)
