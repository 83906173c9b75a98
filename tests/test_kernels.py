"""Kernel construction tests.

The Bessel entries are checked against an independent power-series
evaluation of J_nu, and the exponential entries against hand-computed
closed forms, so the scipy routines the package uses are never their own
oracle.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import jv

import fasbar.kernels
from fasbar import (
    SscModelParams,
    build_port_geometry,
    default_eta,
    design_plan,
    generate_ssc_channel,
    kernel_bessel,
    kernel_covariance,
    kernel_exponential,
    load_kernel,
    save_kernel,
)

C_LIGHT = 299_792_458.0
J0_FIRST_ZERO = 2.404825557695773


def bessel_series(order, x, terms=60):
    """Independent J_order via the ascending power series.

    Exact rational arithmetic: at x ~ 25 the terms grow to ~1e10 before
    cancelling, which float64 cannot survive, so the single rounding step
    happens only on the final sum.
    """
    half = Fraction(x) / 2
    half_sq = half * half
    power = half**order
    total = Fraction(0)
    for k in range(terms):
        total += (-1) ** k * power / (math.factorial(k) * math.factorial(k + order))
        power *= half_sq
    return float(total)


def unit_wavelength_geometry(num_ports, aperture):
    # carrier c/1 Hz gives wavelength exactly 1 m
    return build_port_geometry(num_ports, aperture, C_LIGHT)


class TestExponentialKernel:
    def test_zero_distance_gives_alpha_squared(self):
        geom = build_port_geometry(16, 10.0, 3.5e9)
        k = kernel_exponential(geom, alpha=1.7)
        assert np.allclose(k.matrix.diagonal().real, 1.7**2, rtol=1e-8)
        assert np.all(k.matrix.diagonal().imag == 0.0)

    def test_half_wavelength_entry_frozen(self):
        # alpha=1, eta=sqrt(lambda/2pi), lambda=1: at distance lambda/2 the
        # entry is exp(-(1/4)*2pi) = exp(-pi/2) = 0.20787957635076193
        geom = unit_wavelength_geometry(3, 1.0)
        assert geom.wavelength == 1.0
        k = kernel_exponential(geom, jitter=0.0)
        assert np.isclose(k.matrix[0, 1].real, 0.20787957635076193, rtol=1e-12)

    def test_entries_decay_with_distance(self):
        geom = build_port_geometry(32, 10.0, 3.5e9)
        row = kernel_exponential(geom, jitter=0.0).matrix[0].real
        assert np.all(np.diff(row) < 0)
        assert np.all(row > 0)

    def test_port_reversal_symmetry(self):
        geom = build_port_geometry(17, 6.0, 2.2e9)
        k = kernel_exponential(geom, jitter=0.0).matrix.real
        flipped = k[::-1, ::-1]
        assert np.allclose(k, flipped, rtol=1e-12)

    def test_real_symmetric_and_hermitian_as_stored(self):
        geom = build_port_geometry(24, 8.0, 3.5e9)
        k = kernel_bessel(geom).matrix
        assert np.array_equal(k, k.conj().T)
        assert np.all(k.imag == 0.0)

    def test_default_eta_value(self):
        assert np.isclose(default_eta(), math.sqrt(1.0 / (2 * math.pi)), rtol=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"eta": -1.0},
            {"jitter": -1e-3},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"eta": float("nan")},
            {"eta": float("inf")},
            {"jitter": float("nan")},
            {"jitter": float("inf")},
        ],
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        # NaN and infinity passed the bare comparisons and built a NaN or infinite kernel
        geom = build_port_geometry(8, 2.0, 1e9)
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            kernel_exponential(geom, **kwargs)


class TestBesselKernel:
    def test_zero_distance_gives_alpha_squared(self):
        geom = build_port_geometry(16, 10.0, 3.5e9)
        k = kernel_bessel(geom, alpha=2.0, jitter=0.0)
        assert np.allclose(k.matrix.diagonal().real, 4.0, rtol=1e-12)

    def test_first_zero_of_j0_frozen(self):
        # place adjacent ports so that distance/eta hits the first J0 root;
        # kernel distances are in wavelengths, so scale the spacing down
        geom = build_port_geometry(2, 1.0, 1e9)
        eta = geom.spacing / geom.wavelength / J0_FIRST_ZERO
        k = kernel_bessel(geom, eta=eta, jitter=0.0)
        assert abs(k.matrix[0, 1].real) < 1e-12

    def test_matches_independent_series(self):
        geom = build_port_geometry(32, 10.0, 3.5e9)
        k = kernel_bessel(geom, jitter=0.0)
        # uniform spacing makes the matrix Toeplitz, so the first row
        # already spans every distinct argument up to W/eta
        dist = (geom.positions - geom.positions[0]) / geom.wavelength
        expected = np.array([bessel_series(0, d / k.eta) for d in dist])
        assert np.max(np.abs(k.matrix[0].real - expected)) < 1e-12

    def test_oscillates_sign_with_distance(self):
        geom = build_port_geometry(64, 10.0, 3.5e9)
        row = kernel_bessel(geom, jitter=0.0).matrix[0].real
        assert row.min() < 0 < row.max()


class TestLagBuiltKernels:
    """The analytic kernels are built from N lags; check every pair."""

    @staticmethod
    def pairwise_distance(geom):
        return np.abs(geom.positions[:, None] - geom.positions[None, :]) / geom.wavelength

    def test_exponential_matches_pairwise_formula(self):
        geom = build_port_geometry(256, 10.0, 3.5e9)
        k = kernel_exponential(geom, alpha=1.3, eta=0.3, jitter=0.0)
        expected = 1.3**2 * np.exp(-((self.pairwise_distance(geom) / 0.3) ** 2))
        assert np.max(np.abs(k.matrix - expected)) < 1e-14

    def test_bessel_matches_pairwise_formula(self):
        geom = build_port_geometry(256, 10.0, 3.5e9)
        k = kernel_bessel(geom, alpha=1.3, jitter=0.0)
        expected = 1.3**2 * jv(0, self.pairwise_distance(geom) / k.eta)
        assert np.max(np.abs(k.matrix - expected)) < 1e-14

    def test_jitter_lands_on_the_diagonal_only(self):
        geom = build_port_geometry(32, 10.0, 3.5e9)
        bare = kernel_bessel(geom, jitter=0.0).matrix
        loaded = kernel_bessel(geom, jitter=0.25).matrix
        assert np.array_equal(loaded - bare, 0.25 * np.eye(32))
        assert np.array_equal(loaded, loaded.conj().T)


class TestToeplitzStorage:
    """An analytic kernel holds N lags; its matrix is a view of them."""

    @pytest.mark.parametrize("build", [kernel_exponential, kernel_bessel])
    def test_matrix_is_a_read_only_toeplitz_view_of_the_lags(self, build):
        k = build(build_port_geometry(40, 10.0, 3.5e9))
        assert k.matrix.shape == (40, 40) and k.matrix.dtype == complex
        assert not k.matrix.flags.writeable
        assert k.stored.shape == (40,)
        assert np.array_equal(k.matrix, toeplitz(k.stored))

    def test_trained_covariance_stays_dense(self):
        rng = np.random.default_rng(4)
        k = kernel_covariance([rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(3)])
        assert k.stored is k.matrix and k.matrix.flags.c_contiguous

    def test_offline_path_never_allocates_the_matrix(self, tmp_path):
        # build, hash, design and a kernel file round trip at N = 4096, where
        # one complex N x N matrix is 268 MB
        n = 4096
        path = tmp_path / "kernel.bin"
        tracemalloc.start()
        try:
            kernel = kernel_bessel(build_port_geometry(n, 10.0, 3.5e9))
            kernel.fingerprint
            design_plan(kernel, 10, 4, n / 100.0)
            save_kernel(path, kernel)
            loaded = load_kernel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 8
        assert path.stat().st_size < 1 << 20
        assert loaded.fingerprint == kernel.fingerprint


class TestCovarianceKernel:
    def test_single_channel_outer_product(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        k = kernel_covariance([h], jitter=0.0)
        expected = np.outer(h, h.conj())
        assert np.max(np.abs(k.matrix - expected)) < 1e-15 * np.abs(expected).max()
        assert k.kind == "covariance"

    def test_repeated_channel_collapses_to_outer_product(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        k = kernel_covariance([h, h, h, h], jitter=1e-6)
        expected = np.outer(h, h.conj()) + 1e-6 * np.eye(10)
        assert np.allclose(k.matrix, expected, rtol=1e-14, atol=1e-14)

    def test_rank_bounded_by_training_size(self):
        geom = build_port_geometry(128, 10.0, 3.5e9)
        ensemble = [
            generate_ssc_channel(geom, SscModelParams(rng_seed=s)) for s in range(50)
        ]
        k = kernel_covariance(ensemble, jitter=0.0)
        eigs = np.linalg.eigvalsh(k.matrix)
        assert np.sum(eigs > 1e-9 * eigs.max()) <= 50
        assert eigs.min() < 1e-9 * eigs.max()  # genuinely singular without jitter

    def test_diagonal_converges_to_unit_power(self):
        # Monte Carlo oracle: E|h(n)|^2 = 1 under the clustered model
        geom = build_port_geometry(32, 10.0, 3.5e9)
        ensemble = [
            generate_ssc_channel(geom, SscModelParams(9, 20, 5.0, rng_seed=s))
            for s in range(10_000)
        ]
        k = kernel_covariance(ensemble, jitter=0.0)
        diag = k.matrix.diagonal().real
        assert np.all(np.abs(diag - 1.0) < 0.1)

    def test_hermitian_as_stored(self):
        geom = build_port_geometry(32, 10.0, 3.5e9)
        ensemble = [generate_ssc_channel(geom, SscModelParams(rng_seed=s)) for s in range(5)]
        k = kernel_covariance(ensemble)
        assert np.array_equal(k.matrix, k.matrix.conj().T)

    def test_rejects_empty_or_ragged_training_sets(self):
        with pytest.raises(ValueError):
            kernel_covariance([])
        with pytest.raises(ValueError):
            kernel_covariance([np.ones(4), np.ones(5)])
        # a NaN entry built a kernel whose default jitter was NaN
        with pytest.raises(ValueError, match="non-finite"):
            kernel_covariance([np.ones(4), np.array([1.0, np.nan, 1.0, 1.0])])


class TestValidateAndFingerprint:
    def test_psd_after_jitter(self):
        geom = build_port_geometry(96, 10.0, 3.5e9)
        for k in (kernel_exponential(geom), kernel_bessel(geom)):
            trace_scale = np.trace(k.matrix).real / k.num_ports
            assert np.array_equal(k.matrix, k.matrix.conj().T)
            assert np.linalg.eigvalsh(k.matrix).min() >= -1e-8 * trace_scale

    def test_fingerprint_distinguishes_kernels(self):
        geom = build_port_geometry(16, 5.0, 3.5e9)
        prints = {
            kernel_exponential(geom).fingerprint,
            kernel_bessel(geom).fingerprint,
            kernel_exponential(geom, alpha=2.0).fingerprint,
            kernel_exponential(geom, eta=0.2).fingerprint,
        }
        assert len(prints) == 4

    def test_fingerprint_hashes_once_and_keeps_its_digest(self, monkeypatch):
        geom = build_port_geometry(16, 5.0, 3.5e9)
        k = kernel_exponential(geom)
        # an analytic kernel hashes its first column, the N lags
        head = f"{k.kind}|{k.num_ports}|{k.alpha!r}|{k.eta!r}|{k.jitter!r}"
        expected = hashlib.sha256(head.encode() + k.matrix[:, 0].astype("<c16").tobytes()).hexdigest()
        calls = []

        def counting_sha256(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(fasbar.kernels, "hashlib", SimpleNamespace(sha256=counting_sha256))
        first = k.fingerprint
        second = k.fingerprint
        assert first == second == expected
        assert len(calls) == 1

    def test_fingerprint_stable_across_rebuilds(self):
        geom = build_port_geometry(16, 5.0, 3.5e9)
        assert kernel_exponential(geom).fingerprint == kernel_exponential(geom).fingerprint

    def test_analytic_fingerprints_frozen(self):
        # SHA-256 over the newline-joined fingerprints of these 32 kernels, as
        # built when each constructor checked alpha and eta itself; any change
        # to the lags, the jitter or the hashed header moves it
        prints = [
            build(build_port_geometry(n, aperture, 3.5e9), alpha=alpha, eta=eta).fingerprint
            for build in (kernel_exponential, kernel_bessel)
            for n in (2, 17, 256, 1024)
            for aperture in (4.0, 10.0)
            for alpha, eta in ((1.0, None), (1.3, 0.3))
        ]
        digest = hashlib.sha256("\n".join(prints).encode()).hexdigest()
        assert digest == "3cf1c1f82779b294b0faaf65ccc2854cec45c8b50f47e8e181fe742ce4fc8798"
