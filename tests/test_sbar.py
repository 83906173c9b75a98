"""Planning and reconstruction tests.

Oracles used here and nowhere in the package:

* batch_posterior  - posterior covariance recomputed from scratch via the
  block formula Sigma - Sigma(:,O) (Sigma(O,O)+s2 I)^-1 Sigma(O,:);
* inverse_weights  - weights via an explicit matrix inverse;
* greedy_oracle    - port selection re-derived with batch recomputation at
  every step;
* compute_weights  - the weights by a Cholesky solve of the measured-port
  system, given the order;
* reference_design - the dense rank-one chain (initial_posterior +
  posterior_update_one + compute_weights) that the pivoted-Cholesky
  design_plan must reproduce.

Hand-frozen cases (the diag(1,2,3) walk-through, identity-kernel weights)
were worked out by hand first.
"""

import hashlib
import inspect
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, toeplitz
from scipy.special import jv
from scipy.stats import chi2, norm

import fasbar.sbar
from fasbar import (
    Kernel,
    PilotObservation,
    SamplingPlan,
    SscModelParams,
    build_port_geometry,
    default_eta,
    design_plan,
    generate_ssc_channel,
    initial_posterior,
    kernel_bessel,
    kernel_covariance,
    kernel_exponential,
    posterior_update_one,
    reconstruct,
    ssc_channel_from_rays,
    stacked_switch_matrix,
)


def batch_posterior(sigma, measured, noise_power):
    """Posterior covariance from scratch; independent of the package's updates."""
    if not measured:
        return sigma.copy()
    idx = list(measured)
    gram = sigma[np.ix_(idx, idx)] + noise_power * np.eye(len(idx))
    cross = sigma[idx, :]
    return sigma - cross.conj().T @ np.linalg.solve(gram, cross)


def inverse_weights(sigma, order, noise_power):
    idx = list(order)
    gram = sigma[np.ix_(idx, idx)] + noise_power * np.eye(len(idx))
    return np.linalg.inv(gram) @ sigma[idx, :]


def greedy_oracle(sigma, num_picks, noise_power):
    order = []
    for _ in range(num_picks):
        diag = batch_posterior(sigma, order, noise_power).diagonal().real.copy()
        diag[order] = -np.inf
        order.append(int(np.argmax(diag)))
    return tuple(order)


def compute_weights(kernel, order, noise_power):
    """Solve (Sigma(Omega, Omega) + s2*I) w = Sigma(Omega, :) for the weights.

    Solved via Cholesky factorization of the Hermitian system, never by
    forming an inverse.  Raises numpy.linalg.LinAlgError if the system is
    not positive definite.
    """
    idx = np.asarray(order, dtype=int)
    if idx.size == 0:
        raise ValueError("order must contain at least one port")
    if idx.size != np.unique(idx).size:
        raise ValueError("order must not repeat ports")
    sigma = kernel.matrix
    if idx.min() < 0 or idx.max() >= sigma.shape[0]:
        raise ValueError("port index out of range")
    if noise_power < 0.0:
        raise ValueError("noise_power must be nonnegative")
    gram = sigma[np.ix_(idx, idx)] + noise_power * np.eye(idx.size)
    factor = cho_factor(gram, lower=True)
    return cho_solve(factor, sigma[idx, :])


def reference_design(kernel, num_picks, noise_power):
    """Greedy design through the dense rank-one chain.

    Returns (order, posterior variances after every pick, weights).
    """
    state = initial_posterior(kernel, noise_power)
    history = [state.variances.copy()]
    for _ in range(num_picks):
        scores = state.variances.copy()
        scores[list(state.measured)] = -np.inf
        state = posterior_update_one(state, int(np.argmax(scores)))
        history.append(state.variances.copy())
    return state.measured, history, compute_weights(kernel, state.measured, noise_power)


def assert_matches_reference(kernel, p, m, noise_power):
    """design_plan agrees with the reference chain, or differs at a tie only.

    Same order: post_diag within 1e-12 absolute, weights within 1e-10
    relative.  A different order is accepted only if the first differing
    pick scored within 1e-12 * max variance of the reference's pick.
    """
    plan = design_plan(kernel, p, m, noise_power)
    order, history, weights = reference_design(kernel, p * m, noise_power)
    if plan.order != order:
        step = next(i for i, (a, b) in enumerate(zip(plan.order, order)) if a != b)
        variances = history[step]
        gap = abs(variances[plan.order[step]] - variances[order[step]])
        assert gap <= 1e-12 * variances.max(), f"pick {step} differs by {gap:.3e}, not a tie"
        return
    assert np.abs(plan.post_diag - history[-1]).max() <= 1e-12
    assert np.abs(plan.weights - weights).max() <= 1e-10 * np.abs(weights).max()


def random_psd_kernel(rng, n, base=0.1):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return Kernel(b @ b.conj().T + base * np.eye(n), "covariance")


def diag_kernel(values):
    return Kernel(np.diag(values).astype(complex), "covariance")


class TestPosteriorUpdate:
    def test_identity_prior_single_measurement(self):
        state = initial_posterior(diag_kernel([1.0, 1.0, 1.0]), 0.0)
        new = posterior_update_one(state, 0)
        assert np.allclose(new.post_cov, np.diag([0.0, 1.0, 1.0]), atol=1e-15)
        assert new.measured == (0,)

    def test_diag_123_walkthrough(self):
        # prior diag (1,2,3), s2=1: measuring port 3 gives diag (1, 2, 3 - 9/4)
        state = initial_posterior(diag_kernel([1.0, 2.0, 3.0]), 1.0)
        new = posterior_update_one(state, 2)
        assert np.allclose(new.variances, [1.0, 2.0, 0.75], atol=1e-15)

    def test_matches_batch_formula_step_by_step(self):
        rng = np.random.default_rng(21)
        kernel = random_psd_kernel(rng, 24)
        noise = 0.3
        state = initial_posterior(kernel, noise)
        picks = rng.choice(24, size=10, replace=False)
        for i, port in enumerate(picks):
            state = posterior_update_one(state, int(port))
            expected = batch_posterior(kernel.matrix, list(picks[: i + 1]), noise)
            rel = np.linalg.norm(state.post_cov - expected) / np.linalg.norm(expected)
            assert rel < 1e-10

    def test_variances_never_increase_and_stay_below_prior(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            kernel = random_psd_kernel(rng, n)
            noise = float(rng.uniform(0.0, 2.0))
            prior_diag = kernel.matrix.diagonal().real
            state = initial_posterior(kernel, noise)
            for port in rng.permutation(n)[: n // 2]:
                before = state.variances
                state = posterior_update_one(state, int(port))
                after = state.variances
                assert np.all(after <= before + 1e-10)
                assert np.all(after <= prior_diag + 1e-10)
                assert np.array_equal(state.post_cov, state.post_cov.conj().T)

    def test_rejects_repeat_and_bad_ports(self):
        state = initial_posterior(diag_kernel([1.0, 1.0]), 0.0)
        state = posterior_update_one(state, 1)
        with pytest.raises(ValueError):
            posterior_update_one(state, 1)
        with pytest.raises(ValueError):
            posterior_update_one(state, 2)

    def test_collapsed_prior_raises(self):
        state = initial_posterior(diag_kernel([0.0, 0.0]), 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            posterior_update_one(state, 0)


class TestDesignPlan:
    def test_diag_123_selection_order(self):
        # hand walk-through: picks port of variance 3, then the one of variance 2
        plan = design_plan(diag_kernel([1.0, 2.0, 3.0]), 1, 2, 1.0)
        assert plan.order == (2, 1)
        assert np.allclose(plan.post_diag, [1.0, 2.0 / 3.0, 0.75], atol=1e-14)

    def test_identity_prior_ties_break_to_lowest_port(self):
        plan = design_plan(diag_kernel([1.0] * 5), 1, 3, 1.0)
        assert plan.order == (0, 1, 2)

    def test_matches_greedy_oracle_on_exponential_kernel(self):
        geom = build_port_geometry(8, 3.0, 3.5e9)
        kernel = kernel_exponential(geom)
        plan = design_plan(kernel, 3, 1, 0.5)
        assert plan.order == greedy_oracle(kernel.matrix, 3, 0.5)

    def test_deterministic_rebuild(self):
        geom = build_port_geometry(32, 10.0, 3.5e9)
        kernel = kernel_exponential(geom)
        a = design_plan(kernel, 3, 4, 0.7)
        b = design_plan(kernel, 3, 4, 0.7)
        assert a.order == b.order
        assert np.array_equal(a.weights, b.weights)
        assert a.plan_id == b.plan_id

    def test_plan_id_tracks_design_inputs(self):
        geom = build_port_geometry(16, 5.0, 3.5e9)
        kernel = kernel_exponential(geom)
        assert design_plan(kernel, 2, 2, 0.5).plan_id != design_plan(kernel, 2, 2, 0.6).plan_id

    def test_order_concatenates_switch_matrix_ports(self):
        geom = build_port_geometry(24, 8.0, 3.5e9)
        plan = design_plan(kernel_exponential(geom), 4, 3, 1.0)
        assert tuple(stacked_switch_matrix(plan).argmax(axis=1).tolist()) == plan.order
        assert len(set(plan.order)) == 12

    def test_stacked_switch_matrix_is_orthonormal(self):
        geom = build_port_geometry(24, 8.0, 3.5e9)
        plan = design_plan(kernel_exponential(geom), 4, 3, 1.0)
        s = stacked_switch_matrix(plan)
        assert s.dtype == np.int64
        assert np.array_equal(s @ s.T, np.eye(12, dtype=np.int64))
        assert np.all(s.sum(axis=1) == 1)
        assert np.all(s.sum(axis=0) <= 1)

    def test_weight_residual_invariant(self):
        geom = build_port_geometry(48, 10.0, 3.5e9)
        kernel = kernel_exponential(geom)
        plan = design_plan(kernel, 4, 4, 0.3)
        idx = list(plan.order)
        gram = kernel.matrix[np.ix_(idx, idx)] + 0.3 * np.eye(16)
        residual = np.abs(gram @ plan.weights - kernel.matrix[idx, :]).max()
        assert residual < 1e-8 * np.abs(kernel.matrix).max()

    def test_plan_too_large_rejected(self):
        geom = build_port_geometry(8, 2.0, 1e9)
        with pytest.raises(ValueError):
            design_plan(kernel_exponential(geom), 3, 3, 0.5)

    @pytest.mark.parametrize("p,m", [(0, 2), (2, 0)])
    def test_bad_slot_shape_rejected(self, p, m):
        geom = build_port_geometry(8, 2.0, 1e9)
        with pytest.raises(ValueError):
            design_plan(kernel_exponential(geom), p, m, 0.5)

    @pytest.mark.parametrize("noise_power", [-0.5, float("nan"), float("inf"), True, "0.5"])
    def test_bad_noise_power_rejected_up_front(self, noise_power):
        # True designed with s2 = 1 and "0.5" raised a TypeError from the comparison
        geom = build_port_geometry(8, 2.0, 1e9)
        with pytest.raises(ValueError, match="noise power must be (a finite number|nonnegative)"):
            design_plan(kernel_exponential(geom), 1, 2, noise_power)


class TestPivotedCholeskyDesign:
    def test_matches_reference_chain_on_random_psd_kernels(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            kernel = random_psd_kernel(rng, n, base=float(rng.uniform(1e-3, 1.0)))
            m = int(rng.integers(1, 4))
            p = int(rng.integers(1, n // m + 1))
            assert_matches_reference(kernel, p, m, float(rng.uniform(0.0, 2.0)))

    @pytest.mark.parametrize("kind", ["exponential", "bessel", "covariance"])
    @pytest.mark.parametrize("p", [1, 5, 10])
    def test_matches_reference_chain_on_the_three_kinds_at_256_ports(self, kind, p):
        geom = build_port_geometry(256, 10.0, 3.5e9)
        if kind == "exponential":
            kernel = kernel_exponential(geom)
        elif kind == "bessel":
            kernel = kernel_bessel(geom)
        else:
            kernel = kernel_covariance(
                [generate_ssc_channel(geom, SscModelParams(rng_seed=s)) for s in range(40)]
            )
        assert_matches_reference(kernel, p, 4, 2.56)

    def test_matches_reference_chain_up_to_ties_at_1024_ports(self):
        # far from the measured ports the variances sit within an ulp of the
        # prior, so the two recursions may break such a tie differently
        kernel = kernel_exponential(build_port_geometry(1024, 10.0, 3.5e9))
        assert_matches_reference(kernel, 10, 4, 10.24)

    @pytest.mark.parametrize("build", [kernel_exponential, kernel_bessel])
    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("pm", [20, 40])
    def test_toeplitz_view_designs_the_plan_of_its_dense_copy(self, build, n, pm):
        view = build(build_port_geometry(n, 10.0, 3.5e9))
        dense = Kernel(np.array(view.matrix), view.kind)
        a = design_plan(view, pm // 4, 4, n / 100.0)
        b = design_plan(dense, pm // 4, 4, n / 100.0)
        assert a.order == b.order
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.post_diag.tobytes() == b.post_diag.tobytes()

    def test_runs_without_the_dense_chain(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("design_plan must not use the dense chain")

        for name in ("initial_posterior", "posterior_update_one"):
            monkeypatch.setattr(fasbar.sbar, name, forbidden)
        geom = build_port_geometry(64, 10.0, 3.5e9)
        plan = design_plan(kernel_bessel(geom), 4, 4, 0.64)
        assert len(plan.order) == 16

    def test_indefinite_prior_rejected(self):
        # J_1(0) = 0, so this kernel has a zero diagonal and is indefinite
        geom = build_port_geometry(64, 10.0, 3.5e9)
        lags = (geom.positions - geom.positions[0]) / geom.wavelength
        kernel = Kernel(toeplitz(jv(1, lags / default_eta())).astype(complex), "covariance")
        with pytest.raises(ValueError, match="not positive semidefinite"):
            design_plan(kernel, 1, 4, 2.56)

    def test_memory_stays_linear_in_ports(self):
        # a quarter of one complex N x N matrix; the dense chain copies N^2
        # at every step
        n = 2048
        kernel = kernel_bessel(build_port_geometry(n, 10.0, 3.5e9))
        kernel.fingerprint  # hashed once up front, like a cached kernel
        tracemalloc.start()
        try:
            design_plan(kernel, 10, 4, n / 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16 / 4


class TestDesignPass:
    """One greedy pass designs every pilot budget, as lone designs do."""

    @pytest.mark.parametrize(
        "kind, n",
        [("bessel", 256), ("bessel", 1024), ("exponential", 256), ("exponential", 1024), ("covariance", 256)],
    )
    def test_each_budget_equals_its_lone_design(self, kind, n):
        geom = build_port_geometry(n, 10.0, 3.5e9)
        if kind == "bessel":
            kernel = kernel_bessel(geom)
        elif kind == "exponential":
            kernel = kernel_exponential(geom)
        else:
            kernel = kernel_covariance(
                [generate_ssc_channel(geom, SscModelParams(rng_seed=s)) for s in range(40)]
            )
        counts = (10, 1, 4, 4, 7)
        plans = fasbar.sbar._design_plans(kernel, counts, 4, n / 100.0)
        assert [plan.num_timeslots for plan in plans] == list(counts)
        for p, plan in zip(counts, plans):
            lone = design_plan(kernel, p, 4, n / 100.0)
            assert plan.order == lone.order
            assert plan.plan_id == lone.plan_id
            assert plan.weights.tobytes() == lone.weights.tobytes()
            assert plan.post_diag.tobytes() == lone.post_diag.tobytes()

    def test_pivot_collapse_fails_as_the_largest_lone_design(self):
        # three ports carry variance, so a fourth noiseless pick collapses
        kernel = diag_kernel([1.0, 2.0, 3.0, 0.0, 0.0])
        design_plan(kernel, 3, 1, 0.0)
        with pytest.raises(np.linalg.LinAlgError) as lone:
            design_plan(kernel, 4, 1, 0.0)
        with pytest.raises(np.linalg.LinAlgError) as joint:
            fasbar.sbar._design_plans(kernel, (1, 4, 3), 1, 0.0)
        assert str(joint.value) == str(lone.value)

    def test_indefinite_prior_fails_at_the_first_count_gone_negative(self):
        # ports 1 and 2 form the indefinite block [[3, 2], [2, 1]]; port 0 is
        # uncoupled and port 3 couples to port 2 alone, so the variances are
        # nonnegative after pick 1, then port 2 reaches 1 - 4/3.1 after pick 2
        # and lower after pick 3
        sigma = np.array(
            [[4.0, 0, 0, 0], [0, 3.0, 2.0, 0], [0, 2.0, 1.0, 0.3], [0, 0, 0.3, 0.5]], dtype=complex
        )
        kernel = Kernel(sigma, "covariance")
        design_plan(kernel, 1, 1, 0.1)
        messages = {}
        for p in (2, 3):
            with pytest.raises(ValueError, match="not positive semidefinite") as lone:
                design_plan(kernel, p, 1, 0.1)
            messages[p] = str(lone.value)
        assert messages[2] != messages[3]
        for counts, first in [((1, 2, 3), 2), ((3, 2), 3), ((2, 3), 2), ((1, 3), 3)]:
            with pytest.raises(ValueError) as joint:
                fasbar.sbar._design_plans(kernel, counts, 1, 0.1)
            assert str(joint.value) == messages[first]


class TestComputeWeights:
    def test_identity_kernel_zero_noise_selects(self):
        kernel = diag_kernel([1.0] * 6)
        w = compute_weights(kernel, (4, 1), 0.0)
        expected = np.zeros((2, 6), dtype=complex)
        expected[0, 4] = 1.0
        expected[1, 1] = 1.0
        assert np.allclose(w, expected, atol=1e-15)

    def test_identity_kernel_unit_noise_halves(self):
        kernel = diag_kernel([1.0] * 6)
        w = compute_weights(kernel, (0, 3), 1.0)
        assert np.allclose(w[0, 0], 0.5, rtol=1e-14)
        assert np.allclose(w[1, 3], 0.5, rtol=1e-14)
        assert np.allclose(np.delete(w[0], 0), 0.0, atol=1e-15)

    def test_matches_explicit_inverse_oracle(self):
        geom = build_port_geometry(6, 2.0, 3.5e9)
        kernel = kernel_exponential(geom)
        w = compute_weights(kernel, (1, 4), 0.1)
        assert np.allclose(w, inverse_weights(kernel.matrix, (1, 4), 0.1), rtol=1e-12)

    def test_singular_system_raises(self):
        kernel = diag_kernel([0.0, 0.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            compute_weights(kernel, (0, 1), 0.0)

    @pytest.mark.parametrize("order", [(), (1, 1), (0, 9)])
    def test_bad_orders_rejected(self, order):
        kernel = diag_kernel([1.0] * 4)
        with pytest.raises(ValueError):
            compute_weights(kernel, order, 0.1)


def hand_plan(**changes):
    """A valid 2-slot, 2-antenna plan over 6 ports, with fields replaced."""
    fields = dict(
        num_ports=6,
        num_timeslots=2,
        antennas_per_slot=2,
        order=(3, 0, 2, 5),
        weights=np.zeros((4, 6), dtype=complex),
        noise_power_design=0.1,
        kernel_fingerprint="hand",
        post_diag=np.ones(6),
    )
    fields.update(changes)
    return SamplingPlan(**fields)


class TestPlanValidation:
    def test_slots_are_consecutive_rows_of_the_order(self):
        s = stacked_switch_matrix(hand_plan())
        assert s.shape == (4, 6) and s.dtype == np.int64
        assert s[:2].argmax(axis=1).tolist() == [3, 0]
        assert s[2:].argmax(axis=1).tolist() == [2, 5]
        assert np.array_equal(s[:2] @ s[:2].T, np.eye(2, dtype=np.int64))

    @pytest.mark.parametrize(
        "changes",
        [
            {"order": (3, 0, 2)},
            {"order": (3, 0, 2, 5, 1)},
            {"order": (3, 0, 3, 5)},
            {"order": (3, 0, 2, 6)},
            {"order": (3, -1, 2, 5)},
            {"order": (3, 0, 2, 4.5)},
            {"order": (3, True, 2, 5)},
            {"num_timeslots": 0, "order": (), "weights": np.zeros((0, 6))},
            {"antennas_per_slot": 0, "order": (), "weights": np.zeros((0, 6))},
            {"weights": np.zeros((4, 5))},
            {"weights": np.zeros((6, 4))},
            {"weights": np.zeros(24)},
            {"post_diag": np.ones(5)},
            {"post_diag": np.ones((6, 1))},
            {"noise_power_design": -0.5},
            {"noise_power_design": float("nan")},
            {"noise_power_design": float("inf")},
        ],
        ids=[
            "order-short",
            "order-long",
            "order-repeats",
            "port-past-end",
            "port-negative",
            "port-fractional",
            "port-bool",
            "zero-slots",
            "zero-antennas",
            "weights-columns",
            "weights-transposed",
            "weights-flat",
            "post-diag-short",
            "post-diag-2d",
            "noise-negative",
            "noise-nan",
            "noise-inf",
        ],
    )
    def test_rejects_inconsistent_fields(self, changes):
        with pytest.raises(ValueError):
            hand_plan(**changes)


class TestReconstruct:
    def _setup(self, n=16, p=2, m=2, noise=0.01, seed=8):
        geom = build_port_geometry(n, 5.0, 3.5e9)
        kernel = kernel_exponential(geom)
        plan = design_plan(kernel, p, m, noise)
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = h[list(plan.order)] + np.sqrt(noise / 2) * (
            rng.standard_normal(p * m) + 1j * rng.standard_normal(p * m)
        )
        return kernel, plan, h, PilotObservation(y, noise, plan.plan_id)

    def test_matches_direct_posterior_mean_oracle(self):
        kernel, plan, _, obs = self._setup()
        rec = reconstruct(plan, obs)
        idx = list(plan.order)
        gram = kernel.matrix[np.ix_(idx, idx)] + 0.01 * np.eye(4)
        mu = kernel.matrix[:, idx] @ np.linalg.solve(gram, obs.values)
        assert np.allclose(rec.estimate, mu, rtol=1e-10, atol=1e-12)

    def test_full_noiseless_sampling_recovers_exactly(self):
        geom = build_port_geometry(12, 4.0, 3.5e9)
        kernel = kernel_exponential(geom)
        plan = design_plan(kernel, 3, 4, 0.0)
        h = ssc_channel_from_rays(geom, [0.1, -0.4, 0.9], [1.0, 0.5j, -0.25]).values
        obs = PilotObservation(h[list(plan.order)], 0.0, plan.plan_id)
        rec = reconstruct(plan, obs)
        nmse = np.linalg.norm(h - rec.estimate) ** 2 / np.linalg.norm(h) ** 2
        assert nmse < 1e-8

    def test_zero_observation_gives_zero_estimate(self):
        _, plan, _, obs = self._setup()
        zero_obs = PilotObservation(np.zeros(4, dtype=complex), 0.01, plan.plan_id)
        rec = reconstruct(plan, zero_obs)
        assert np.array_equal(rec.estimate, np.zeros(16, dtype=complex))

    def test_confidence_band_is_three_sigma_per_part(self):
        _, plan, _, obs = self._setup()
        rec = reconstruct(plan, obs)
        assert np.array_equal(rec.post_variance, plan.post_diag)
        sigma = np.sqrt(plan.post_diag / 2)
        assert np.allclose(rec.confidence_lo.real, rec.estimate.real - 3 * sigma)
        assert np.allclose(rec.confidence_lo.imag, rec.estimate.imag - 3 * sigma)
        assert np.allclose(rec.confidence_hi.real, rec.estimate.real + 3 * sigma)
        assert np.allclose(rec.confidence_hi.imag, rec.estimate.imag + 3 * sigma)

    def test_reconstruction_stores_only_the_estimate_and_variances(self):
        _, plan, _, obs = self._setup()
        rec = reconstruct(plan, obs)
        assert [f.name for f in fields(rec)] == ["estimate", "post_variance"]
        assert rec.post_variance is plan.post_diag

    def test_variances_and_band_are_calibrated_under_a_matched_prior(self):
        # channels drawn from the design kernel itself: the error at port i is CN(0, post_diag[i])
        n, trials, noise = 48, 4000, 0.05
        kernel = kernel_bessel(build_port_geometry(n, 6.0, 3.5e9))
        plan = design_plan(kernel, 3, 2, noise)
        vals, vecs = np.linalg.eigh(kernel.matrix)
        root = vecs * np.sqrt(np.maximum(vals, 0.0))
        rng = np.random.default_rng(2024)

        def cn(*shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

        errors = np.empty((trials, n), dtype=complex)
        inside = np.zeros(2)
        for t in range(trials):
            h = root @ cn(n)
            y = h[list(plan.order)] + np.sqrt(noise) * cn(plan.num_measurements)
            rec = reconstruct(plan, PilotObservation(y, noise, plan.plan_id))
            errors[t] = h - rec.estimate
            inside += [
                np.count_nonzero((rec.confidence_lo.real <= h.real) & (h.real <= rec.confidence_hi.real)),
                np.count_nonzero((rec.confidence_lo.imag <= h.imag) & (h.imag <= rec.confidence_hi.imag)),
            ]
        # 2 * sum_t |e_ti|^2 / v_i is chi-square with 2*trials degrees of freedom at every port
        stat = 2 * np.sum(np.abs(errors) ** 2, axis=0) / plan.post_diag
        tail = 1e-6 / (2 * n)
        assert chi2.ppf(tail, 2 * trials) < stat.min()
        assert stat.max() < chi2.ppf(1 - tail, 2 * trials)
        nominal = 2 * norm.cdf(3.0) - 1  # 99.73 %
        coverage = inside / (trials * n)
        assert np.all(np.abs(coverage - nominal) < 0.003), coverage

    def test_plan_id_is_hashed_once_per_plan(self, monkeypatch):
        _, plan, _, obs = self._setup()
        fresh = replace(plan)
        calls = []

        def counting_sha256(*args):
            calls.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(fasbar.sbar, "hashlib", SimpleNamespace(sha256=counting_sha256))
        for _ in range(5):
            reconstruct(fresh, obs)
        assert fresh.plan_id == plan.plan_id
        assert len(calls) == 1

    def test_observation_binding_enforced(self):
        _, plan, _, obs = self._setup()
        with pytest.raises(ValueError):
            reconstruct(plan, PilotObservation(obs.values, 0.01, "someone-else"))
        with pytest.raises(ValueError):
            reconstruct(plan, PilotObservation(obs.values[:3], 0.01, plan.plan_id))
        with pytest.raises(ValueError):
            reconstruct(plan, PilotObservation(obs.values, 0.02, plan.plan_id))

    def test_block_of_rounds_matches_single_calls(self):
        # gemm may sum in another order than gemv, so rows agree to rounding
        geom = build_port_geometry(256, 10.0, 3.5e9)
        noise = 0.05
        plan = design_plan(kernel_bessel(geom), 5, 4, noise)
        rng = np.random.default_rng(31)
        block = rng.standard_normal((25, 20)) + 1j * rng.standard_normal((25, 20))
        rec = reconstruct(plan, PilotObservation(block, noise, plan.plan_id))
        assert rec.estimate.shape == (25, 256)
        assert rec.post_variance is plan.post_diag
        for row, y in zip(rec.estimate, block):
            single = reconstruct(plan, PilotObservation(y, noise, plan.plan_id)).estimate
            assert np.abs(row - single).max() <= 1e-12 * np.abs(single).max()
        assert rec.confidence_lo.shape == rec.confidence_hi.shape == (25, 256)

    def test_block_checks_match_the_single_round(self):
        _, plan, _, obs = self._setup()
        block = np.vstack([obs.values, 2 * obs.values, -obs.values])
        reconstruct(plan, PilotObservation(block, 0.01, plan.plan_id))
        bad = [
            PilotObservation(block[:, :3], 0.01, plan.plan_id),
            PilotObservation(np.hstack([block, block[:, :1]]), 0.01, plan.plan_id),
            PilotObservation(block[:, :, None], 0.01, plan.plan_id),
            PilotObservation(block[0, 0], 0.01, plan.plan_id),
            PilotObservation(block, 0.01, "someone-else"),
            PilotObservation(block, 0.02, plan.plan_id),
        ]
        for observation in bad:
            with pytest.raises(ValueError):
                reconstruct(plan, observation)

    def test_online_stage_never_sees_the_kernel(self):
        params = inspect.signature(reconstruct).parameters
        assert list(params) == ["plan", "observation"]
