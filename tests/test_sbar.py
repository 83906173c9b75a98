"""Planning and reconstruction tests.

Oracles used here and nowhere in the package:

* batch_posterior  - posterior covariance recomputed from scratch via the
  block formula Sigma - Sigma(:,O) (Sigma(O,O)+s2 I)^-1 Sigma(O,:);
* inverse_weights  - weights via an explicit matrix inverse;
* greedy_oracle    - port selection re-derived with batch recomputation at
  every step;
* compute_weights  - the weights by a Cholesky solve of the measured-port
  system, given the order;
* reference_design - the dense rank-one chain (initial_posterior and
  posterior_update_one from posterior_reference, then compute_weights)
  that the pivoted-Cholesky design_plan must reproduce;
* inverse_factor_design - the pivoted-Cholesky pass with its weights
  taken from np.linalg.inv of the K x K factor, which the package must
  match bit for bit, and checked against scipy.linalg.solve_triangular.

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
from scipy.linalg import cho_factor, cho_solve, solve_triangular, toeplitz
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
    kernel_bessel,
    kernel_covariance,
    kernel_exponential,
    load_plan,
    reconstruct,
    save_plan,
    ssc_channel_from_rays,
)
from helpers import stacked_switch_matrix
from posterior_reference import initial_posterior, posterior_update_one


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


#: max|w - w_solved| / max|w_solved| allowed between weights taken from the
#: inverse factor and those of ``scipy.linalg.solve_triangular``: 4 eps,
#: where the designs of this file reach 1.7 eps
SOLVE_AGREEMENT = 4 * np.finfo(float).eps


def inverse_factor_design(kernel, pilot_counts, m, noise_power):
    """(order, weights, post_diag) per count, as ``sbar._design_plans`` computes
    them, with the weights L^-H B^H taken from ``np.linalg.inv(L)``.

    The pass runs in the prior's field, the dtype of its matrix: float64 or
    complex128; the weights come back in that field.  Each weight matrix
    agrees with the one a triangular solve for L^-1 gives, within
    ``SOLVE_AGREEMENT``."""
    sigma = kernel.matrix
    n = kernel.num_ports
    k_max = max(pilot_counts) * m
    var = sigma.diagonal().real.copy()
    measured = np.zeros(n, dtype=bool)
    bh = np.empty((k_max, n), dtype=sigma.dtype)
    pivots = np.empty(k_max)
    order, post_diags = [], {}
    for i in range(k_max):
        j = int(np.argmax(np.where(measured, -np.inf, var)))
        pivots[i] = np.sqrt(var[j] + noise_power)
        bh[i] = (sigma[:, j].conj() - bh[:i, j].conj() @ bh[:i]) / pivots[i]
        var -= bh[i].real ** 2 + bh[i].imag ** 2
        measured[j] = True
        order.append(j)
        post_diags[i + 1] = var.copy()
    designs = []
    for p in pilot_counts:
        k = p * m
        factor = np.tril(bh[:k, order[:k]].conj().T, -1)
        factor[np.diag_indices(k)] = pivots[:k]
        weights = np.linalg.inv(factor).conj().T @ bh[:k]
        solved = solve_triangular(factor, np.eye(k), lower=True).conj().T @ bh[:k]
        assert np.abs(weights - solved).max() <= SOLVE_AGREEMENT * np.abs(solved).max()
        designs.append((tuple(order[:k]), weights, post_diags[k]))
    return designs


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
    # a rounded product is not exactly Hermitian; symmetrize as kernel_covariance does
    sigma = b @ b.conj().T + base * np.eye(n)
    return Kernel(0.5 * (sigma + sigma.conj().T), "covariance")


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

    @pytest.mark.parametrize(
        "n, build, snr_db",
        [
            (16, kernel_bessel, 20),
            (16, kernel_bessel, 40),
            (32, kernel_exponential, 20),
            (64, kernel_bessel, 20),
            (64, kernel_bessel, 40),
            (64, kernel_exponential, 10),
            (128, kernel_exponential, 40),
            (256, kernel_exponential, 30),
        ],
    )
    def test_real_arithmetic_breaks_ties_only(self, n, build, snr_db):
        # points where the float64 design of a real prior picks another port
        # than the complex128 one did, at a pick whose two candidates had
        # variances within 4e-16 of the largest; the dense chain bounds the gap
        kernel = build(build_port_geometry(n, 10.0, 3.5e9))
        pm = min(40, n)
        assert_matches_reference(kernel, pm // 4, 4, n / 10 ** (snr_db / 10))

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

    def test_a_prior_with_one_nudged_entry_yields_no_plan(self):
        # this designed a plan from a matrix that is no covariance, while the
        # same matrix saved to a file and loaded back was rejected
        rng = np.random.default_rng(7)
        sigma = np.array(random_psd_kernel(rng, 16).matrix)
        sigma[2, 9] += 0.3
        with pytest.raises(ValueError, match="not Hermitian"):
            design_plan(Kernel(sigma, "covariance"), 2, 2, 0.1)

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


class TestDirectSolve:
    """The weights are L^-H B^H with L^-1 from ``np.linalg.inv``, bit for bit."""

    @pytest.mark.parametrize("kind", ["bessel", "exponential", "covariance"])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_matches_the_inverse_factor_design(self, kind, n):
        geom = build_port_geometry(n, 10.0, 3.5e9)
        if kind == "bessel":
            kernel = kernel_bessel(geom)
        elif kind == "exponential":
            kernel = kernel_exponential(geom)
        else:
            kernel = kernel_covariance(
                [generate_ssc_channel(geom, SscModelParams(rng_seed=s)) for s in range(40)]
            )
        counts = (10, 1, 4)
        plans = fasbar.sbar._design_plans(kernel, counts, 4, n / 100.0)
        for plan, (order, weights, post_diag) in zip(plans, inverse_factor_design(kernel, counts, 4, n / 100.0)):
            assert plan.order == order
            assert plan.weights.flags.c_contiguous
            # designed and stored in the prior's field
            assert plan.weights.dtype == (np.complex128 if kind == "covariance" else np.float64)
            assert plan.weights.tobytes() == weights.tobytes()
            assert plan.post_diag.tobytes() == post_diag.tobytes()

    def test_one_imaginary_pair_keeps_the_complex_design(self):
        sigma = np.array(kernel_exponential(build_port_geometry(64, 10.0, 3.5e9)).matrix, dtype=complex)
        # port 0 is the first pick, so every plan's weights see the pair
        sigma[0, 5] += 1e-3j
        sigma[5, 0] -= 1e-3j
        kernel = Kernel(sigma, "covariance")
        counts = (10, 1, 4)
        plans = fasbar.sbar._design_plans(kernel, counts, 4, 0.64)
        for plan, (order, weights, post_diag) in zip(plans, inverse_factor_design(kernel, counts, 4, 0.64)):
            assert plan.order == order
            assert plan.weights.imag.any()
            assert plan.weights.tobytes() == weights.tobytes()
            assert plan.post_diag.tobytes() == post_diag.tobytes()

    @pytest.mark.parametrize("build", [kernel_exponential, kernel_bessel])
    def test_a_complex_prior_with_zero_imaginary_parts_keeps_the_complex_design(self, build):
        # the stored dtype is the field, whatever the values: a complex128
        # copy of a real prior is designed in complex128, within rounding of
        # the float64 design; here no two candidates tie, so the picks agree
        real = Kernel(np.array(build(build_port_geometry(64, 10.0, 3.5e9)).matrix), "covariance")
        kernel = Kernel(real.stored.astype(complex), "covariance")
        counts = (10, 1, 4)
        plans = fasbar.sbar._design_plans(kernel, counts, 4, 0.64)
        real_plans = fasbar.sbar._design_plans(real, counts, 4, 0.64)
        oracle = inverse_factor_design(kernel, counts, 4, 0.64)
        for plan, real_plan, (order, weights, post_diag) in zip(plans, real_plans, oracle):
            assert plan.weights.dtype == np.complex128 and real_plan.weights.dtype == np.float64
            assert plan.order == order == real_plan.order
            assert plan.weights.tobytes() == weights.tobytes()
            assert plan.post_diag.tobytes() == post_diag.tobytes()
            scale = np.abs(real_plan.weights).max()
            assert np.abs(plan.weights - real_plan.weights).max() <= 1e-14 * scale

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_entry_in_a_measured_column_is_rejected(self, bad):
        sigma = np.array(kernel_exponential(build_port_geometry(16, 5.0, 3.5e9)).matrix)
        # all variances tie, so the first pick is port 0
        sigma[5, 0] = bad
        # the kernel refuses the entry, so no design divides by a non-finite
        # pivot and the suite's RuntimeWarning filter sees no warning
        with pytest.raises(ValueError) as exc:
            design_plan(Kernel(sigma, "covariance"), 2, 2, 0.1)
        # a ValueError, not the LinAlgError (a subclass) of a NaN residual
        assert exc.type is ValueError


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
            {"kernel_fingerprint": 5},
            {"kernel_fingerprint": None},
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
            "fingerprint-int",
            "fingerprint-none",
        ],
    )
    def test_rejects_inconsistent_fields(self, changes):
        with pytest.raises(ValueError):
            hand_plan(**changes)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"weights": np.where(np.eye(4, 6), np.nan, 0.0)}, "non-finite"),
            ({"weights": np.full((4, 6), 1j * np.inf)}, "non-finite"),
            ({"weights": np.zeros((4, 6), dtype=int)}, "float64 or complex128"),
            ({"weights": np.zeros((4, 6), dtype=np.float32)}, "float64 or complex128"),
            ({"weights": [[0.0] * 6] * 4}, "float64 or complex128"),
            ({"post_diag": np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0])}, "non-finite"),
            ({"post_diag": np.full(6, np.nan)}, "non-finite"),
            ({"post_diag": np.ones(6, dtype=complex)}, "float64"),
            ({"post_diag": np.ones(6, dtype=int)}, "float64"),
        ],
        ids=["weights-nan", "weights-inf", "weights-int", "weights-float32", "weights-list", "post-diag-inf",
             "post-diag-nan", "post-diag-complex", "post-diag-int"],
    )
    def test_rejects_arrays_a_plan_file_could_not_hold(self, changes, message):
        # each built in code, where load_plan refused the non-finite ones; a
        # NaN weight gave a NaN estimate
        with pytest.raises(ValueError, match=message):
            hand_plan(**changes)

    @pytest.mark.parametrize(
        "changes",
        [
            {"num_ports": 6.0},
            {"num_timeslots": np.int64(2), "antennas_per_slot": np.int64(2)},
            {"order": (3.0, 0.0, 2.0, 5.0)},
            {"order": np.array([3, 0, 2, 5])},
        ],
        ids=["float-ports", "int64-counts", "float-order", "array-order"],
    )
    def test_whole_numbers_build_the_int_plan(self, tmp_path, changes):
        # 16.0 was stored as given, so str(16.0) went into another plan_id
        plan = hand_plan()
        variant = replace(plan, **changes)
        save_plan(tmp_path / "plan.bin", variant)
        save_plan(tmp_path / "plan.json", variant)
        for same in (variant, load_plan(tmp_path / "plan.bin"), load_plan(tmp_path / "plan.json")):
            counts = (same.num_ports, same.num_timeslots, same.antennas_per_slot)
            assert counts == (6, 2, 2) and same.order == (3, 0, 2, 5)
            assert all(type(v) is int for v in (*counts, *same.order))
            assert same.plan_id == plan.plan_id

    @pytest.mark.parametrize("bad", [True, 2.5])
    @pytest.mark.parametrize("name", ["num_ports", "num_timeslots", "antennas_per_slot"])
    def test_counts_must_be_whole_numbers(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            replace(hand_plan(), **{name: bad})

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_accepts_weights_in_either_field(self, dtype):
        weights = np.arange(24.0).reshape(4, 6).astype(dtype)
        plan = hand_plan(weights=weights)
        rec = reconstruct(plan, PilotObservation(np.array([1.0, 2j, -1.0, 0.5]), 0.1, plan.plan_id))
        assert np.array_equal(rec.estimate, np.array([1.0, 2j, -1.0, 0.5]) @ weights)


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

    @pytest.mark.parametrize("build", [kernel_bessel, kernel_exponential])
    @pytest.mark.parametrize("n, p, trials", [(16, 1, 2), (256, 5, 25), (1024, 10, 7)])
    def test_a_real_prior_block_row_equals_its_lone_call(self, build, n, p, trials):
        # float64 weights take w^T y as one real product in both calls
        noise = n / 100.0
        plan = design_plan(build(build_port_geometry(n, 10.0, 3.5e9)), p, 4, noise)
        assert plan.weights.dtype == np.float64
        rng = np.random.default_rng(n + p)
        block = rng.standard_normal((trials, 4 * p)) + 1j * rng.standard_normal((trials, 4 * p))
        rec = reconstruct(plan, PilotObservation(block, noise, plan.plan_id))
        assert rec.estimate.shape == (trials, n) and rec.estimate.dtype == np.complex128
        expected = block @ plan.weights.astype(complex)
        assert np.abs(rec.estimate - expected).max() <= 1e-12 * np.abs(expected).max()
        for row, y in zip(rec.estimate, block):
            single = reconstruct(plan, PilotObservation(y, noise, plan.plan_id)).estimate
            assert single.shape == (n,)
            assert single.tobytes() == row.tobytes()

    def test_a_trained_prior_block_row_matches_its_lone_call(self):
        geom = build_port_geometry(256, 10.0, 3.5e9)
        kernel = kernel_covariance([generate_ssc_channel(geom, SscModelParams(rng_seed=s)) for s in range(40)])
        noise = 0.05
        plan = design_plan(kernel, 5, 4, noise)
        assert plan.weights.dtype == np.complex128
        rng = np.random.default_rng(32)
        block = rng.standard_normal((25, 20)) + 1j * rng.standard_normal((25, 20))
        rec = reconstruct(plan, PilotObservation(block, noise, plan.plan_id))
        for row, y in zip(rec.estimate, block):
            single = reconstruct(plan, PilotObservation(y, noise, plan.plan_id)).estimate
            assert np.abs(row - single).max() <= 1e-12 * np.abs(single).max()

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
