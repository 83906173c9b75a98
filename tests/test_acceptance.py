"""Acceptance suite: the ten primary behavioral claims, one test each.

Criteria 1-3, 7, 9 and 10 share a single full-size sweep (N=256, M=4,
20 dB, 500 trials, four schemes) so the whole module stays inside the
ten-minute budget that criterion 1 also asserts.  Every test funnels
through _report, which prints one PASS/FAIL line per criterion.
"""

import time

import numpy as np
import pytest

from fasbar import (
    ExperimentConfig,
    PilotObservation,
    SchemeSpec,
    SscModelParams,
    build_port_geometry,
    design_plan,
    emit_csv,
    generate_ssc_channel,
    kernel_bessel,
    kernel_covariance,
    kernel_exponential,
    nmse,
    observe_ports,
    reconstruct,
    run_sweep,
)
from helpers import stacked_switch_matrix
from posterior_reference import initial_posterior, posterior_update_one

N = 256
M = 4
SNR_DB = 20.0
NOISE_POWER = 2.56  # E||h||^2 / 10^(SNR/10) with E||h||^2 = N
TRIALS = 500
BASE_SEED = 20240514
SWEEP_BUDGET_SECONDS = 600.0

ACCEPT_CONFIG = ExperimentConfig(
    num_ports=N,
    antennas_per_slot=M,
    pilot_counts=tuple(range(1, 11)),
    snr_db=(SNR_DB,),
    trials=TRIALS,
    channel=SscModelParams(9, 100, 5.0),
    schemes=(
        SchemeSpec("sbar", kernel="bessel"),
        SchemeSpec("sbar", kernel="covariance", train_timeslots=100),
        SchemeSpec("selmmse"),
        SchemeSpec("fas-omp"),
    ),
    base_seed=BASE_SEED,
    record_timing=False,
)


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _curve(records, scheme, kernel_kind=""):
    per_point = {}
    for r in records:
        if r.scheme == scheme and r.kernel_kind == kernel_kind:
            per_point.setdefault(r.num_timeslots, []).append(r.nmse)
    means = {p: float(np.mean(v)) for p, v in per_point.items()}
    stderrs = {
        p: float(np.std(v, ddof=1) / np.sqrt(len(v))) for p, v in per_point.items()
    }
    return means, stderrs


@pytest.fixture(scope="module")
def sweep():
    plans = {}
    tic = time.perf_counter()
    records = run_sweep(ACCEPT_CONFIG, plan_cache=plans)
    wall = time.perf_counter() - tic
    return records, plans, wall


def test_criterion_01_sbar_orders_below_both_baselines(sweep):
    records, _, wall = sweep
    bes, _ = _curve(records, "sbar", "bessel")
    sel, _ = _curve(records, "selmmse")
    omp, _ = _curve(records, "fas-omp")
    worst = min(
        min(sel[p] / bes[p] for p in (2, 4, 6, 8, 10)),
        min(omp[p] / bes[p] for p in (2, 4, 6, 8, 10)),
    )
    ordered = all(bes[p] < sel[p] and bes[p] < omp[p] for p in (2, 4, 6, 8, 10))
    in_budget = wall < SWEEP_BUDGET_SECONDS
    _report(
        1,
        ordered and in_budget,
        f"bessel below both baselines at P=2,4,6,8,10 (worst margin x{worst:.2f}), "
        f"sweep {wall:.0f}s < {SWEEP_BUDGET_SECONDS:.0f}s",
    )


def test_criterion_02_trained_and_bessel_kernels_within_50_percent(sweep):
    records, _, _ = sweep
    bes, _ = _curve(records, "sbar", "bessel")
    cov, _ = _curve(records, "sbar", "covariance")
    ratio_cb = cov[10] / bes[10]
    ratio_bc = bes[10] / cov[10]
    ok = ratio_cb <= 1.5 and ratio_bc <= 1.5
    _report(
        2,
        ok,
        f"P=10 mean NMSE ratios cov/bes={ratio_cb:.3f}, bes/cov={ratio_bc:.3f}, both <= 1.5",
    )


def test_criterion_03_trained_kernel_curve_monotone_within_stderr(sweep):
    records, _, _ = sweep
    cov, se = _curve(records, "sbar", "covariance")
    steps = [(p, cov[p + 1] - cov[p], se[p + 1]) for p in range(1, 10)]
    violations = [(p, d, s) for p, d, s in steps if d > s]
    worst = max(d - s for _, d, s in steps)
    _report(
        3,
        not violations,
        f"mean NMSE non-increasing over P=1..10 within one stderr per point "
        f"(worst step-minus-allowance {worst:+.4f}); violations: {violations}",
    )


def test_criterion_04_greedy_selection_matches_batch_oracle():
    rng = np.random.default_rng(41)
    matches = 0
    total = 100
    for _ in range(total):
        n = int(rng.integers(2, 11))
        pm = int(rng.integers(1, min(4, n) + 1))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = raw @ raw.conj().T + 1e-3 * np.eye(n)
        kernel = kernel_covariance([row for row in np.linalg.cholesky(sigma).T], jitter=1e-9)
        noise_power = float(rng.uniform(0.01, 1.0))

        # oracle: recompute the batch posterior from scratch at every step
        order = []
        for _step in range(pm):
            if order:
                idx = np.array(order)
                gram = kernel.matrix[np.ix_(idx, idx)] + noise_power * np.eye(len(idx))
                cross = kernel.matrix[idx, :]
                post = kernel.matrix - cross.conj().T @ np.linalg.solve(gram, cross)
            else:
                post = kernel.matrix
            scores = post.diagonal().real.copy()
            scores[order] = -np.inf
            order.append(int(np.argmax(scores)))

        plan = design_plan(kernel, pm, 1, noise_power)
        matches += plan.order == tuple(order)
    _report(4, matches == total, f"greedy order equals batch oracle {matches}/{total}")


def test_criterion_05_rank_one_chain_tracks_batch_posterior():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        geom = build_port_geometry(64, 10.0, 3.5e9)
        kernel = kernel_exponential(
            geom, alpha=float(rng.uniform(0.5, 2.0)), eta=float(rng.uniform(0.2, 0.8))
        )
        noise_power = float(rng.uniform(0.05, 0.5))
        order = rng.choice(64, size=16, replace=False)

        state = initial_posterior(kernel, noise_power)
        for port in order:
            state = posterior_update_one(state, int(port))

        idx = np.array(order)
        gram = kernel.matrix[np.ix_(idx, idx)] + noise_power * np.eye(16)
        cross = kernel.matrix[idx, :]
        batch = kernel.matrix - cross.conj().T @ np.linalg.solve(gram, cross)
        rel = float(
            np.linalg.norm(state.post_cov - batch) / np.linalg.norm(batch)
        )
        worst = max(worst, rel)
    _report(5, worst < 1e-8, f"max relative Frobenius error over 20 seeds: {worst:.2e} < 1e-8")


def test_criterion_06_noiseless_full_sampling_recovers_exactly():
    geom = build_port_geometry(64, 10.0, 3.5e9)
    training = [
        generate_ssc_channel(geom, SscModelParams(9, 100, 5.0, rng_seed=5000 + t))
        for t in range(100)
    ]
    kernels = {
        "exponential": kernel_exponential(geom),
        "bessel": kernel_bessel(geom),
        "covariance": kernel_covariance(training),
    }
    worst = 0.0
    for kernel in kernels.values():
        plan = design_plan(kernel, 16, 4, 0.0)  # PM = N = 64
        for t in range(10):
            h = generate_ssc_channel(geom, SscModelParams(9, 100, 5.0, rng_seed=6000 + t))
            y = observe_ports(h.values, plan.order, 0.0, rng_seed=0)
            est = reconstruct(plan, PilotObservation(y, 0.0, plan.plan_id)).estimate
            worst = max(worst, nmse(h.values, est))
    _report(
        6,
        worst < 1e-8,
        f"sigma^2=0, PM=N: worst NMSE over 3 kernels x 10 channels: {worst:.2e} < 1e-8",
    )


def test_criterion_07_posterior_variances_never_increase(sweep):
    _, plans, _ = sweep
    geom = build_port_geometry(
        N, ACCEPT_CONFIG.aperture_wavelengths, ACCEPT_CONFIG.carrier_hz
    )
    bessel = kernel_bessel(geom)
    replayed = 0
    violations = 0
    worst_rise = -np.inf
    for (fingerprint, _p, _m, noise_power), plan in plans.items():
        if fingerprint != bessel.fingerprint:
            continue
        state = initial_posterior(bessel, noise_power)
        diag = state.variances
        for port in plan.order:
            state = posterior_update_one(state, port)
            rise = float((state.variances - diag).max())
            worst_rise = max(worst_rise, rise)
            violations += rise > 1e-10
            diag = state.variances
        replayed += 1
    _report(
        7,
        replayed == len(ACCEPT_CONFIG.pilot_counts) and violations == 0,
        f"all stage-1 iterations of {replayed} bessel plans monotone "
        f"(max per-entry rise {worst_rise:.1e}, tolerance 1e-10)",
    )


def test_criterion_08_online_stage_scales_linearly():
    cases = {}
    for ports in (1024, 2048):
        geom = build_port_geometry(ports, 10.0, 3.5e9)
        plan = design_plan(kernel_bessel(geom), 10, 4, NOISE_POWER)  # PM = 40
        rng = np.random.default_rng(8)
        y = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        cases[ports] = plan, PilotObservation(y, NOISE_POWER, plan.plan_id)
    for plan, obs in cases.values():
        for _ in range(10):  # warm-up
            reconstruct(plan, obs)
    # one call of each size per sample, so a drift in machine speed hits
    # both medians alike
    samples = {ports: [] for ports in cases}
    for _ in range(100):
        for ports, (plan, obs) in cases.items():
            tic = time.perf_counter_ns()
            reconstruct(plan, obs)
            samples[ports].append(time.perf_counter_ns() - tic)
    medians = {ports: float(np.median(times)) for ports, times in samples.items()}
    ratio = medians[2048] / medians[1024]
    _report(
        8,
        ratio <= 2.5,
        f"median reconstruct time N=1024: {medians[1024]/1e3:.1f}us, "
        f"N=2048: {medians[2048]/1e3:.1f}us, ratio {ratio:.2f} <= 2.5",
    )


def test_criterion_09_switch_matrices_are_exact_port_selections(sweep):
    _, plans, _ = sweep
    ok = len(plans) == 20  # 2 sbar kernels x 10 pilot budgets
    for plan in plans.values():
        stacked = stacked_switch_matrix(plan)
        pm = plan.num_measurements
        ok &= stacked.dtype == np.int64  # integer algebra, so "exactly" means exactly
        ok &= np.array_equal(stacked @ stacked.T, np.eye(pm, dtype=np.int64))
        ok &= bool(np.all(stacked.sum(axis=1) == 1))
        ok &= bool(np.all(stacked.sum(axis=0) <= 1))
    _report(9, ok, f"S S^H = I and one-hot rows, exact, for all {len(plans)} designed plans")


def test_criterion_10_sweep_is_byte_deterministic(sweep, tmp_path):
    records, _, _ = sweep
    rerun = run_sweep(ACCEPT_CONFIG)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    emit_csv(records, first)
    emit_csv(rerun, second)
    identical = first.read_bytes() == second.read_bytes()
    _report(10, identical, f"re-run CSV byte-identical ({first.stat().st_size} bytes)")
