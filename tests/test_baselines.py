"""Baseline estimator tests.

The nearest-hold scheme is checked against a brute-force per-port loop.
``estimate_fas_omp`` is checked against planted on-grid sparse channels
it must recover exactly in the noiseless case, against the expansion of a
reference pursuit that refits every pick with ``np.linalg.lstsq``, and bit
for bit against ``matrix_fas_omp``: the fit as it stood when the
dictionary held the full (N, G) matrix, run by ``qr_pursuit``, the
grown-QR pursuit as it stood before its buffers were preallocated and its
triangular solve went to LAPACK directly.  Nearly collinear atoms are the
exception, checked by fit quality instead.  The steering dictionary's
atoms, formed from its two phase tables, are pinned bit for bit against
``steering_matrix``.  A (T, P*M) block of fits is pinned bit for bit
against T lone calls, on both sides of a chunk boundary, and its Toeplitz
Gram rows against the explicit products of the measured atoms.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from fasbar import (
    RankDeficientFitWarning,
    SscModelParams,
    build_port_geometry,
    build_steering_dictionary,
    design_plan,
    estimate_fas_omp,
    estimate_selmmse,
    generate_ssc_channel,
    kernel_exponential,
    random_ports,
    selmmse_ports,
    steering_matrix,
)
from fasbar import baselines
from fasbar.baselines import _warn_rank_deficient


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


def qr_pursuit(measured_atoms, y, max_atoms, residual_tol):
    """Orthogonal matching pursuit on an explicit measurement matrix.

    Greedily picks the atom most correlated with the residual, |a_g^H r|,
    and stops when max_atoms are used or the residual drops below
    residual_tol * ||y||.  The picked atoms A_S are kept as a thin QR
    factor A_S = Q R: each pick orthogonalizes its atom against Q by
    classical Gram-Schmidt applied twice, appending one column to Q and
    to the upper-triangular R, and the residual loses its projection on
    the new column.  The least-squares coefficients come at the end from
    one triangular solve R x = Q^H y.

    A pick is rank deficient, by the rule of ``np.linalg.lstsq`` with
    ``rcond=None`` applied to R (which has the singular values of A_S),
    when it would use more atoms k than the m rows, when r_kk = 0, or when
    s_min(R) <= eps * max(m, k) * s_max(R).  The bounds
    s_min >= 1 / ||R^-1||_F and s_max <= ||R||_F, both updated in O(k^2)
    per pick, certify most picks; only when they cannot is R's SVD taken.
    A rank-deficient pick stops the pursuit early with a
    RankDeficientFitWarning, keeping the last full-rank fit.

    The pursuit runs on y * 2^-e, where 2^(e-1) <= max|y| < 2^e within
    the float range, and scales its coefficients and norms back by 2^e.
    Scaling by a power of two is exact, so the result is unchanged wherever
    ||y|| could be formed directly, and ||y|| neither underflows nor
    overflows at extreme scales.

    Returns
    -------
    (coeffs, support, residual_norms)
        Least-squares coefficients per support atom, the picked column
        indices in order, and ||residual|| after 0, 1, ... picks.
    """
    a = np.asarray(measured_atoms)
    y = np.asarray(y)
    if a.shape[0] != y.size:
        raise ValueError("measurement matrix rows must match observation length")
    if max_atoms < 1:
        raise ValueError("max_atoms must be positive")
    if residual_tol < 0.0:
        raise ValueError("residual_tol must be nonnegative")
    # clamped so that 2^e and 2^-e are both finite floats
    e = min(max(math.frexp(float(np.abs(y).max(initial=0.0)))[1], -1021), 1023)
    y = y * math.ldexp(1.0, -e)
    norm_y = float(np.linalg.norm(y))
    support: list = []
    norms = [norm_y]
    if norm_y == 0.0:
        return np.zeros(0, dtype=complex), support, norms
    m = y.size
    size = min(int(max_atoms), m)
    dtype = np.result_type(a, y, 1.0)
    q_rows = np.zeros((size, m), dtype=dtype)  # q_k as rows
    qh_rows = np.zeros((size, m), dtype=dtype)  # their conjugates, so Q^H v = qh_rows @ v
    r = np.zeros((size, size), dtype=dtype)
    r_inv = np.zeros((size, size), dtype=dtype)
    r_fro2 = r_inv_fro2 = 0.0  # squared Frobenius norms of R and R^-1
    picked = np.zeros(size, dtype=np.intp)
    eps = np.finfo(float).eps
    residual_h = np.conj(y).astype(complex)  # r^H, so a^H r is the conjugate of residual_h @ a
    for k in range(int(max_atoms)):
        if norms[-1] <= residual_tol * norm_y:
            break
        corr = np.abs(residual_h @ a)
        corr[picked[:k]] = -1.0  # an atom is never picked twice
        pick = int(corr.argmax())
        if k == m:
            _warn_rank_deficient()
            break
        atom = a[:, pick]
        col = qh_rows[:k] @ atom
        w = atom - col @ q_rows[:k]
        again = qh_rows[:k] @ w
        w -= again @ q_rows[:k]
        col += again
        r_kk = math.sqrt(np.vdot(w, w).real)
        if r_kk == 0.0:
            _warn_rank_deficient()
            break
        r[:k, k], r[k, k] = col, r_kk
        inv_kk = 1.0 / r_kk
        inv_col = r_inv[:k, :k] @ col  # times -inv_kk, R^-1's new column above the diagonal
        fro2 = r_fro2 + np.vdot(col, col).real + r_kk * r_kk
        inv_fro2 = r_inv_fro2 + (np.vdot(inv_col, inv_col).real + 1.0) * inv_kk * inv_kk
        rcond = eps * max(m, k + 1)
        # 1/||R^-1||_F > rcond * ||R||_F certifies full rank without an SVD
        if not fro2 * inv_fro2 * rcond * rcond < 1.0:
            sv = np.linalg.svd(r[: k + 1, : k + 1], compute_uv=False)
            if sv[-1] <= rcond * sv[0]:
                _warn_rank_deficient()
                break
        np.multiply(w, inv_kk, out=q_rows[k])
        np.conjugate(q_rows[k], out=qh_rows[k])
        np.multiply(inv_col, -inv_kk, out=r_inv[:k, k])
        r_inv[k, k] = inv_kk
        r_fro2, r_inv_fro2 = fro2, inv_fro2
        picked[k] = pick
        support.append(pick)
        residual_h -= (q_rows[k] @ residual_h) * qh_rows[k]
        norms.append(math.sqrt(np.vdot(residual_h, residual_h).real))
    k = len(support)
    scale = math.ldexp(1.0, e)
    norms = [v * scale for v in norms]
    if k == 0:
        return np.zeros(0, dtype=complex), support, norms
    coeffs = solve_triangular(r[:k, :k], qh_rows[:k] @ y)
    return coeffs * scale, support, norms


def matrix_fas_omp(matrix, y, ports, max_atoms=9, residual_tol=1e-3):
    """Sparse recovery of the full channel from random-port measurements.

    Runs OMP on the dictionary rows at the measured ports, then expands the
    recovered atom coefficients through the full dictionary, held as its
    (N, G) ``matrix``.
    """
    y = np.asarray(getattr(y, "values", y))
    ports = np.asarray(ports, dtype=int)
    coeffs, support, _ = qr_pursuit(matrix[ports, :], y, max_atoms, residual_tol)
    estimate = np.zeros(matrix.shape[0], dtype=complex)
    if support:
        estimate = matrix[:, support] @ coeffs
    return estimate


@pytest.fixture(scope="module")
def geom():
    return build_port_geometry(64, 10.0, 3.5e9)


@pytest.fixture(scope="module")
def dictionary(geom):
    return build_steering_dictionary(geom)


@pytest.fixture(scope="module")
def atoms(geom, dictionary):
    return steering_matrix(geom, dictionary.grid)


class TestSteeringDictionary:
    def test_grid_and_shape(self, dictionary):
        assert dictionary.num_ports == 64 and dictionary.grid.shape == (256,)
        assert dictionary.hi.shape == (8, 256) and dictionary.lo.shape == (8, 256)
        assert dictionary.grid[0] == -1.0 and dictionary.grid[-1] == 1.0
        steps = np.diff(dictionary.grid)
        assert np.allclose(steps, steps[0], rtol=1e-12)

    def test_columns_have_norm_sqrt_n(self, atoms):
        norms = np.linalg.norm(atoms, axis=0)
        assert np.allclose(norms, np.sqrt(64), rtol=1e-12)
        assert np.allclose(np.abs(atoms), 1.0, atol=1e-12)

    @pytest.mark.parametrize("oversampling", [0, -2, 2.5, True, False, "4", np.nan, np.inf])
    def test_oversampling_validated(self, geom, oversampling):
        # 2.5 used to build G = 2N atoms and True G = N
        with pytest.raises(ValueError, match="oversampling"):
            build_steering_dictionary(geom, oversampling)

    @pytest.mark.parametrize("oversampling", [4.0, np.int64(2), 1])
    def test_whole_oversampling_accepted(self, geom, oversampling):
        assert build_steering_dictionary(geom, oversampling).grid.size == int(oversampling) * 64

    # N = 96 is not a perfect square: the last row of hi covers ports 90..99
    # and is trimmed to 90..95
    @pytest.mark.parametrize("n", [64, 96, 256, 1024])
    def test_atoms_match_steering_matrix_bit_for_bit(self, n):
        geom = build_port_geometry(n, 10.0, 3.5e9)
        dictionary = build_steering_dictionary(geom)
        full = steering_matrix(geom, dictionary.grid)
        g = dictionary.grid.size
        rng = np.random.default_rng(n)
        for _ in range(5):
            # unsorted ports, always with the first and last one
            ports = np.r_[n - 1, rng.choice(np.arange(1, n - 1), 38, replace=False), 0]
            rows = dictionary._rows(ports)
            assert rows.shape == (40, g) and rows.tobytes() == full[ports].tobytes()
            picks = rng.choice(g, 9, replace=False).tolist()
            for support in (picks, [g - 1, 0] + picks[:3], picks[:1]):
                columns = dictionary._columns(support)
                assert columns.shape == (n, len(support))
                assert columns.tobytes() == full[:, support].tobytes()
        if n <= 256:
            assert dictionary._rows(np.arange(n)).tobytes() == full.tobytes()

    def test_tables_read_only_and_equality_is_identity(self, geom):
        # a shared dictionary could be changed under every later fit, and the
        # generated == compared arrays and raised
        a, b = build_steering_dictionary(geom), build_steering_dictionary(geom)
        for table, index in ((a.hi, (0, 0)), (a.lo, (0, 0)), (a.grid, 0)):
            with pytest.raises(ValueError, match="read-only"):
                table[index] = 0.0
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_n4096_holds_tables_not_the_matrix(self):
        # the (4096, 16384) matrix would take 1.07 GB
        n, g, b = 4096, 4 * 4096, 64
        geom = build_port_geometry(n, 10.0, 3.5e9)
        h = generate_ssc_channel(geom, SscModelParams(rng_seed=5)).values
        ports = random_ports(n, 40, rng_seed=6)
        tracemalloc.start()
        try:
            dictionary = build_steering_dictionary(geom)
            est = estimate_fas_omp(h[ports], ports, dictionary)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dictionary.hi.nbytes + dictionary.lo.nbytes <= 2 * b * g * 16
        assert dictionary.grid.nbytes == g * 8
        assert peak < 64e6, f"dictionary build and one fit peaked at {peak / 1e6:.1f} MB"
        assert np.isfinite(est.values).all() and est.values.shape == (n,)


class TestSelmmse:
    def test_all_ports_when_budget_equals_n(self):
        assert np.array_equal(selmmse_ports(4, 4), [0, 1, 2, 3])

    def test_two_of_four(self):
        assert np.array_equal(selmmse_ports(4, 2), [0, 2])

    def test_ports_distinct_and_increasing(self):
        # every budget up to N <= 512: centers lie N/PM >= 1 apart, so the
        # rounded ports neither collide nor leave [0, N)
        for n in range(1, 513):
            for pm in range(1, n + 1):
                ports = selmmse_ports(n, pm)
                assert ports[0] >= 0 and ports[-1] < n and (ports[1:] > ports[:-1]).all(), (n, pm)

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
        # the N x PM distance-matrix rule, on unsorted distinct ports
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 80))
            ports = rng.choice(n, int(rng.integers(1, min(n, 11) + 1)), replace=False)
            y = rng.standard_normal(ports.size) + 1j * rng.standard_normal(ports.size)
            srt = np.argsort(ports, kind="stable")
            dist = np.abs(np.arange(n)[:, None] - ports[srt][None, :])
            expected = y[srt][np.argmin(dist, axis=1)]
            assert np.array_equal(estimate_selmmse(y, ports, n).values, expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_selmmse(np.ones(3), [0, 2], 4)

    def test_block_of_rounds_matches_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for ports in (selmmse_ports(256, 40), np.array([9, 3, 4, 200, 0, 77])):
            block = rng.standard_normal((12, ports.size)) + 1j * rng.standard_normal((12, ports.size))
            est = estimate_selmmse(block, ports, 256).values
            assert est.shape == (12, 256)
            for row, y in zip(est, block):
                assert row.tobytes() == estimate_selmmse(y, ports, 256).values.tobytes()

    def test_block_width_checked(self):
        with pytest.raises(ValueError, match="one measurement per port"):
            estimate_selmmse(np.ones((4, 3)), [0, 2], 4)
        with pytest.raises(ValueError, match="one measurement per port"):
            estimate_selmmse(np.ones((4, 2, 1)), [0, 2], 4)
        with pytest.raises(ValueError, match="out of range"):
            estimate_selmmse(np.ones((4, 2)), [0, 4], 4)

    @pytest.mark.parametrize("ports", [[-5, 2, 10], [0, 2, 16], [-1, 2, 5]])
    def test_ports_outside_the_aperture_rejected(self, ports):
        with pytest.raises(ValueError, match="out of range"):
            estimate_selmmse(np.ones(3), ports, 16)

    @pytest.mark.parametrize("ports", [[3, 3, 5], [5, 3, 5], [0, 0, 0]])
    def test_port_listed_twice_rejected(self, ports):
        with pytest.raises(ValueError, match="distinct"):
            estimate_selmmse(np.arange(1.0, 4.0), ports, 16)

    @pytest.mark.parametrize("num_ports", [16.7, True, "16"])
    def test_port_count_must_be_a_whole_number(self, num_ports):
        # int() truncated 16.7, so the estimate had 16 ports
        with pytest.raises(ValueError, match="num_ports must be a whole number"):
            estimate_selmmse(np.ones(2), [0, 3], num_ports)

    def test_whole_port_count_accepted(self):
        expected = estimate_selmmse(np.arange(1.0, 3.0), [0, 3], 16).values
        for num_ports in (16.0, np.int64(16)):
            assert np.array_equal(estimate_selmmse(np.arange(1.0, 3.0), [0, 3], num_ports).values, expected)

    @pytest.mark.parametrize("ports", [[[0, 2]], [[0], [2]]])
    def test_two_dimensional_ports_rejected(self, ports):
        # [[0, 2]] used to fail with an IndexError inside the hold
        with pytest.raises(ValueError, match="one measurement per port"):
            estimate_selmmse(np.ones(2), ports, 16)


def lstsq_estimate(atoms, ports, y, max_atoms, residual_tol):
    """The expansion over all ports of ``lstsq_pursuit``'s fit at ``ports``, and its picks."""
    coeffs, support, _ = lstsq_pursuit(atoms[ports], y, max_atoms, residual_tol)
    return atoms[:, support] @ coeffs, support


class TestOmp:
    def test_single_on_grid_atom_recovered_exactly(self, geom, dictionary, atoms):
        h = 0.8j * atoms[:, 100]
        ports = random_ports(64, 6, rng_seed=11)
        est = estimate_fas_omp(h[ports], ports, dictionary, max_atoms=1)
        nmse = np.linalg.norm(h - est.values) ** 2 / np.linalg.norm(h) ** 2
        assert nmse < 1e-10

    def test_two_separated_atoms_recovered(self, geom, dictionary, atoms):
        h = atoms[:, 40] + 0.8j * atoms[:, 200]
        ports = random_ports(64, 8, rng_seed=12)
        est = estimate_fas_omp(h[ports], ports, dictionary, max_atoms=2)
        nmse = np.linalg.norm(h - est.values) ** 2 / np.linalg.norm(h) ** 2
        assert nmse < 1e-6

    def test_zero_observation_returns_zero_without_iterating(self, dictionary, monkeypatch):
        # the estimate expands the picked atoms; a fit that picks none expands nothing
        def refuse(*args):
            raise AssertionError("a zero observation picked an atom")

        monkeypatch.setattr(baselines.SteeringDictionary, "_columns", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_fas_omp(np.zeros(6), np.arange(6), dictionary)
        assert np.array_equal(est.values, np.zeros(64))

    def test_residual_norms_never_increase(self, dictionary):
        # the picks of a larger budget extend those of a smaller one, so the
        # least-squares residual at the measured ports never grows with it
        rng = np.random.default_rng(13)
        ports = random_ports(64, 16, rng_seed=14)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        fits = [estimate_fas_omp(y, ports, dictionary, k, 0.0).values[ports] for k in range(1, 10)]
        norms = [np.linalg.norm(y)] + [np.linalg.norm(y - fit) for fit in fits]
        assert np.all(np.diff(norms) <= 1e-12)

    def test_atom_budget_respected(self, dictionary, atoms):
        rng = np.random.default_rng(15)
        ports = random_ports(64, 20, rng_seed=16)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        ref, support = lstsq_estimate(atoms, ports, y, 3, 0.0)
        est = estimate_fas_omp(y, ports, dictionary, 3, 0.0).values
        assert len(support) == 3
        assert np.linalg.norm(est - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_rank_deficient_refit_warns_and_stops(self, dictionary, atoms):
        # 2 measurements cannot support a third atom: the refit must go
        # rank deficient and the pursuit must keep the last full-rank fit
        rng = np.random.default_rng(17)
        ports = np.array([5, 40])
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        with pytest.warns(RankDeficientFitWarning):
            est = estimate_fas_omp(y, ports, dictionary, 3, 0.0).values
        with pytest.warns(RankDeficientFitWarning):
            ref, support = lstsq_estimate(atoms, ports, y, 3, 0.0)
        assert len(support) == 2
        assert np.linalg.norm(est - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n,count", [(256, 200), (64, 60)])
    def test_matches_lstsq_pursuit(self, n, count):
        # sweep-sized fits: a noisy SSC channel at P*M = 4..40 random ports
        geom = build_port_geometry(n, 10.0, 3.5e9)
        dictionary = build_steering_dictionary(geom)
        atoms = steering_matrix(geom, dictionary.grid)
        for seed in range(count):
            rng = np.random.default_rng(seed)
            pm = 4 * (seed % 10 + 1)
            ports = random_ports(n, pm, rng_seed=seed)
            h = generate_ssc_channel(geom, SscModelParams(rng_seed=seed)).values
            y = h[ports] + 0.1 * (rng.standard_normal(pm) + 1j * rng.standard_normal(pm))
            ref, _ = lstsq_estimate(atoms, ports, y, 9, 1e-3)
            est = estimate_fas_omp(y, ports, dictionary, 9, 1e-3).values
            assert np.linalg.norm(est - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_pursuit_never_calls_lstsq(self, dictionary, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq was called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        rng = np.random.default_rng(19)
        ports = random_ports(64, 16, rng_seed=20)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        estimate_fas_omp(y, ports, dictionary, 9, 0.0)
        with pytest.warns(RankDeficientFitWarning):
            estimate_fas_omp(y[:2], ports[:2], dictionary, 3, 0.0)

    def test_extreme_scales_keep_the_fit(self, dictionary):
        # ||y|| formed directly underflows to 0 at 1e-200 and overflows at 1e200
        rng = np.random.default_rng(21)
        ports = random_ports(64, 16, rng_seed=22)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        est = estimate_fas_omp(y, ports, dictionary).values
        for scale in (1e-200, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = estimate_fas_omp(y * scale, ports, dictionary).values
            assert np.abs(scaled / scale - est).max() <= 1e-12 * np.abs(est).max()

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_power_of_two_scales_are_bit_identical(self, dictionary, exponent):
        rng = np.random.default_rng(23)
        ports = random_ports(64, 16, rng_seed=24)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        est = estimate_fas_omp(y, ports, dictionary).values
        scale = 2.0**exponent
        assert estimate_fas_omp(y * scale, ports, dictionary).values.tobytes() == (est * scale).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    def test_non_finite_observation_rejected_before_the_pursuit(self, dictionary, atoms, bad):
        ports = random_ports(64, 8, rng_seed=25)
        y = atoms[ports, 30].copy()
        y[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="observation y holds a non-finite entry"):
                estimate_fas_omp(y, ports, dictionary)

    def test_argument_validation(self, dictionary):
        with pytest.raises(ValueError):
            estimate_fas_omp(np.ones(3), [0, 1], dictionary)
        for ports in (3, [[0, 1, 2], [3, 4, 5]]):
            with pytest.raises(ValueError, match="one measurement per port"):
                estimate_fas_omp(np.ones(np.size(ports)), ports, dictionary)
        with pytest.raises(ValueError, match="max_atoms must be positive"):
            estimate_fas_omp(np.ones(4), [0, 1, 2, 3], dictionary, 0, 1e-3)
        with pytest.raises(ValueError, match="residual_tol must be nonnegative"):
            estimate_fas_omp(np.ones(4), [0, 1, 2, 3], dictionary, 2, -1.0)
        # a NaN tolerance compared false against every residual and turned the early stop off
        with pytest.raises(ValueError, match="residual_tol must be a finite number"):
            estimate_fas_omp(np.ones(4), [0, 1, 2, 3], dictionary, 2, float("nan"))

    @pytest.mark.parametrize("ports", [[-1, 2, 5], [2, 5, 64]])
    def test_ports_outside_the_aperture_rejected(self, dictionary, ports):
        with pytest.raises(ValueError, match="out of range"):
            estimate_fas_omp(np.ones(3), ports, dictionary)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 1), (1, 4)])
    def test_observation_of_another_shape_rejected(self, dictionary, shape):
        # these used to fail inside the pursuit with a matmul shape error
        with pytest.raises(ValueError, match="one measurement per port"):
            estimate_fas_omp(np.ones(shape), [0, 1, 2, 3], dictionary)

    @pytest.mark.parametrize("ports", [[3, 3, 5], [5, 3, 5], [0, 0, 0]])
    def test_port_listed_twice_rejected(self, dictionary, ports):
        # the pursuit would see two equal rows and stop rank deficient
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="distinct"):
                estimate_fas_omp(np.arange(1.0, 4.0), ports, dictionary)


# np.asarray(..., dtype=int) used to read [0.9, 2.5] as ports [0, 2],
# [True, False] as [1, 0] and [True, 3] as [1, 3]
NOT_INTEGRAL_PORTS = [[0.9, 2.5], np.array([1.5, 2.0]), [True, False], np.array([True, False]), [True, 3]]


@pytest.mark.parametrize("ports", NOT_INTEGRAL_PORTS)
def test_estimators_reject_ports_that_are_not_integers(dictionary, ports):
    with pytest.raises(ValueError, match="integral"):
        estimate_selmmse(np.ones(2), ports, 64)
    with pytest.raises(ValueError, match="integral"):
        estimate_fas_omp(np.ones(2), ports, dictionary)


def test_estimators_read_whole_float_ports_as_ports(dictionary, atoms):
    y = atoms[[3, 40], 100]
    for estimate, *args in ((estimate_selmmse, 64), (estimate_fas_omp, dictionary)):
        whole = estimate(y, np.array([3.0, 40.0]), *args).values
        assert whole.tobytes() == estimate(y, [3, 40], *args).values.tobytes()


# a bare int() read True as 1 and 2.7 as 2: design_plan(kernel, True, 2.7, s2)
# designed a K = 2 plan, random_ports(16, 2.9, 0) drew 2 ports and
# selmmse_ports(16, True) gave 1
@pytest.mark.parametrize("bad", [True, np.True_, 2.7, np.float64(2.5), "2", None])
def test_counts_must_be_whole_numbers(geom, dictionary, bad):
    kernel = kernel_exponential(geom)
    calls = [
        lambda: design_plan(kernel, bad, 2, 0.1),
        lambda: design_plan(kernel, 2, bad, 0.1),
        lambda: random_ports(16, bad, 0),
        lambda: random_ports(bad, 2, 0),
        lambda: selmmse_ports(16, bad),
        lambda: selmmse_ports(bad, 2),
        lambda: estimate_fas_omp(np.ones(4), [0, 1, 2, 3], dictionary, max_atoms=bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be a whole number"):
            call()


@pytest.mark.parametrize("whole", [4.0, np.int64(4), np.float64(4.0)])
def test_whole_number_counts_accepted(geom, dictionary, atoms, whole):
    kernel = kernel_exponential(geom)
    assert design_plan(kernel, whole, 1, 0.1).plan_id == design_plan(kernel, 4, 1, 0.1).plan_id
    assert np.array_equal(random_ports(16, whole, 0), random_ports(16, 4, 0))
    assert np.array_equal(random_ports(whole, 4, 0), random_ports(4, 4, 0))
    assert np.array_equal(selmmse_ports(16, whole), selmmse_ports(16, 4))
    ports = random_ports(64, 8, rng_seed=5)
    y = atoms[ports, 40] + 0.5 * atoms[ports, 90]
    fit = estimate_fas_omp(y, ports, dictionary, max_atoms=whole).values
    assert fit.tobytes() == estimate_fas_omp(y, ports, dictionary, max_atoms=4).values.tobytes()


def _pinned(dictionary, matrix, y, ports, max_atoms, residual_tol):
    """Assert that estimate_fas_omp and matrix_fas_omp agree bit for bit,
    warnings included, and return the warning categories."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = estimate_fas_omp(y, ports, dictionary, max_atoms, residual_tol).values
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        ref = matrix_fas_omp(matrix, y, ports, max_atoms, residual_tol)
    assert new.dtype == ref.dtype and new.tobytes() == ref.tobytes()
    categories = [w.category for w in caught]
    assert categories == [w.category for w in ref_caught]
    return categories


class TestFasOmpBitsPinned:
    """estimate_fas_omp reproduces matrix_fas_omp bit for bit."""

    @pytest.mark.parametrize(
        "n,oversampling", [(64, 4), (96, 4), (96, 1), (256, 4), (256, 2), (1024, 4)]
    )
    def test_sweep_sized_fits(self, n, oversampling):
        geom = build_port_geometry(n, 10.0, 3.5e9)
        dictionary = build_steering_dictionary(geom, oversampling)
        matrix = steering_matrix(geom, dictionary.grid)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            pm = 4 * (seed % 10 + 1)
            ports = random_ports(n, pm, rng_seed=3000 + seed)
            if seed % 3 == 0:
                ports = rng.permutation(ports)
            h = generate_ssc_channel(geom, SscModelParams(9, 100, 5.0, rng_seed=seed)).values
            noise = 10.0 ** -(seed % 4) * (rng.standard_normal(pm) + 1j * rng.standard_normal(pm))
            y = h[ports] + noise
            max_atoms, tol = 1 + seed % 9, (1e-3, 0.0)[seed % 2]
            _pinned(dictionary, matrix, y, ports, max_atoms, tol)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0**600, 2.0**-600, 1.0])
    def test_extreme_scales(self, dictionary, atoms, scale):
        rng = np.random.default_rng(26)
        ports = random_ports(64, 16, rng_seed=27)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert _pinned(dictionary, atoms, y * scale, ports, 9, 1e-3) == []

    @pytest.mark.parametrize("residual_tol", [1e-3, 0.0])
    def test_zero_observation(self, dictionary, atoms, residual_tol):
        ports = random_ports(64, 12, rng_seed=28)
        assert _pinned(dictionary, atoms, np.zeros(12), ports, 6, residual_tol) == []

    def test_fewer_ports_than_atoms(self, dictionary, atoms):
        # a pick past the P*M-th would use more atoms than rows: rank deficient
        for seed in range(12):
            rng = np.random.default_rng(seed)
            pm = 2 + seed % 4
            ports = random_ports(64, pm, rng_seed=4000 + seed)
            y = rng.standard_normal(pm) + 1j * rng.standard_normal(pm)
            assert _pinned(dictionary, atoms, y, ports, pm + 1 + seed % 3, 0.0) == [RankDeficientFitWarning]

    def test_near_collinear_atoms_take_the_svd_branch(self, monkeypatch):
        # over 1e-6 wavelengths every atom is nearly constant, so the Frobenius
        # bound cannot certify the fourth pick and R's SVD finds it rank deficient.
        # Not pinned bit for bit: the third pick's correlations are ~1e-12 ||y||,
        # and the Gram-space pursuit forms them as a difference of O(||y||) terms,
        # so it and qr_pursuit pick different ones of nearly equal atoms
        geom = build_port_geometry(64, 1e-6, 3.5e9)
        dictionary = build_steering_dictionary(geom)
        matrix = steering_matrix(geom, dictionary.grid)
        rng = np.random.default_rng(29)
        ports = random_ports(64, 8, rng_seed=30)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        with pytest.warns(RankDeficientFitWarning) as caught:
            est = estimate_fas_omp(y, ports, dictionary, 5, 0.0).values
        assert len(calls) == 1 and len(caught) == 1
        monkeypatch.undo()
        with pytest.warns(RankDeficientFitWarning) as ref_caught:
            ref = matrix_fas_omp(matrix, y, ports, 5, 0.0)
        assert len(ref_caught) == 1
        residual, ref_residual = np.linalg.norm(y - est[ports]), np.linalg.norm(y - ref[ports])
        assert abs(residual - ref_residual) <= 1e-3 * ref_residual


def mixed_block(dictionary, atoms, trials, pm, seed):
    """(y, ports) of ``trials`` fits at ``pm`` < max_atoms = 9 ports that stop
    at different picks: a noiseless on-grid atom (after one pick), noise
    (once every port is used, on the tolerance or rank deficient without
    one) and a zero observation (before the first pick)."""
    n = dictionary.num_ports
    rng = np.random.default_rng(seed)
    ports = np.array([rng.choice(n, pm, replace=False) for _ in range(trials)])
    y = rng.standard_normal((trials, pm)) + 1j * rng.standard_normal((trials, pm))
    for t in range(0, trials, 3):
        y[t] = (0.5 - 2j) * atoms[ports[t], (37 * t) % atoms.shape[1]]
    y[2::5] = 0.0
    return y, ports


def _fits_with_warnings(y, ports, dictionary, residual_tol):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = estimate_fas_omp(y, ports, dictionary, residual_tol=residual_tol).values
    return values, [w.category for w in caught]


class TestFasOmpBlock:
    """A (T, P*M) block is T lone fits, chunk by chunk, in bounded memory."""

    @pytest.mark.parametrize("residual_tol", [1e-3, 0.0])
    @pytest.mark.parametrize("trials", [1, 3, 4, 5, 9])
    def test_block_matches_single_calls_across_chunk_boundaries(
        self, dictionary, atoms, monkeypatch, trials, residual_tol
    ):
        # room for 4 trials a chunk: 16 * G * (min(max_atoms, P*M) + 3) bytes each
        monkeypatch.setattr(baselines, "_CHUNK_BYTES", 4 * 16 * 256 * (8 + 3))
        y, ports = mixed_block(dictionary, atoms, trials, 8, seed=trials)
        block, block_caught = _fits_with_warnings(y, ports, dictionary, residual_tol)
        assert block.shape == (trials, 64) and block.dtype == complex
        singles = [_fits_with_warnings(y[t], ports[t], dictionary, residual_tol) for t in range(trials)]
        for row, (single, _) in zip(block, singles):
            assert row.tobytes() == single.tobytes()
        assert block_caught == [c for _, caught in singles for c in caught]

    def test_sweep_sized_block_at_the_default_chunk(self):
        geom = build_port_geometry(256, 10.0, 3.5e9)
        dictionary = build_steering_dictionary(geom)
        chunk = baselines._CHUNK_BYTES // (16 * 1024 * (9 + 3))
        trials = chunk + 2
        rng = np.random.default_rng(31)
        ports = np.array([random_ports(256, 24, rng_seed=t) for t in range(trials)])
        h = np.array([generate_ssc_channel(geom, SscModelParams(9, 100, 5.0, rng_seed=t)).values for t in range(trials)])
        y = np.take_along_axis(h, ports, axis=1) + rng.standard_normal((trials, 24))
        block = estimate_fas_omp(y, ports, dictionary).values
        for t, row in enumerate(block):
            assert row.tobytes() == estimate_fas_omp(y[t], ports[t], dictionary).values.tobytes()

    def test_one_warning_per_trial_that_stopped_early(self, dictionary, atoms):
        y, ports = mixed_block(dictionary, atoms, 12, 4, seed=32)
        _, caught = _fits_with_warnings(y, ports, dictionary, 0.0)
        # with no tolerance a noisy fit at four ports stops rank deficient at its
        # fifth pick; an exact one-atom fit or a zero observation stops without a warning
        early = sum(len(_fits_with_warnings(y[t], ports[t], dictionary, 0.0)[1]) for t in range(12))
        assert 0 < early < 12 and caught == [RankDeficientFitWarning] * early

    @pytest.mark.parametrize("n", [64, 96, 256, 1024])
    def test_gram_rows_are_windows_of_the_lags(self, n):
        # the Gram of the measured atoms is Toeplitz: every row is a window of one (2G - 1) vector
        geom = build_port_geometry(n, 10.0, 3.5e9)
        dictionary = build_steering_dictionary(geom)
        g = dictionary.grid.size
        rng = np.random.default_rng(n)
        for pm in (4, 40):
            ports = np.array([rng.choice(n, pm, replace=False) for _ in range(2)])
            y = rng.standard_normal((2, pm)) + 1j * rng.standard_normal((2, pm))
            alpha = np.empty((2, g), dtype=complex)
            lags = np.empty((2, 2 * g - 1), dtype=complex)
            dictionary._correlations(ports, y, alpha, lags)
            for t in range(2):
                a = dictionary._rows(ports[t])
                assert np.abs(alpha[t] - np.conj(y[t]) @ a).max() <= 1e-12 * np.abs(y[t]).sum()
                for j in np.r_[0, g - 1, rng.choice(g, 20, replace=False)]:
                    # row j of the Hermitian Gram, a_j^H A, is the conjugate of column j, A^H a_j
                    explicit = np.conj(a[:, j]) @ a
                    assert np.abs(lags[t, g - 1 - j : 2 * g - 1 - j] - explicit).max() <= 1e-12 * pm

    def test_peak_memory_does_not_grow_with_trials(self):
        geom = build_port_geometry(256, 10.0, 3.5e9)
        dictionary = build_steering_dictionary(geom)
        rng = np.random.default_rng(33)

        def peak_above_estimate(trials):
            ports = np.array([random_ports(256, 40, rng_seed=t) for t in range(trials)])
            y = rng.standard_normal((trials, 40)) + 1j * rng.standard_normal((trials, 40))
            tracemalloc.start()
            try:
                estimate = estimate_fas_omp(y, ports, dictionary).values
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - estimate.nbytes

        small, large = peak_above_estimate(50), peak_above_estimate(500)
        assert large <= small + 64 * 1024, f"T=500 took {(large - small) / 1e3:.0f} kB more than T=50"
        assert large < 4e6, f"the pursuit took {large / 1e6:.1f} MB besides the estimate"

    @pytest.mark.parametrize(
        "ports, match",
        [([[0, 1, 2], [3, 3, 4]], "distinct"), ([[0, 1, 2], [3, 4, 64]], "out of range"), ([[0, 1, 2.5]] * 2, "integral")],
    )
    def test_each_row_is_checked_as_a_port_set(self, dictionary, ports, match):
        with pytest.raises(ValueError, match=match):
            estimate_fas_omp(np.ones((2, 3)), ports, dictionary)

    def test_trials_may_measure_the_same_ports(self, dictionary, atoms):
        # ports must be distinct within a row, not across rows
        ports = np.array([[5, 9, 30], [5, 9, 30]])
        block = estimate_fas_omp(atoms[ports, 100], ports, dictionary).values
        assert block[0].tobytes() == block[1].tobytes()


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
