"""Comparison estimators that use no port-domain prior.

Two conventional references for the planned Bayesian scheme:

* equally spaced measure-and-hold ("selmmse"): measure P*M evenly spread
  ports and copy each measurement to its nearest neighbors;
* sparse plane-wave recovery ("fas-omp"): measure P*M random ports and run
  orthogonal matching pursuit against an oversampled steering dictionary,
  then expand the recovered atoms to all ports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .channels import ChannelRealization, _ports_in_range, steering_matrix


class RankDeficientFitWarning(RuntimeWarning):
    """Raised when matching pursuit selects nearly collinear atoms."""


@dataclass(frozen=True)
class SteeringDictionary:
    """Plane-wave atoms on a uniform sin-angle grid.

    ``matrix`` is (N, G) with unit-modulus entries, so every column has
    norm sqrt(N); ``grid`` holds the G sin values in [-1, 1].
    """

    matrix: np.ndarray
    grid: np.ndarray


def build_steering_dictionary(geom, oversampling=4):
    """G = oversampling * N plane-wave atoms spanning sin(theta) in [-1, 1]."""
    if oversampling < 1:
        raise ValueError("oversampling must be at least 1")
    g = int(oversampling) * geom.num_ports
    grid = np.linspace(-1.0, 1.0, g)
    return SteeringDictionary(steering_matrix(geom, grid), grid)


def selmmse_ports(num_ports, num_measurements):
    """Centers of num_measurements equal slices of the port range.

    Port k (1-based) is round((k - 1/2) * N / PM) with half-up rounding,
    which lands on every port when PM = N.  Returned 0-based, strictly
    increasing.
    """
    n, pm = int(num_ports), int(num_measurements)
    if pm < 1:
        raise ValueError("num_measurements must be positive")
    if pm > n:
        raise ValueError("cannot measure more ports than exist")
    k = np.arange(1, pm + 1)
    ports_1based = np.floor((k - 0.5) * n / pm + 0.5).astype(int)
    ports_1based = np.clip(ports_1based, 1, n)
    ports = ports_1based - 1
    if np.unique(ports).size != ports.size:
        raise ValueError("rounded measurement ports collide")
    return ports


def estimate_selmmse(y, ports, num_ports):
    """Hold each measurement across the ports nearest to it.

    Every port copies the measurement of its closest measured port,
    ties going to the lower port index; measured ports keep their own
    measurement exactly.  Every port must lie in [0, num_ports).
    """
    y = np.asarray(getattr(y, "values", y))
    ports = _ports_in_range(ports, num_ports)
    if y.size != ports.size:
        raise ValueError("one measurement per port is required")
    if ports.size == 0:
        raise ValueError("at least one measurement is required")
    srt = np.argsort(ports, kind="stable")
    ports_sorted, y_sorted = ports[srt], y[srt]
    grid = np.arange(int(num_ports))
    above = np.searchsorted(ports_sorted, grid)  # first measured port >= each port
    below = np.maximum(above - 1, 0)
    above = np.minimum(above, ports.size - 1)
    # equal distance goes to the lower port
    nearest = np.where(grid - ports_sorted[below] <= ports_sorted[above] - grid, below, above)
    # a port listed twice answers with its first listing
    nearest = np.searchsorted(ports_sorted, ports_sorted[nearest])
    return ChannelRealization(y_sorted[nearest])


def random_ports(num_ports, num_measurements, rng_seed):
    """Distinct uniformly random measurement ports, 0-based sorted."""
    n, pm = int(num_ports), int(num_measurements)
    if pm < 1 or pm > n:
        raise ValueError("need 1 <= num_measurements <= num_ports")
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(n, size=pm, replace=False))


def omp_solve(measured_atoms, y, max_atoms, residual_tol):
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


def _warn_rank_deficient():
    warnings.warn(
        "matching pursuit hit a rank-deficient refit; stopping early",
        RankDeficientFitWarning,
        stacklevel=3,
    )


def estimate_fas_omp(y, ports, dictionary, max_atoms=9, residual_tol=1e-3):
    """Sparse recovery of the full channel from random-port measurements.

    Runs OMP on the dictionary rows at the measured ports, then expands the
    recovered atom coefficients through the full dictionary.

    Parameters
    ----------
    y : array or PilotObservation
        Measurements at ``ports``.
    ports : array of int
        Measured 0-based port indices, distinct, each in [0, N).
    dictionary : SteeringDictionary
        Full-aperture atoms to search over.
    max_atoms : int
        Sparsity cap (number of pursuit iterations).
    residual_tol : float
        Relative residual at which the pursuit stops early.
    """
    y = np.asarray(getattr(y, "values", y))
    ports = _ports_in_range(ports, dictionary.matrix.shape[0])
    if y.size != ports.size:
        raise ValueError("one measurement per port is required")
    coeffs, support, _ = omp_solve(dictionary.matrix[ports, :], y, max_atoms, residual_tol)
    estimate = np.zeros(dictionary.matrix.shape[0], dtype=complex)
    if support:
        estimate = dictionary.matrix[:, support] @ coeffs
    return ChannelRealization(estimate)
