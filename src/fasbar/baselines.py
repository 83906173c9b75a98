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
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .channels import ChannelRealization, _expand, _measured_ports, _phase_table


class RankDeficientFitWarning(RuntimeWarning):
    """Raised when matching pursuit selects nearly collinear atoms."""


@dataclass(frozen=True, eq=False)
class SteeringDictionary:
    """Plane-wave atoms on a uniform sin-angle grid, kept as two phase tables.

    ``grid`` holds the G sin values in [-1, 1].  With b = ceil(sqrt(N)),
    atom g at port n = q*b + r is ``hi[q, g] * lo[r, g]``, bit for bit
    entry (n, g) of ``steering_matrix(geom, grid)``; ``hi`` is
    (ceil(N/b), G) and ``lo`` is (b, G), as ``channels._phase_table``
    fills them.  Entries have unit modulus, so every atom has norm
    sqrt(N).  The (N, G) matrix is never formed: at G = 4N the tables take
    4.2 MB at N = 1024 and 33.5 MB at N = 4096, where the matrix would take
    67 MB and 1.07 GB.  The arrays are read-only; equality is identity.
    """

    num_ports: int
    grid: np.ndarray
    hi: np.ndarray
    lo: np.ndarray

    def __post_init__(self):
        for table in (self.grid, self.hi, self.lo):
            table.flags.writeable = False

    def _rows(self, ports):
        """Every atom's entry at each of ``ports`` (an int array in [0, N)),
        shape (len(ports), G)."""
        b = self.lo.shape[0]
        block = np.empty((ports.size, self.grid.size), dtype=complex)
        # one product per row, written in place: hi[q] * lo[r] over all
        # rows at once would first gather two more (len(ports), G) arrays
        for row, port in zip(block, ports.tolist()):
            q, r = divmod(port, b)
            np.multiply(self.hi[q], self.lo[r], out=row)
        return block

    def _columns(self, indices):
        """Atoms ``indices`` at every port, shape (N, len(indices))."""
        return _expand(self.hi[:, indices], self.lo[:, indices], self.num_ports)


def build_steering_dictionary(geom, oversampling=4):
    """G = oversampling * N plane-wave atoms spanning sin(theta) in [-1, 1].

    ``oversampling`` must be a whole number of at least 1; a bool, a
    fraction or a non-number raises ValueError.
    """
    if (
        isinstance(oversampling, bool)
        or not isinstance(oversampling, numbers.Real)
        or oversampling % 1 != 0
    ):
        raise ValueError(f"oversampling must be a whole number, got {oversampling!r}")
    if oversampling < 1:
        raise ValueError("oversampling must be at least 1")
    grid = np.linspace(-1.0, 1.0, int(oversampling) * geom.num_ports)
    return SteeringDictionary(geom.num_ports, grid, *_phase_table(geom, grid))


def selmmse_ports(num_ports, num_measurements):
    """Centers of num_measurements equal slices of the port range.

    Port k (1-based) is round((k - 1/2) * N / PM) with half-up rounding,
    which lands on every port when PM = N.  Centers lie N/PM >= 1 apart, so
    the ports, returned 0-based, are strictly increasing.
    """
    n, pm = int(num_ports), int(num_measurements)
    if pm < 1:
        raise ValueError("num_measurements must be positive")
    if pm > n:
        raise ValueError("cannot measure more ports than exist")
    k = np.arange(1, pm + 1)
    return np.floor((k - 0.5) * n / pm + 0.5).astype(int) - 1


def estimate_selmmse(y, ports, num_ports):
    """Hold each measurement across the ports nearest to it.

    Every port copies the measurement of its closest measured port,
    ties going to the lower port index; measured ports keep their own
    measurement exactly.  ``ports`` must be distinct ports in
    [0, num_ports), as ``observe_ports`` takes them.  ``y``
    is one measurement per port, shape (K,), or a block of T rounds,
    shape (T, K), which holds T rounds in one (T, num_ports) estimate.
    """
    y = np.asarray(getattr(y, "values", y))
    ports = _measured_ports(ports, num_ports)
    if y.ndim not in (1, 2) or y.shape[-1] != ports.size:
        raise ValueError("one measurement per port is required")
    if ports.size == 0:
        raise ValueError("at least one measurement is required")
    srt = np.argsort(ports)
    ports_sorted = ports[srt]
    # port n counts the midpoints strictly below it, so a tie goes to the lower port
    nearest = np.searchsorted((ports_sorted[:-1] + ports_sorted[1:]) / 2, np.arange(int(num_ports)))
    return ChannelRealization(y.take(srt[nearest], axis=-1))


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
    overflows at extreme scales.  A NaN or infinite entry of y raises
    ValueError before the pursuit starts, and a picked atom holding one
    raises ValueError before the solve.

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
    peak = float(np.abs(y).max(initial=0.0))
    if not math.isfinite(peak):
        raise ValueError("observation y holds a non-finite entry")
    # clamped so that 2^e and 2^-e are both finite floats
    e = min(max(math.frexp(peak)[1], -1021), 1023)
    y = y * math.ldexp(1.0, -e)
    norm_y = float(np.linalg.norm(y))
    support: list = []
    norms = [norm_y]
    if norm_y == 0.0:
        return np.zeros(0, dtype=complex), support, norms
    m = y.size
    max_atoms = int(max_atoms)
    size = min(max_atoms, m)
    stop = residual_tol * norm_y
    dtype = np.result_type(a, y, 1.0)
    q_rows = np.zeros((size, m), dtype=dtype)  # q_k as rows
    qh_rows = np.zeros((size, m), dtype=dtype)  # their conjugates, so Q^H v = qh_rows @ v
    r = np.zeros((size, size), dtype=dtype)
    r_inv = np.zeros((size, size), dtype=dtype)
    r_fro2 = r_inv_fro2 = 0.0  # squared Frobenius norms of R and R^-1
    picked = np.zeros(size, dtype=np.intp)
    eps = np.finfo(float).eps
    residual_h = np.conj(y).astype(complex)  # r^H, so a^H r is the conjugate of residual_h @ a
    product = np.empty(a.shape[1], dtype=np.result_type(residual_h, a))
    corr = np.empty(a.shape[1])
    for k in range(max_atoms):
        if norms[-1] <= stop:
            break
        np.abs(np.matmul(residual_h, a, out=product), out=corr)
        corr[picked[:k]] = -1.0  # an atom is never picked twice
        pick = int(corr.argmax())
        if k == m:
            _warn_rank_deficient()
            break
        q_k, qh_k = q_rows[:k], qh_rows[:k]
        atom = a[:, pick]
        col = qh_k @ atom
        w = atom - col @ q_k
        again = qh_k @ w
        w -= again @ q_k
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
        q_new, qh_new = q_rows[k], qh_rows[k]
        np.multiply(w, inv_kk, out=q_new)
        np.conjugate(q_new, out=qh_new)
        np.multiply(inv_col, -inv_kk, out=r_inv[:k, k])
        r_inv[k, k] = inv_kk
        r_fro2, r_inv_fro2 = fro2, inv_fro2
        picked[k] = pick
        support.append(pick)
        residual_h -= (q_new @ residual_h) * qh_new
        norms.append(math.sqrt(np.vdot(residual_h, residual_h).real))
    k = len(support)
    scale = math.ldexp(1.0, e)
    norms = [v * scale for v in norms]
    if k == 0:
        return np.zeros(0, dtype=complex), support, norms
    # R x = Q^H y through LAPACK, as scipy's solve_triangular does for a
    # C-ordered R: its transpose is F-ordered, and lower, so solve with trans
    rhs = qh_rows[:k] @ y
    # y is finite, so a non-finite Q^H y comes from a picked atom
    if not np.isfinite(rhs).all():
        raise ValueError("measured atoms hold a non-finite entry")
    (trtrs,) = get_lapack_funcs(("trtrs",), (r, rhs))
    coeffs, info = trtrs(r[:k, :k].T, rhs, lower=1, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
    return coeffs * scale, support, norms


def _warn_rank_deficient():
    warnings.warn(
        "matching pursuit hit a rank-deficient refit; stopping early",
        RankDeficientFitWarning,
        stacklevel=3,
    )


def estimate_fas_omp(y, ports, dictionary, max_atoms=9, residual_tol=1e-3):
    """Sparse recovery of the full channel from random-port measurements.

    Runs OMP on the atoms' entries at the measured ports, then expands the
    recovered atom coefficients over all ports.  Both are formed from the
    dictionary's phase tables: one (len(ports), G) block for the pursuit
    and the picked columns for the expansion.

    Parameters
    ----------
    y : array or PilotObservation
        Measurements at ``ports``.
    ports : array of int
        Measured 0-based port indices, distinct and in [0, N), as
        ``observe_ports`` takes them.
    dictionary : SteeringDictionary
        Full-aperture atoms to search over.
    max_atoms : int
        Sparsity cap (number of pursuit iterations).
    residual_tol : float
        Relative residual at which the pursuit stops early.
    """
    y = np.asarray(getattr(y, "values", y))
    ports = _measured_ports(ports, dictionary.num_ports)
    if y.shape != ports.shape:
        raise ValueError("one measurement per port is required")
    coeffs, support, _ = omp_solve(dictionary._rows(ports), y, max_atoms, residual_tol)
    estimate = np.zeros(dictionary.num_ports, dtype=complex)
    if support:
        estimate = dictionary._columns(support) @ coeffs
    return ChannelRealization(estimate)
