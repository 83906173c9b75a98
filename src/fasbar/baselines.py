"""Comparison estimators that use no port-domain prior.

Two conventional references for the planned Bayesian scheme:

* equally spaced measure-and-hold ("selmmse"): measure P*M evenly spread
  ports and copy each measurement to its nearest neighbors;
* sparse plane-wave recovery ("fas-omp"): measure P*M random ports and run
  orthogonal matching pursuit against an oversampled steering dictionary,
  then expand the recovered atoms to all ports.  A block of trials, each
  with its own ports, runs its pursuits side by side, one pick of every
  trial per step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channels import ChannelRealization, _expand, _finite, _measured_ports, _phase_table, _whole_number


class RankDeficientFitWarning(RuntimeWarning):
    """Raised when matching pursuit selects nearly collinear atoms."""


@dataclass(frozen=True, eq=False)
class SteeringDictionary:
    """Plane-wave atoms on a uniform sin-angle grid, kept as two phase tables.

    ``grid`` holds the G sin values in [-1, 1].  With b = ceil(sqrt(N)),
    atom g at port n = q*b + r is ``hi[q, g] * lo[r, g]``; ``hi`` is
    (ceil(N/b), G) and ``lo`` is (b, G), as ``channels._phase_table``
    fills them.  The atoms equal bit for bit the columns of the test
    oracle ``steering_matrix(geom, grid)`` in ``tests/helpers.py``.
    Entries have unit modulus, so every atom has norm sqrt(N).  The (N, G)
    matrix is never formed: at G = 4N the tables take 4.2 MB at N = 1024
    and 33.5 MB at N = 4096, where the matrix would take 67 MB and 1.07 GB.
    The arrays are read-only; equality is identity.
    """

    num_ports: int
    grid: np.ndarray
    hi: np.ndarray
    lo: np.ndarray

    def __post_init__(self):
        for table in (self.grid, self.hi, self.lo):
            table.flags.writeable = False

    def _rows(self, ports, out=None):
        """Every atom's entry at each of ``ports`` (an int array in [0, N)),
        shape (len(ports), G), written into ``out`` when it is given."""
        b = self.lo.shape[0]
        block = np.empty((ports.size, self.grid.size), dtype=complex) if out is None else out
        # one product per row, written in place: hi[q] * lo[r] over all
        # rows at once would first gather two more (len(ports), G) arrays
        for row, port in zip(block, ports.tolist()):
            q, r = divmod(port, b)
            np.multiply(self.hi[q], self.lo[r], out=row)
        return block

    def _correlations(self, ports, y, alpha, lags):
        """Fill what the pursuit needs of trial t of the (T, m) ``ports`` and ``y``.

        Writes y_t^H A_t, with A_t = ``_rows(ports[t])``, into ``alpha[t]``,
        and into ``lags[t]`` the 2G - 1 values from which the pursuit cuts
        every row of the Gram A_t^H A_t.  The grid is uniform in sin, so Gram
        entry (i, j) = sum_k exp(j*2*pi*x_k*(s_i - s_j)/lambda) depends on
        i - j alone: the Gram is Hermitian Toeplitz, and its first row
        c = a_0^H A_t gives row i as lags[t, G-1-i : 2G-1-i] with
        lags[t] = [conj(c[:0:-1]), c].  Each trial's block is filled once
        into one (m, G) buffer and read once, by one product with [y_t, a_0]^H.
        """
        m, g = ports.shape[1], self.grid.size
        block = np.empty((m, g), dtype=complex)
        pair = np.empty((2, m), dtype=complex)
        product = np.empty((2, g), dtype=complex)
        for t, measured in enumerate(ports):
            self._rows(measured, out=block)
            np.conjugate(y[t], out=pair[0])
            np.conjugate(block[:, 0], out=pair[1])
            np.matmul(pair, block, out=product)
            alpha[t], lags[t, g - 1 :] = product
        np.conjugate(lags[:, : g - 1 : -1], out=lags[:, : g - 1])

    def _columns(self, indices):
        """Atoms ``indices`` at every port, shape (N, len(indices))."""
        return _expand(self.hi[:, indices], self.lo[:, indices], self.num_ports)


def build_steering_dictionary(geom, oversampling=4):
    """G = oversampling * N plane-wave atoms spanning sin(theta) in [-1, 1].

    ``oversampling`` must be a whole number of at least 1; a bool, a
    fraction or a non-number raises ValueError.
    """
    oversampling = _whole_number(oversampling, "oversampling")
    if oversampling < 1:
        raise ValueError("oversampling must be at least 1")
    grid = np.linspace(-1.0, 1.0, oversampling * geom.num_ports)
    return SteeringDictionary(geom.num_ports, grid, *_phase_table(geom, grid))


def selmmse_ports(num_ports, num_measurements):
    """Centers of num_measurements equal slices of the port range.

    Port k (1-based) is round((k - 1/2) * N / PM) with half-up rounding,
    which lands on every port when PM = N.  Centers lie N/PM >= 1 apart, so
    the ports, returned 0-based, are strictly increasing.
    """
    n, pm = _whole_number(num_ports, "num_ports"), _whole_number(num_measurements, "num_measurements")
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
    [0, num_ports), as ``observe_ports`` takes them, and ``num_ports`` a
    whole number.  ``y``
    is one measurement per port, shape (K,), or a block of T rounds,
    shape (T, K), which holds T rounds in one (T, num_ports) estimate.
    """
    y = np.asarray(getattr(y, "values", y))
    num_ports = _whole_number(num_ports, "num_ports")
    ports = _measured_ports(ports, num_ports)
    if y.ndim not in (1, 2) or y.shape[-1] != ports.size:
        raise ValueError("one measurement per port is required")
    if ports.size == 0:
        raise ValueError("at least one measurement is required")
    srt = np.argsort(ports)
    ports_sorted = ports[srt]
    # port n counts the midpoints strictly below it, so a tie goes to the lower port
    nearest = np.searchsorted((ports_sorted[:-1] + ports_sorted[1:]) / 2, np.arange(num_ports))
    return ChannelRealization(y.take(srt[nearest], axis=-1))


def random_ports(num_ports, num_measurements, rng_seed):
    """Distinct uniformly random measurement ports, 0-based sorted."""
    n, pm = _whole_number(num_ports, "num_ports"), _whole_number(num_measurements, "num_measurements")
    if pm < 1 or pm > n:
        raise ValueError("need 1 <= num_measurements <= num_ports")
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(n, size=pm, replace=False))


# the kept Gram rows and the lags of one chunk of trials stay within this
_CHUNK_BYTES = 2 << 20


def _scaled(y):
    """The rows of ``y`` times 2^-e_t, where 2^(e_t - 1) <= max|y_t| < 2^e_t,
    and the factors 2^e_t that undo it."""
    e = np.frexp(np.abs(y).max(axis=1, initial=0.0))[1]
    # clamped so that 2^e and 2^-e are both finite floats
    np.minimum(np.maximum(e, -1021, out=e), 1023, out=e)
    return y * np.ldexp(1.0, -e)[:, None], np.ldexp(1.0, e)


def _pursue(y, scale, grams, lags, ports, dictionary, max_atoms, residual_tol):
    """Orthogonal matching pursuit of T trials at once, one pick of each per step.

    Trial t greedily picks the atom most correlated with its residual,
    |a_g^H r|, and stops when max_atoms are used or the residual drops to
    residual_tol * ||y_t||.  Its picked atoms A_S are kept as a thin QR
    factor A_S = Q R: each pick orthogonalizes its atom, formed from the
    dictionary's phase tables at ``ports[t]``, against Q by classical
    Gram-Schmidt applied twice, appending one column to Q and to the
    upper-triangular R, and the residual loses its projection on the new
    column.  The least-squares coefficients come at the end as
    x = R^-1 Q^H y, from the R^-1 the rank certificate below keeps.

    The correlations are not formed from the residual.  With x the fit of
    the picks so far, A^H r = A^H y - sum_j x_j A^H a_j, so a pick costs one
    Gram row and a product with the k + 1 rows kept: (k + 1) * G work where
    A^H r would take m * G.  ``grams`` is a (T, min(max_atoms, m) + 1, G)
    array whose row grams[t, 0] holds y_t^H A_t; the pursuit cuts the Gram
    row a^H A_t of pick k from ``lags[t]`` into grams[t, k + 1], as
    ``SteeringDictionary._correlations`` lays both out, and weights the
    rows by [1, -conj(x)].  Picks and coefficients are those of a pursuit
    that correlates the residual itself, except where correlations differ
    by less than the rounding of that difference of O(||y||) terms, as
    they do among nearly collinear atoms.

    A pick is rank deficient, by the rule of ``np.linalg.lstsq`` with
    ``rcond=None`` applied to R (which has the singular values of A_S),
    when it would use more atoms k than the m rows, when r_kk = 0, or when
    s_min(R) <= eps * max(m, k) * s_max(R).  The bounds
    s_min >= 1 / ||R^-1||_F and s_max <= ||R||_F, both updated in O(k^2)
    per pick, certify most picks; only when they cannot is R's SVD taken.
    A rank-deficient pick stops its trial with a RankDeficientFitWarning,
    keeping the last full-rank fit.

    ``y`` holds the T observations as rows, scaled as ``_scaled`` leaves
    them, and ``scale`` the factors that undo it.  A trial whose pursuit
    stops leaves the arrays, and the others go on.  Each product of a
    trial's QR arithmetic is its own BLAS call, the one a lone trial makes:
    ``np.matvec`` and ``np.vecdot`` call BLAS as ``@`` and ``np.vdot`` do on
    one trial's vectors.  So a trial's fit does not depend on the trials
    beside it.

    Returns (coeffs, picked, counts): trial t picked the atoms
    picked[t, :k] with k = counts[t] and fitted them with coeffs[t, :k];
    the entries beyond are 0.
    """
    trials, m = y.shape
    g = grams.shape[2]
    size = min(max_atoms, m)
    eps = np.finfo(float).eps
    coeffs_out = np.zeros((trials, size), dtype=complex)
    picked_out = np.zeros((trials, size), dtype=np.intp)
    counts = np.zeros(trials, dtype=np.intp)
    live = np.arange(trials)
    offsets = live[:, None] * g  # flat index of each row of the correlations
    q = np.zeros((trials, size, m), dtype=complex)  # q_k as rows
    qh = np.zeros_like(q)  # their conjugates, so Q^H v = qh @ v
    r = np.zeros((trials, size, size), dtype=complex)
    r_inv = np.zeros_like(r)
    fro2 = np.zeros(trials)  # squared Frobenius norms of R and R^-1
    inv_fro2 = np.zeros(trials)
    picked = np.zeros((trials, size), dtype=np.intp)
    alpha, alpha_rows = grams[:, 0], np.empty((trials, g), dtype=complex)
    magnitudes = np.empty((trials, g))
    weights = np.empty((trials, size + 1), dtype=complex)  # [1, -conj(x)], conj(x) = conj(R^-1) t
    weights[:, 0] = 1.0
    t = np.zeros((trials, size), dtype=complex)  # conj(Q^H y)
    residual_h = np.conj(y).astype(complex)  # r^H, so a^H r is the conjugate of residual_h @ a
    # ||y|| as np.linalg.norm forms it
    norm = np.sqrt(np.vecdot(y.real, y.real) + np.vecdot(y.imag, y.imag))
    stop = residual_tol * norm
    stopped = np.zeros(trials, dtype=bool)
    # flat positions of each measured port's row in the phase tables
    hi, lo = dictionary.hi.reshape(-1), dictionary.lo.reshape(-1)
    hi_at, lo_at = np.divmod(ports, dictionary.lo.shape[0])
    hi_at *= g
    lo_at *= g
    # a column of a measured block reaches BLAS at a stride, where a dot
    # product is summed in another order than at unit stride: lay atoms out so
    atom_rows = np.empty((trials, m, 2), dtype=complex)

    def finish(rows, k):
        """Keep the fits of ``rows`` after their k picks: x = R^-1 Q^H y."""
        done = live[rows]
        counts[done] = k
        picked_out[done] = picked[rows]
        if not k:
            return
        rhs = np.matvec(qh[rows, :k], y[rows])
        # y is finite, so a non-finite Q^H y comes from a picked atom
        if not np.isfinite(rhs).all():
            raise ValueError("measured atoms hold a non-finite entry")
        coeffs_out[done, :k] = np.matvec(r_inv[rows, :k, :k], rhs) * scale[rows, None]

    # a row whose r_kk is 0 divides by it before it stops, and leaves at the next step
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(max_atoms):
            leave = stopped | (norm <= stop)
            if leave.any():
                finish(np.flatnonzero(leave & ~stopped), k)
                keep = ~leave
                live, y, scale, alpha, q, qh, r, r_inv, fro2, inv_fro2, picked, grams, weights, t = (
                    x[keep] for x in (live, y, scale, alpha, q, qh, r, r_inv, fro2, inv_fro2, picked, grams, weights, t)
                )
                magnitudes = magnitudes[: live.size]
                residual_h, norm, stop, stopped = residual_h[keep], norm[keep], stop[keep], stopped[keep]
            n = live.size
            if not n:
                break
            if k == m:
                for _ in live:
                    _warn_rank_deficient()
                finish(np.arange(n), k)
                break
            np.abs(alpha, out=magnitudes)
            np.put(magnitudes, picked[:, :k] + offsets[:n], -1.0)  # an atom is never picked twice
            pick = magnitudes.argmax(axis=1)
            atom = atom_rows[:n, :, 0]
            column = pick[:, None]
            np.multiply(hi[hi_at[live] + column], lo[lo_at[live] + column], out=atom)
            q_k, qh_k, q_new, qh_new = q[:, :k], qh[:, :k], q[:, k], qh[:, k]
            q_kt = q_k.transpose(0, 2, 1)  # np.matvec(q_kt, c) is c @ q_k
            col = np.matvec(qh_k, atom)
            w = atom - np.matvec(q_kt, col)
            again = np.matvec(qh_k, w)
            w -= np.matvec(q_kt, again)
            col += again
            r_kk = np.sqrt(np.vecdot(w, w).real)
            r[:, :k, k], r[:, k, k] = col, r_kk
            inv_kk = 1.0 / r_kk
            inv_col = np.matvec(r_inv[:, :k, :k], col)  # times -inv_kk, R^-1's new column above the diagonal
            new_fro2 = fro2 + np.vecdot(col, col).real + r_kk * r_kk
            new_inv_fro2 = inv_fro2 + (np.vecdot(inv_col, inv_col).real + 1.0) * inv_kk * inv_kk
            rcond = eps * max(m, k + 1)
            # 1/||R^-1||_F > rcond * ||R||_F certifies full rank without an SVD
            certified = new_fro2 * new_inv_fro2 * rcond * rcond < 1.0
            if not certified.all():
                for row in np.flatnonzero(~certified):
                    if r_kk[row] == 0.0:
                        stopped[row] = True
                    else:
                        sv = np.linalg.svd(r[row, : k + 1, : k + 1], compute_uv=False)
                        stopped[row] = sv[-1] <= rcond * sv[0]
                rows = np.flatnonzero(stopped)
                for _ in rows:
                    _warn_rank_deficient()
                finish(rows, k)
                inv_kk[rows] = 0.0  # zeros keep their rows finite until they leave
            np.multiply(w, inv_kk[:, None], out=q_new)
            np.conjugate(q_new, out=qh_new)
            np.multiply(inv_col, -inv_kk[:, None], out=r_inv[:, :k, k])
            r_inv[:, k, k] = inv_kk
            fro2, inv_fro2 = new_fro2, new_inv_fro2
            picked[:, k] = pick
            # conj(q_k^H r), which the residual loses times q_k
            t_k = np.vecdot(qh_new, residual_h)
            residual_h -= t_k[:, None] * qh_new
            norm = np.sqrt(np.vecdot(residual_h, residual_h).real)
            t[:, k] = t_k
            if k + 1 < size:  # the next step picks
                # Gram row j of trial t is lags[t, G - 1 - j : 2G - 1 - j]
                for row, trial, first in zip(grams[:, k + 1], live.tolist(), (g - 1 - pick).tolist()):
                    row[...] = lags[trial, first : first + g]
                np.negative(np.matvec(np.conj(r_inv[:, : k + 1, : k + 1]), t[:, : k + 1]), out=weights[:, 1 : k + 2])
                alpha = np.matvec(grams[:, : k + 2].transpose(0, 2, 1), weights[:, : k + 2], out=alpha_rows[:n])
        else:
            finish(np.flatnonzero(~stopped), max_atoms)
    return coeffs_out, picked_out, counts


def _warn_rank_deficient():
    warnings.warn(
        "matching pursuit hit a rank-deficient refit; stopping early",
        RankDeficientFitWarning,
        stacklevel=4,
    )


def estimate_fas_omp(y, ports, dictionary, max_atoms=9, residual_tol=1e-3):
    """Sparse recovery of the full channel from random-port measurements.

    Runs OMP (see ``_pursue``) on the atoms' entries at the measured ports,
    then expands the recovered atom coefficients over all ports.  Each Gram
    row is cut from the Toeplitz Gram of the measured atoms (see
    ``SteeringDictionary._correlations``): a trial fills its (K, G) block
    once, for its first correlations and the Gram's first row, and a pick
    then costs (k + 1) * G, not K * G.

    The pursuit runs on y_t * 2^-e, where 2^(e-1) <= max|y_t| < 2^e within
    the float range, and scales its coefficients back by 2^e.  Scaling by
    a power of two is exact, so the fit is unchanged wherever ||y_t|| could
    be formed directly, and ||y_t|| neither underflows nor overflows at
    extreme scales.  A NaN or infinite entry of y raises ValueError before
    the pursuit starts.

    A block of trials runs in chunks of as many trials as fit 2 MiB of kept
    Gram rows and lags (10 at N = 256, one from N = 2048 on), so memory does
    not grow with T beyond the estimate itself.  A trial's estimate is bit
    for bit that of its lone call.

    Parameters
    ----------
    y : array or PilotObservation
        Measurements at ``ports``: one trial, shape (K,), or a block of T
        trials, shape (T, K).
    ports : array of int
        Measured 0-based port indices, of the shape of ``y``: one port set
        per trial, each distinct and in [0, N), as ``observe_ports`` takes
        them.
    dictionary : SteeringDictionary
        Full-aperture atoms to search over.
    max_atoms : int
        Sparsity cap (number of pursuit iterations), a whole number of at
        least 1.
    residual_tol : float
        Relative residual at which the pursuit stops early.

    Returns
    -------
    ChannelRealization
        The estimate at every port, shape (N,), or (T, N) for a block.
    """
    y = np.asarray(getattr(y, "values", y))
    if y.ndim not in (1, 2):
        raise ValueError("one measurement per port is required")
    ports = _measured_ports(ports, dictionary.num_ports, y.ndim)
    if y.shape != ports.shape:
        raise ValueError("one measurement per port is required")
    max_atoms = _whole_number(max_atoms, "max_atoms")
    if max_atoms < 1:
        raise ValueError("max_atoms must be positive")
    if _finite(residual_tol, "residual_tol") < 0.0:
        raise ValueError("residual_tol must be nonnegative")
    if not np.isfinite(y).all():
        raise ValueError("observation y holds a non-finite entry")
    one = y.ndim == 1
    y, ports = np.atleast_2d(y, ports)
    n, g = dictionary.num_ports, dictionary.grid.size
    # a trial keeps size + 1 Gram rows and 2G - 1 lags
    size = min(max_atoms, y.shape[1])
    chunk = max(1, min(len(y), _CHUNK_BYTES // (16 * g * (size + 3))))
    alpha = np.empty((chunk, g), dtype=complex)
    lags = np.empty((chunk, 2 * g - 1), dtype=complex)
    grams = None
    estimates = np.zeros((len(y), n), dtype=complex)
    for start in range(0, len(y), chunk):
        part = slice(start, start + chunk)
        scaled, scale = _scaled(y[part])
        trials = len(scaled)
        dictionary._correlations(ports[part], scaled, alpha[:trials], lags[:trials])
        if grams is None:  # made once the first measured block is freed, so a lone chunk never holds both
            grams = np.empty((chunk, size + 1, g), dtype=complex)
        grams[:trials, 0] = alpha[:trials]
        coeffs, picked, counts = _pursue(
            scaled, scale, grams[:trials], lags[:trials], ports[part], dictionary, max_atoms, residual_tol
        )
        for estimate, support, fit, k in zip(estimates[part], picked, coeffs, counts.tolist()):
            if k:
                estimate[:] = dictionary._columns(support[:k]) @ fit[:k]
    return ChannelRealization(estimates[0] if one else estimates)
