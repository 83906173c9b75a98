"""Two-stage Bayesian port sampling and linear channel reconstruction.

Treat the per-port channel vector h as a zero-mean Gaussian process with
prior covariance Sigma and measurements y = h(Omega) + z, z ~ CN(0, s2*I).
Everything expensive then happens before any pilot is received:

Stage 1 (offline).  Greedily pick the port with the largest posterior
variance, repeat until P timeslots of M ports each are scheduled, and
precompute the MAP weight matrix

    w = (Sigma(Omega, Omega) + s2*I)^{-1} Sigma(Omega, :),

since the posterior mean depends on the data only linearly.  Greedy
max-variance selection with noise s2 is a pivoted, incomplete Cholesky
factorization of Sigma with s2 added at each pivot (Harbrecht, Peters &
Schneider, 2012), so one pass over K = P*M pivots gives the port order,
the posterior variances and the Cholesky factor of the measured-port
system together.  It costs O(N*K^2) time and O(N*K) memory beyond the
kernel.  No pick depends on P, so the first P*M picks of a longer pass
are the plan for P, and a sweep designs all its budgets in one pass.
The pass runs in the field of the prior, the dtype of ``Kernel.stored``:
a float64 prior (the analytic kinds) is designed in float64 with float64
weights, a complex128 one (a trained covariance) with complex weights.
The dense rank-one recursion over the full N x N posterior that this pass
must reproduce lives with the tests, as the oracle
``tests/posterior_reference.py``.  A plan stores the port order and the
weights; switch matrices are read off the order.

Stage 2 (online).  Reconstruct hhat = w^H y.  One matrix product, O(N)
per measurement and round; no kernel, no factorization.  Real weights
take it in real arithmetic, with each round's real and imaginary parts
as two columns of the right factor.

Port indices are 0-based everywhere in memory; file formats are 1-based
(see fileio).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .channels import _check_noise_power, _measured_ports, _whole_number

#: posterior-variance-plus-noise denominators below this times trace/N
#: indicate a collapsed prior; raising the kernel jitter is the fix
_DENOM_FLOOR_SCALE = 1e-14

#: acceptable max-norm residual of the weight solve, relative to the largest
#: prior variance (max|Sigma| for a positive semidefinite prior)
_WEIGHT_RESIDUAL_TOL = 1e-8

#: measured rows per panel of the weight-residual check
_RESIDUAL_PANEL = 8

#: relative tolerance between an observation's noise power and the design value
_NOISE_POWER_RTOL = 1e-12

#: final posterior variances below this times the largest prior variance
#: mean the prior covariance is not positive semidefinite
_NEGATIVE_VARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class SamplingPlan:
    """Everything the online stage needs, frozen at design time.

    Attributes
    ----------
    num_ports, num_timeslots, antennas_per_slot : int
        Dimensions N, P, M with P*M <= N.
    order : tuple of int
        All P*M measured ports in selection order (0-based, distinct);
        slot s connects order[s*M : (s+1)*M], in RF-chain order, so the
        slot's switch matrix is read off the order.
    weights : np.ndarray
        Precomputed MAP weights, shape (P*M, N), in the prior's field:
        float64 for a float64 prior, complex128 for a complex128 one.
    noise_power_design : float
        s2 the weights were solved with; observations must match it.
    kernel_fingerprint : str
        Fingerprint of the prior covariance used at design time.
    post_diag : np.ndarray
        Design-time posterior variance of every port after all P*M
        measurements, shape (N,) float64.

    Construction is the one place a plan is judged, whether it was designed,
    built in code or loaded from a file.  The three counts go through the
    whole-number rule and are stored as ints, and the order as a tuple of
    ints, so 16.0 builds the plan of 16, with its ``plan_id``, and 2.5 or
    True fails.  It rejects an order or array shapes that disagree with
    N, P, M; weights that are not float64 or complex128, or hold a NaN or
    infinity; variances that are not float64, or hold a NaN or infinity; a
    negative or non-finite design noise power; and a kernel fingerprint
    that is not a string.  The finiteness checks
    are one pass over the K*N weights and one over the N variances.
    """

    num_ports: int
    num_timeslots: int
    antennas_per_slot: int
    order: tuple
    weights: np.ndarray
    noise_power_design: float
    kernel_fingerprint: str
    post_diag: np.ndarray

    def __post_init__(self):
        for name in ("num_ports", "num_timeslots", "antennas_per_slot"):
            object.__setattr__(self, name, _whole_number(getattr(self, name), name))
        n, k = self.num_ports, self.num_measurements
        if self.num_timeslots < 1 or self.antennas_per_slot < 1:
            raise ValueError("num_timeslots and antennas_per_slot must be positive")
        if len(self.order) != k:
            raise ValueError("order length must equal num_timeslots * antennas_per_slot")
        object.__setattr__(self, "order", tuple(_measured_ports(self.order, n).tolist()))
        if np.shape(self.weights) != (k, n):
            raise ValueError(f"weights must have shape ({k}, {n}), got {np.shape(self.weights)}")
        if np.shape(self.post_diag) != (n,):
            raise ValueError(f"post_diag must have shape ({n},), got {np.shape(self.post_diag)}")
        weights_dtype, post_diag_dtype = (getattr(a, "dtype", None) for a in (self.weights, self.post_diag))
        if weights_dtype not in (np.float64, np.complex128):
            raise ValueError(f"weights must be a float64 or complex128 array, got {weights_dtype}")
        if post_diag_dtype != np.float64:
            raise ValueError(f"post_diag must be a float64 array, got {post_diag_dtype}")
        for name in ("weights", "post_diag"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"plan array {name!r} holds a non-finite entry")
        _check_noise_power(self.noise_power_design)
        if not isinstance(self.kernel_fingerprint, str):
            raise ValueError(f"kernel_fingerprint must be a string, got {self.kernel_fingerprint!r}")

    @property
    def num_measurements(self) -> int:
        return self.num_timeslots * self.antennas_per_slot

    @property
    def plan_id(self) -> str:
        """Content fingerprint used to bind observations to this plan.

        Computed on first access and cached on the instance; every field it
        covers is frozen.
        """
        cached = self.__dict__.get("_plan_id")
        if cached is None:
            head = "|".join(
                [
                    str(self.num_ports),
                    str(self.num_timeslots),
                    str(self.antennas_per_slot),
                    repr(self.noise_power_design),
                    self.kernel_fingerprint,
                    ",".join(str(p) for p in self.order),
                ]
            )
            cached = self.__dict__["_plan_id"] = hashlib.sha256(head.encode()).hexdigest()
        return cached


@dataclass(frozen=True)
class Reconstruction:
    """Estimate of the full channel plus design-time uncertainty.

    The posterior of each port is CN(est, var), so its real and imaginary
    parts each have standard deviation sigma = sqrt(var / 2).
    ``confidence_lo``/``confidence_hi`` shift both parts of the estimate
    by three of those sigmas, giving the per-part three-sigma band
    [Re(est) -+ 3*sigma] and [Im(est) -+ 3*sigma].  The band is derived
    from the two stored arrays on each access.
    """

    estimate: np.ndarray
    post_variance: np.ndarray

    def _band_shift(self):
        # per-part sigma of CN(est, var); rounding can leave var a hair below 0
        return 3.0 * np.sqrt(np.maximum(self.post_variance, 0.0) / 2.0) * (1.0 + 1.0j)

    @property
    def confidence_lo(self) -> np.ndarray:
        return self.estimate - self._band_shift()

    @property
    def confidence_hi(self) -> np.ndarray:
        return self.estimate + self._band_shift()


def design_plan(kernel, num_timeslots, antennas_per_slot, noise_power):
    """Stage 1: pick ports greedily by posterior variance and freeze weights.

    Each of the K = P*M iterations measures (hypothetically) the port j
    whose current posterior variance var[j] is largest, ties broken toward
    the smallest index.  Measuring j adds the column

        b = (Sigma(:, j) - B B(j, :)^H) / sqrt(var[j] + s2)

    to the block B (N x K so far) and lowers every variance by |b|^2; the
    posterior covariance Sigma - B B^H is never formed.  The rows of B at
    the measured ports, below the diagonal, plus the pivots sqrt(var[j] +
    s2) on it, are the Cholesky factor L of Sigma(Omega, Omega) + s2*I, so
    the weights are w = L^-H B^H, with L^-1 the inverse of that K x K
    factor.  Time is O(N*K^2), memory O(N*K) beyond the kernel.  The
    selected order (slot s takes picks s*M to s*M + M - 1), the weights,
    in the dtype of ``kernel.stored``, and the final variances are
    packaged into a SamplingPlan; nothing about the received pilots is
    needed, so all of this runs offline.

    Parameters
    ----------
    kernel : Kernel
        Prior covariance over ports.
    num_timeslots : int
        P, number of pilot slots to schedule, a whole number.
    antennas_per_slot : int
        M, ports measured per slot, a whole number.
    noise_power : float
        Per-measurement noise variance s2 assumed online.

    Returns
    -------
    SamplingPlan

    Raises
    ------
    ValueError
        For bad dimensions (a bool or a fraction among them) or noise
        power, or if the final variances show the prior covariance is not
        positive semidefinite or are not finite (an overflow).
    numpy.linalg.LinAlgError
        If a pivot collapses to numerical zero or the weight solve misses
        its residual bound.
    """
    return _design_plans(kernel, (num_timeslots,), antennas_per_slot, noise_power)[0]


def _design_plans(kernel, pilot_counts, antennas_per_slot, noise_power):
    """``design_plan`` for every P in ``pilot_counts``, from one greedy pass.

    No pick depends on P, so the plan for P is the first P*M picks of one
    pass over max(P)*M pivots: its variances are copied after pick P*M,
    and its weights solve against the leading P*M rows of the block.  The
    plans come back in the order the counts are given and equal the ones
    lone designs return.  A collapsed pivot anywhere in the pass fails the
    call, as it fails a lone design of the largest P; the other checks run
    count by count, in the given order.
    """
    counts = [_whole_number(p, "num_timeslots") for p in pilot_counts]
    m = _whole_number(antennas_per_slot, "antennas_per_slot")
    if min(counts) < 1 or m < 1:
        raise ValueError("num_timeslots and antennas_per_slot must be positive")
    n = kernel.num_ports
    k_max = max(counts) * m
    if k_max > n:
        raise ValueError(f"plan asks for {k_max} measurements but only {n} ports exist")
    _check_noise_power(noise_power)
    sigma = kernel.matrix
    # the prior's dtype is the field: a float64 prior has real B, L and W
    real = sigma.dtype == np.float64
    var = sigma.diagonal().real.copy()
    prior_max = float(var.max())
    # the variances with every measured port at -inf, the argmax of each pick
    score = var.copy()
    # row i of bh is column i of B, conjugated: bh = B^H, shape (max K, N)
    bh = np.empty((k_max, n), dtype=sigma.dtype)
    # B B(j, :)^H, conjugated, and |bh[i]|^2, in buffers kept over the pass
    product = np.empty(n, dtype=sigma.dtype)
    magnitude = np.empty(n)
    square = np.empty(n)
    order = []
    pivots = np.empty(k_max)
    # the variances after pick K, for every requested K = P*M
    post_diags = dict.fromkeys(p * m for p in counts)
    for i in range(k_max):
        j = int(np.argmax(score))
        pivot = var[j] + noise_power
        floor = _DENOM_FLOOR_SCALE * float(var.sum()) / n
        if pivot <= max(floor, 0.0):
            raise np.linalg.LinAlgError(
                "posterior variance plus noise is numerically zero; increase the kernel jitter"
            )
        pivots[i] = np.sqrt(pivot)
        # conj of the posterior covariance column Sigma(:, j) - B B(j, :)^H; a
        # Kernel is exactly Hermitian, so row j of Sigma is conj(Sigma(:, j))
        np.matmul(bh[:i, j].conj(), bh[:i], out=product)
        np.subtract(sigma[j], product, out=bh[i])
        bh[i] /= pivots[i]
        np.multiply(bh[i].real, bh[i].real, out=magnitude)
        if not real:
            np.multiply(bh[i].imag, bh[i].imag, out=square)
            magnitude += square
        var -= magnitude
        score -= magnitude
        score[j] = -np.inf
        order.append(j)
        if i + 1 in post_diags:
            post_diags[i + 1] = var.copy()
    plans = []
    for p in counts:
        k = p * m
        var = post_diags[k]
        if var.min() < -_NEGATIVE_VARIANCE_TOL * prior_max:
            raise ValueError(
                f"prior covariance is not positive semidefinite: a posterior variance "
                f"reached {var.min():.3e}"
            )
        # a kernel is finite, but its entries can overflow on the way to
        # |bh|^2; finite variances mean a finite solve
        if not np.isfinite(var).all():
            raise ValueError("a posterior variance overflowed; rescale the kernel")
        idx = np.asarray(order[:k])
        # L = tril(B(Omega, :), -1) + diag(pivots), and B(Omega, :) = bh[:K, Omega]^H
        factor = np.tril(bh[:k, idx].conj().T, -1)
        factor[np.diag_indices(k)] = pivots[:k]
        # w = L^-H B^H: the K x K inverse of L, then one C-ordered product of
        # the C-ordered block B^H; the residual check below bounds its rounding
        weights = np.linalg.inv(factor).conj().T @ bh[:k]
        gram = sigma[np.ix_(idx, idx)] + noise_power * np.eye(k)
        # max |gram @ weights - Sigma(Omega, :)|, one gather of Sigma's rows
        # per panel; np.maximum keeps a NaN that an overflowed solve leaves
        diff = gram @ weights
        residual = 0.0
        for r in range(0, k, _RESIDUAL_PANEL):
            panel = diff[r : r + _RESIDUAL_PANEL]
            panel -= sigma[idx[r : r + _RESIDUAL_PANEL]]
            residual = np.maximum(residual, np.abs(panel).max())
        bound = _WEIGHT_RESIDUAL_TOL * prior_max
        if not residual < bound:
            raise np.linalg.LinAlgError(
                f"weight solve residual {residual:.3e} exceeds {bound:.3e}; system too ill-conditioned"
            )
        var.flags.writeable = False
        weights.flags.writeable = False
        plans.append(
            SamplingPlan(
                num_ports=n,
                num_timeslots=p,
                antennas_per_slot=m,
                order=tuple(order[:k]),
                weights=weights,
                noise_power_design=float(noise_power),
                kernel_fingerprint=kernel.fingerprint,
                post_diag=var,
            )
        )
    return plans


def reconstruct(plan, observation):
    """Stage 2: linear reconstruction hhat = w^H y from one pilot round.

    Runs in O(N) per measurement and never touches the kernel; the plan's
    stored weights are all it reads.  The observation must be bound to this
    plan and carry the noise power the plan was designed for.  Its values
    are one round, shape (P*M,), or a block of T rounds, shape (T, P*M),
    which gives T estimates in one (T, N) array.  Float64 weights take
    w^T y as one real product whose right factor holds each round's real
    and imaginary parts as two columns, so every row of a block equals its
    lone call bit for bit; complex weights take one complex product.

    Returns
    -------
    Reconstruction
        Estimate and design-time posterior variances; the three-sigma
        band follows from the two.
    """
    y = np.asarray(observation.values)
    if y.ndim not in (1, 2) or y.shape[-1] != plan.num_measurements:
        raise ValueError("observation length does not match the plan")
    if observation.plan_id != plan.plan_id:
        raise ValueError("observation is bound to a different plan")
    s2, design = observation.noise_power, plan.noise_power_design
    if not (s2 == design or abs(s2 - design) <= _NOISE_POWER_RTOL * abs(design)):
        raise ValueError(
            f"observation noise power {observation.noise_power!r} differs from "
            f"design value {plan.noise_power_design!r}"
        )
    w = plan.weights
    if np.iscomplexobj(w):
        # w^H y computed as (y^H w)^H so the weight matrix is streamed, not copied
        return Reconstruction(np.conj(y.conj() @ w), plan.post_diag)
    # w^T y on (re, im) columns: (K, 2T) in, (N, 2T) out, read back as (T, N) complex
    pairs = np.ascontiguousarray(np.atleast_2d(y).T, dtype=complex).view(float)
    estimate = (w.T @ pairs).view(complex).T.reshape(y.shape[:-1] + (plan.num_ports,))
    return Reconstruction(estimate, plan.post_diag)
