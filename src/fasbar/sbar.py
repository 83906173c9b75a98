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
kernel.  ``initial_posterior``/``posterior_update_one`` keep the dense
rank-one recursion over the full N x N posterior as a reference.  A plan
stores the port order and the weights; switch matrices are read off the
order.

Stage 2 (online).  Reconstruct hhat = w^H y.  One matrix-vector product,
O(N) per measurement; no kernel, no factorization.

Port indices are 0-based everywhere in memory; file formats are 1-based
(see fileio).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .channels import _check_noise_power

#: posterior-variance-plus-noise denominators below this times trace/N
#: indicate a collapsed prior; raising the kernel jitter is the fix
_DENOM_FLOOR_SCALE = 1e-14

#: acceptable max-norm residual of the weight solve, relative to the largest
#: prior variance (max|Sigma| for a positive semidefinite prior)
_WEIGHT_RESIDUAL_TOL = 1e-8

#: relative tolerance between an observation's noise power and the design value
_NOISE_POWER_RTOL = 1e-12

#: final posterior variances below this times the largest prior variance
#: mean the prior covariance is not positive semidefinite
_NEGATIVE_VARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class PosteriorState:
    """Gaussian posterior over all ports after some measurements.

    Attributes
    ----------
    measured : tuple of int
        Ports folded in so far, in selection order.
    post_cov : np.ndarray
        Posterior covariance, Hermitian as stored, shape (N, N).
    noise_power : float
        Per-measurement noise variance s2 assumed by the updates.
    prior_fingerprint : str
        Fingerprint of the kernel the recursion started from.
    """

    measured: tuple
    post_cov: np.ndarray
    noise_power: float
    prior_fingerprint: str

    @property
    def variances(self) -> np.ndarray:
        """Real posterior variance of every port."""
        return self.post_cov.diagonal().real


@dataclass(frozen=True)
class SamplingPlan:
    """Everything the online stage needs, frozen at design time.

    Attributes
    ----------
    num_ports, num_timeslots, antennas_per_slot : int
        Dimensions N, P, M with P*M <= N.
    order : tuple of int
        All P*M measured ports in selection order (0-based, distinct);
        slot s connects order[s*M : (s+1)*M], in RF-chain order (see
        ``stacked_switch_matrix``).
    weights : np.ndarray
        Precomputed MAP weights, shape (P*M, N) complex.
    noise_power_design : float
        s2 the weights were solved with; observations must match it.
    kernel_fingerprint : str
        Fingerprint of the prior covariance used at design time.
    post_diag : np.ndarray
        Design-time posterior variance of every port after all P*M
        measurements, shape (N,) real.

    Construction rejects an order or array shapes that disagree with N, P, M,
    and a negative or non-finite design noise power.
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
        n, k = self.num_ports, self.num_measurements
        if self.num_timeslots < 1 or self.antennas_per_slot < 1:
            raise ValueError("num_timeslots and antennas_per_slot must be positive")
        if len(self.order) != k:
            raise ValueError("order length must equal num_timeslots * antennas_per_slot")
        if len(set(self.order)) != k:
            raise ValueError("order must not repeat ports")
        if any(p < 0 or p >= n for p in self.order):
            raise ValueError(f"order holds a port outside [0, {n})")
        if np.shape(self.weights) != (k, n):
            raise ValueError(f"weights must have shape ({k}, {n}), got {np.shape(self.weights)}")
        if np.shape(self.post_diag) != (n,):
            raise ValueError(f"post_diag must have shape ({n},), got {np.shape(self.post_diag)}")
        _check_noise_power(self.noise_power_design)

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


def initial_posterior(kernel, noise_power):
    """Posterior before any measurement: the prior itself."""
    _check_noise_power(noise_power)
    cov = np.array(kernel.matrix, dtype=complex)
    return PosteriorState((), cov, float(noise_power), kernel.fingerprint)


def posterior_update_one(state, port):
    """Fold one measured port into the posterior covariance.

    A single measurement at port n with noise s2 changes the covariance by
    the rank-one Schur complement

        Sigma' = Sigma - Sigma(:, n) Sigma(n, :) / (Sigma(n, n) + s2),

    independent of the measured value.  Returns a new state; the input is
    untouched.
    """
    n = int(port)
    cov = state.post_cov
    if n < 0 or n >= cov.shape[0]:
        raise ValueError("port index out of range")
    if n in state.measured:
        raise ValueError(f"port {n} was already measured")
    variance = cov[n, n].real
    denom = variance + state.noise_power
    floor = _DENOM_FLOOR_SCALE * float(np.trace(cov).real) / cov.shape[0]
    if denom <= max(floor, 0.0):
        raise np.linalg.LinAlgError(
            "posterior variance plus noise is numerically zero; increase the kernel jitter"
        )
    col = cov[:, n]
    new_cov = cov - np.outer(col, col.conj()) / denom
    new_cov = 0.5 * (new_cov + new_cov.conj().T)
    return PosteriorState(state.measured + (n,), new_cov, state.noise_power, state.prior_fingerprint)


def stacked_switch_matrix(plan):
    """The P switch matrices stacked into one (P*M, N) one-hot int64 matrix.

    Row k connects port ``plan.order[k]``, so slot s is rows s*M to s*M + M - 1.
    """
    k = plan.num_measurements
    stacked = np.zeros((k, plan.num_ports), dtype=np.int64)
    stacked[np.arange(k), list(plan.order)] = 1
    return stacked


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
    the weights take one triangular solve L^H w = B^H.  Time is O(N*K^2),
    memory O(N*K) beyond the kernel.  The selected order (slot s takes
    picks s*M to s*M + M - 1), the weights and the final variances are
    packaged into a SamplingPlan; nothing about the received pilots is
    needed, so all of this runs offline.

    Parameters
    ----------
    kernel : Kernel
        Prior covariance over ports.
    num_timeslots : int
        P, number of pilot slots to schedule.
    antennas_per_slot : int
        M, ports measured per slot.
    noise_power : float
        Per-measurement noise variance s2 assumed online.

    Returns
    -------
    SamplingPlan

    Raises
    ------
    ValueError
        For bad dimensions or noise power, or if the final variances show
        the prior covariance is not positive semidefinite.
    numpy.linalg.LinAlgError
        If a pivot collapses to numerical zero or the weight solve misses
        its residual bound.
    """
    p, m = int(num_timeslots), int(antennas_per_slot)
    if p < 1 or m < 1:
        raise ValueError("num_timeslots and antennas_per_slot must be positive")
    n = kernel.num_ports
    k = p * m
    if k > n:
        raise ValueError(f"plan asks for {k} measurements but only {n} ports exist")
    _check_noise_power(noise_power)
    sigma = kernel.matrix
    var = sigma.diagonal().real.copy()
    prior_max = float(var.max())
    measured = np.zeros(n, dtype=bool)
    # row i of bh is column i of B, conjugated: bh = B^H, shape (K, N)
    bh = np.empty((k, n), dtype=complex)
    order = []
    pivots = np.empty(k)
    for i in range(k):
        j = int(np.argmax(np.where(measured, -np.inf, var)))
        pivot = var[j] + noise_power
        floor = _DENOM_FLOOR_SCALE * float(var.sum()) / n
        if pivot <= max(floor, 0.0):
            raise np.linalg.LinAlgError(
                "posterior variance plus noise is numerically zero; increase the kernel jitter"
            )
        pivots[i] = np.sqrt(pivot)
        # conj of the posterior covariance column Sigma(:, j) - B B(j, :)^H
        row = sigma[:, j].conj() - bh[:i, j].conj() @ bh[:i]
        bh[i] = row / pivots[i]
        var -= bh[i].real ** 2 + bh[i].imag ** 2
        measured[j] = True
        order.append(j)
    if var.min() < -_NEGATIVE_VARIANCE_TOL * prior_max:
        raise ValueError(
            f"prior covariance is not positive semidefinite: a posterior variance "
            f"reached {var.min():.3e}"
        )
    idx = np.asarray(order)
    # L = tril(B(Omega, :), -1) + diag(pivots), and B(Omega, :) = bh[:, Omega]^H
    factor = np.tril(bh[:, idx].conj().T, -1)
    factor[np.diag_indices(k)] = pivots
    # C-ordered so the online product sums identically after a save/load cycle
    weights = np.ascontiguousarray(solve_triangular(factor, bh, lower=True, trans="C"))
    gram = sigma[np.ix_(idx, idx)] + noise_power * np.eye(k)
    residual = np.abs(gram @ weights - sigma[idx, :]).max()
    bound = _WEIGHT_RESIDUAL_TOL * prior_max
    if not residual < bound:
        raise np.linalg.LinAlgError(
            f"weight solve residual {residual:.3e} exceeds {bound:.3e}; system too ill-conditioned"
        )
    order = tuple(order)
    var.flags.writeable = False
    weights.flags.writeable = False
    return SamplingPlan(
        num_ports=n,
        num_timeslots=p,
        antennas_per_slot=m,
        order=order,
        weights=weights,
        noise_power_design=float(noise_power),
        kernel_fingerprint=kernel.fingerprint,
        post_diag=var,
    )


def reconstruct(plan, observation):
    """Stage 2: linear reconstruction hhat = w^H y from one pilot round.

    Runs in O(N) per measurement and never touches the kernel; the plan's
    stored weights are all it reads.  The observation must be bound to this
    plan and carry the noise power the plan was designed for.

    Returns
    -------
    Reconstruction
        Estimate and design-time posterior variances; the three-sigma
        band follows from the two.
    """
    y = np.asarray(observation.values)
    if y.ndim != 1 or y.size != plan.num_measurements:
        raise ValueError("observation length does not match the plan")
    if observation.plan_id != plan.plan_id:
        raise ValueError("observation is bound to a different plan")
    s2, design = observation.noise_power, plan.noise_power_design
    if not (s2 == design or abs(s2 - design) <= _NOISE_POWER_RTOL * abs(design)):
        raise ValueError(
            f"observation noise power {observation.noise_power!r} differs from "
            f"design value {plan.noise_power_design!r}"
        )
    # w^H y computed as (y^H w)^H so the weight matrix is streamed, not copied
    return Reconstruction(np.conj(y.conj() @ plan.weights), plan.post_diag)
