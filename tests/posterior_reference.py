"""Reference oracle: the dense rank-one posterior recursion.

Greedy max-variance design is, in the package, one pivoted incomplete
Cholesky pass that never forms the N x N posterior (``fasbar.sbar``).
This module keeps the direct form it must agree with: the full posterior
covariance, updated by one rank-one Schur complement per measured port.
Criteria 5 and 7 of the acceptance suite and ``tests/test_sbar.py``
compare against it.  It is a test helper, not part of the package, and
its name keeps pytest from collecting it.
"""

from dataclasses import dataclass

import numpy as np

from fasbar.channels import _check_noise_power
from fasbar.sbar import _DENOM_FLOOR_SCALE


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
