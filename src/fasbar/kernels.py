"""Prior covariance models over the port domain.

Port selection and reconstruction both run Gaussian-process regression on
the vector of per-port channel values, so everything starts from an N x N
prior covariance Sigma.  Three constructions are supported:

* exponential:  Sigma(n, m) = alpha^2 * exp(-d(n, m)^2 / eta^2)
* bessel:       Sigma(n, m) = alpha^2 * J_order(d(n, m) / eta)
* covariance:   (1/T) * sum_t h_t h_t^H from a training ensemble

For the analytic kinds, d(n, m) = |x_n - x_m| / lambda is the port distance
in carrier wavelengths and eta is a correlation length in the same unit.
The channel statistics themselves only depend on positions through x/lambda,
so this keeps a kernel meaningful across carriers at a fixed aperture.
``build_port_geometry`` always lays the ports out on a uniform grid, so
d(n, m) depends on |n - m| alone: the analytic kernels evaluate their
profile on the N lags (x_n - x_0) / lambda and expand it into a symmetric
Toeplitz matrix instead of evaluating it on all N^2 port pairs.

All constructors add ``jitter`` to the diagonal (default 1e-9 * trace/N)
so downstream Cholesky factorizations stay positive definite even for
rank-deficient trained covariances or the noiseless sigma^2 = 0 limit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import jv

from .channels import SPEED_OF_LIGHT

EXPONENTIAL = "exponential"
BESSEL = "bessel"
COVARIANCE = "covariance"

KINDS = (EXPONENTIAL, BESSEL, COVARIANCE)

#: relative diagonal loading applied when no explicit jitter is given
DEFAULT_JITTER_SCALE = 1e-9


@dataclass(frozen=True)
class Kernel:
    """An N x N prior covariance with the hyperparameters that built it.

    ``matrix`` is stored complex128 and Hermitian exactly as stored; for the
    analytic kinds the imaginary part is identically zero.  ``alpha``,
    ``eta`` and ``order`` are meaningful for the analytic kinds only and are
    zero for trained covariances.  ``carrier_hz`` records provenance when
    known (0.0 otherwise).
    """

    matrix: np.ndarray
    kind: str
    alpha: float = 1.0
    eta: float = 0.0
    order: int = 0
    jitter: float = 0.0
    carrier_hz: float = 0.0

    @property
    def num_ports(self) -> int:
        return self.matrix.shape[0]

    @property
    def fingerprint(self) -> str:
        """SHA-256 over kind, hyperparameters, and matrix bytes.

        Two kernels compare equal for planning purposes iff their
        fingerprints match; plans store this string so a reconstruction
        stage can verify it was given weights built from the kernel the
        caller thinks it was.

        Computed on first access and cached on the instance, so the matrix
        must not be mutated afterwards (the constructors here store it
        read-only).  The matrix buffer is hashed in place, without a copy.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            head = f"{self.kind}|{self.num_ports}|{self.alpha!r}|{self.eta!r}|{self.order}|{self.jitter!r}"
            digest.update(head.encode())
            digest.update(np.ascontiguousarray(self.matrix, dtype="<c16"))
            cached = self.__dict__["_fingerprint"] = digest.hexdigest()
        return cached


def default_eta():
    """Default correlation length sqrt(1 / (2*pi)), in carrier wavelengths."""
    return float(np.sqrt(1.0 / (2.0 * np.pi)))


def _default_jitter(matrix):
    n = matrix.shape[0]
    return DEFAULT_JITTER_SCALE * float(np.trace(matrix).real) / n


def _carrier_hz(geom):
    return SPEED_OF_LIGHT / geom.wavelength


def _lags(geom):
    """Distance of every port from port 0 in carrier wavelengths."""
    return (geom.positions - geom.positions[0]) / geom.wavelength


def _finish(matrix, kind, alpha, eta, order, jitter, carrier_hz):
    """Load the diagonal and freeze.

    ``matrix`` must be exactly Hermitian and owned by the caller: a complex
    input is loaded in place.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if jitter is None:
        jitter = _default_jitter(matrix)
    if jitter < 0.0:
        raise ValueError("jitter must be nonnegative")
    matrix.real[np.diag_indices_from(matrix)] += jitter
    matrix.flags.writeable = False
    return Kernel(matrix, kind, float(alpha), float(eta), int(order), float(jitter), float(carrier_hz))


def kernel_exponential(geom, alpha=1.0, eta=None, jitter=None):
    """Squared-exponential covariance over port distance.

    Parameters
    ----------
    geom : PortGeometry
        Port layout supplying positions and the wavelength.
    alpha : float
        Amplitude scale; the prior variance of each port is alpha^2.
    eta : float, optional
        Correlation length in carrier wavelengths; defaults to
        sqrt(1 / (2*pi)).
    jitter : float, optional
        Diagonal loading; defaults to 1e-9 * trace / N.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if eta is None:
        eta = default_eta()
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    profile = alpha**2 * np.exp(-((_lags(geom) / eta) ** 2))
    return _finish(toeplitz(profile), EXPONENTIAL, alpha, eta, 0, jitter, _carrier_hz(geom))


def kernel_bessel(geom, alpha=1.0, eta=None, order=0, jitter=None):
    """Bessel-of-the-first-kind covariance over port distance.

    J_order(d / eta) captures the oscillatory spatial correlation of rich
    scattering; order 0 is the classical isotropic case.  d is measured in
    carrier wavelengths, like eta.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if eta is None:
        eta = default_eta()
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    profile = alpha**2 * jv(order, _lags(geom) / eta)
    return _finish(toeplitz(profile), BESSEL, alpha, eta, order, jitter, _carrier_hz(geom))


def kernel_covariance(training_channels, jitter=None, carrier_hz=0.0):
    """Empirical covariance (1/T) * sum_t h_t h_t^H of a training ensemble.

    The average is Hermitian-symmetrized before jitter is added.  With
    T below N the raw average is rank deficient; the jitter keeps the
    result usable for planning anyway.

    Parameters
    ----------
    training_channels : sequence of ChannelRealization or arrays
        T >= 1 channels of identical length.
    jitter : float, optional
        Diagonal loading; defaults to 1e-9 * trace / N.
    carrier_hz : float
        Recorded for provenance only.
    """
    rows = [np.asarray(getattr(c, "values", c), dtype=complex) for c in training_channels]
    if not rows:
        raise ValueError("training set must not be empty")
    n = rows[0].size
    if any(r.ndim != 1 or r.size != n for r in rows):
        raise ValueError("all training channels must be 1-D with identical length")
    stack = np.vstack(rows)  # (T, N)
    mat = stack.T @ stack.conj() / stack.shape[0]
    mat = 0.5 * (mat + mat.conj().T)
    return _finish(mat, COVARIANCE, 0.0, 0.0, 0, jitter, carrier_hz)
