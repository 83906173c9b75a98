"""Prior covariance models over the port domain.

Port selection and reconstruction both run Gaussian-process regression on
the vector of per-port channel values, so everything starts from an N x N
prior covariance Sigma.  Three constructions are supported:

* exponential:  Sigma(n, m) = alpha^2 * exp(-d(n, m)^2 / eta^2)
* bessel:       Sigma(n, m) = alpha^2 * J_0(d(n, m) / eta)
* covariance:   (1/T) * sum_t h_t h_t^H from a training ensemble

For the analytic kinds, d(n, m) = |x_n - x_m| / lambda is the port distance
in carrier wavelengths and eta is a correlation length in the same unit.
The channel statistics themselves only depend on positions through x/lambda,
so this keeps a kernel meaningful across carriers at a fixed aperture.
``build_port_geometry`` always lays the ports out on a uniform grid, so
d(n, m) depends on |n - m| alone: the analytic kernels evaluate their
profile on the N lags (x_n - x_0) / lambda and store only those, exposing
the symmetric Toeplitz matrix as a strided view (``toeplitz_view``).  They
are built, hashed and saved in O(N) time and memory.  A trained covariance
has no such structure and is stored as all N^2 entries.

All constructors add ``jitter`` to the diagonal (default 1e-9 * trace/N)
so downstream Cholesky factorizations stay positive definite even for
rank-deficient trained covariances or the noiseless sigma^2 = 0 limit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import jv

from .channels import _finite

EXPONENTIAL = "exponential"
BESSEL = "bessel"
COVARIANCE = "covariance"

KINDS = (EXPONENTIAL, BESSEL, COVARIANCE)

#: relative diagonal loading applied when no explicit jitter is given
DEFAULT_JITTER_SCALE = 1e-9


@dataclass(frozen=True)
class Kernel:
    """An N x N prior covariance with the hyperparameters that built it.

    ``matrix`` is complex128, read-only and Hermitian exactly as stored; for
    the analytic kinds the imaginary part is identically zero.  An analytic
    kernel holds only its N lags: ``matrix`` is a ``toeplitz_view`` of them,
    indexed exactly like a dense matrix but never expanded to N^2 entries.
    Trained covariances are dense.  ``stored`` is what the kernel holds.
    ``alpha`` and ``eta`` are meaningful for the analytic kinds only and are
    zero for trained covariances.
    """

    matrix: np.ndarray
    kind: str
    alpha: float = 1.0
    eta: float = 0.0
    jitter: float = 0.0

    @property
    def num_ports(self) -> int:
        return self.matrix.shape[0]

    @property
    def stored(self) -> np.ndarray:
        """The first column of a Toeplitz view, else the whole matrix.

        Entry (n, m) of a matrix whose strides sum to zero sits at an offset
        that depends on m - n alone, so its first column determines it.
        """
        return self.matrix[:, 0] if sum(self.matrix.strides) == 0 else self.matrix

    @property
    def fingerprint(self) -> str:
        """SHA-256 over kind, hyperparameters and the stored entries.

        Two kernels compare equal for planning purposes iff their
        fingerprints match; plans store this string so a reconstruction
        stage can verify it was given weights built from the kernel the
        caller thinks it was.  An analytic kernel hashes its N lags, a
        dense one all N^2 entries, so the same prior held both ways has two
        fingerprints.

        Computed on first access and cached on the instance, so the matrix
        must not be mutated afterwards (the constructors here store it
        read-only).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            head = f"{self.kind}|{self.num_ports}|{self.alpha!r}|{self.eta!r}|{self.jitter!r}"
            digest.update(head.encode())
            digest.update(np.ascontiguousarray(self.stored, dtype="<c16"))
            cached = self.__dict__["_fingerprint"] = digest.hexdigest()
        return cached


def default_eta():
    """Default correlation length sqrt(1 / (2*pi)), in carrier wavelengths."""
    return float(np.sqrt(1.0 / (2.0 * np.pi)))


def _checked_jitter(matrix, jitter):
    if jitter is None:
        jitter = DEFAULT_JITTER_SCALE * float(np.trace(matrix).real) / matrix.shape[0]
    if _finite(jitter, "jitter") < 0.0:
        raise ValueError("jitter must be nonnegative")
    return float(jitter)


def _lags(geom):
    """Distance of every port from port 0 in carrier wavelengths."""
    return (geom.positions - geom.positions[0]) / geom.wavelength


def toeplitz_view(column):
    """Read-only symmetric Toeplitz matrix of ``column``, in O(N) memory.

    Entry (n, m) is column[|n - m|].  The (N, N) result is a strided view
    with strides (-s, s) into one buffer [c[N-1], ..., c[1], c[0], c[1],
    ..., c[N-1]], the view ``scipy.linalg.toeplitz`` builds and then copies.
    """
    column = np.asarray(column, dtype=complex)
    n = column.size
    buf = np.concatenate((column[:0:-1], column))
    step = buf.strides[0]
    return as_strided(buf[n - 1 :], (n, n), (-step, step), writeable=False)


def _analytic(profile, kind, alpha, eta, jitter, geom):
    """Kernel alpha^2 * profile(lag / eta) over the N lags of ``geom``, with
    ``jitter`` added at lag 0; eta None means ``default_eta()``."""
    if _finite(alpha, "alpha") <= 0.0:
        raise ValueError("alpha must be positive")
    if eta is None:
        eta = default_eta()
    if _finite(eta, "eta") <= 0.0:
        raise ValueError("eta must be positive")
    column = (alpha**2 * profile(_lags(geom) / eta)).astype(complex)
    jitter = _checked_jitter(toeplitz_view(column), jitter)
    column[0] += jitter
    return Kernel(toeplitz_view(column), kind, float(alpha), float(eta), jitter)


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
    return _analytic(lambda x: np.exp(-(x**2)), EXPONENTIAL, alpha, eta, jitter, geom)


def kernel_bessel(geom, alpha=1.0, eta=None, jitter=None):
    """Zeroth-order Bessel-of-the-first-kind covariance over port distance.

    J_0(d / eta) is the classical isotropic-scattering correlation and
    captures its oscillation with distance.  d is measured in carrier
    wavelengths, like eta.
    """
    # jv(0, x), not scipy.special.j0: the two differ by up to ~6e-16, which
    # would change every Bessel kernel's fingerprint
    return _analytic(lambda x: jv(0, x), BESSEL, alpha, eta, jitter, geom)


def kernel_covariance(training_channels, jitter=None):
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
    """
    rows = [np.asarray(getattr(c, "values", c), dtype=complex) for c in training_channels]
    if not rows:
        raise ValueError("training set must not be empty")
    n = rows[0].size
    if any(r.ndim != 1 or r.size != n for r in rows):
        raise ValueError("all training channels must be 1-D with identical length")
    stack = np.vstack(rows)  # (T, N)
    if not np.isfinite(stack).all():
        raise ValueError("training_channels hold a non-finite entry")
    mat = stack.T @ stack.conj() / stack.shape[0]
    mat = 0.5 * (mat + mat.conj().T)
    jitter = _checked_jitter(mat, jitter)
    mat.real[np.diag_indices_from(mat)] += jitter
    mat.flags.writeable = False
    return Kernel(mat, COVARIANCE, 0.0, 0.0, jitter)
