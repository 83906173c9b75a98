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

from .channels import _finite

EXPONENTIAL = "exponential"
BESSEL = "bessel"
COVARIANCE = "covariance"

KINDS = (EXPONENTIAL, BESSEL, COVARIANCE)

#: relative diagonal loading applied when no explicit jitter is given
DEFAULT_JITTER_SCALE = 1e-9

#: columns per panel of the dense Hermitian check
_HERMITIAN_PANEL = 256

#: the dtypes a kernel's ``stored`` array may have
_STORED_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


@dataclass(frozen=True)
class Kernel:
    """An N x N prior covariance with the hyperparameters that built it.

    ``stored`` is what the kernel holds, and its dtype is the field the
    prior is designed in: an (N,) float64 lag column of a symmetric
    Toeplitz matrix, as the analytic kinds store it, or a dense (N, N)
    float64 or complex128 matrix, as a trained covariance does.  ``matrix``
    is the N x N prior derived from it and Hermitian exactly: a read-only
    ``toeplitz_view`` of the lags, indexed like a dense matrix but never
    expanded to N^2 entries, or the dense matrix itself.  ``alpha`` and
    ``eta`` are meaningful for the analytic kinds only, zero otherwise.

    ``stored`` is held read-only: a writable array passed in is copied
    first, so no later write by the caller reaches the prior after it was
    judged and fingerprinted.  A read-only array is held as it is, which
    spares ``kernel_covariance`` and ``load_kernel`` a copy of N^2
    entries; its memory must then not be written through another view.

    Construction is the one place a prior is judged, whether it was built
    in code or loaded from a file.  It rejects, in this order, a ``kind``
    outside ``KINDS``; a ``stored`` value that is not a float64 or
    complex128 ndarray; a ``stored`` array whose shape is not (N,) or
    (N, N) with N >= 1; a complex128 lag column, even one whose imaginary
    parts are all zero; a NaN or infinite stored entry, so no design
    divides by a non-finite pivot; and a dense matrix that is not exactly
    Hermitian, which the pivoted Cholesky design assumes.  The kind, dtype
    and shape checks are O(1) and the finiteness of lags O(N).  A dense
    matrix costs O(N^2): one pass for finiteness and one comparison with
    its conjugate transpose, panel by panel of 256 columns, so it holds
    one N x 256 temporary, not an N x N one.
    """

    stored: np.ndarray
    kind: str
    alpha: float = 1.0
    eta: float = 0.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kernel 'kind' must be one of {', '.join(KINDS)}, got {self.kind!r}")
        stored = self.stored
        if not isinstance(stored, np.ndarray) or stored.dtype not in _STORED_DTYPES:
            got = f"dtype {stored.dtype}" if isinstance(stored, np.ndarray) else type(stored).__name__
            raise ValueError(f"kernel 'stored' must be a float64 or complex128 ndarray, got {got}")
        if stored.flags.writeable:
            stored = stored.copy()
            stored.flags.writeable = False
            object.__setattr__(self, "stored", stored)
        n = stored.shape[0] if stored.ndim else 0
        if n < 1 or stored.shape not in ((n,), (n, n)):
            raise ValueError(f"kernel must store (N,) lags or an (N, N) matrix with N >= 1, got shape {stored.shape}")
        if stored.ndim == 1 and stored.dtype != np.float64:
            raise ValueError(f"kernel lag column must be real (float64), got {stored.dtype}")
        if not np.isfinite(stored).all():
            raise ValueError("kernel holds a non-finite entry")
        if stored.ndim == 2:
            # row panels against conjugated column panels, so no N x N copy
            for i in range(0, n, _HERMITIAN_PANEL):
                rows = slice(i, i + _HERMITIAN_PANEL)
                if not np.array_equal(stored[rows], stored[:, rows].conj().T):
                    raise ValueError("kernel matrix is not Hermitian; symmetrize it as 0.5 * (S + S^H)")

    @property
    def num_ports(self) -> int:
        return self.stored.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The N x N prior: a ``toeplitz_view`` of lags, else ``stored``."""
        return toeplitz_view(self.stored) if self.stored.ndim == 1 else self.stored

    @property
    def fingerprint(self) -> str:
        """SHA-256 over kind, hyperparameters and the stored entries.

        Two kernels compare equal for planning purposes iff their
        fingerprints match; plans store this string so a reconstruction
        stage can verify it was given weights built from the kernel the
        caller thinks it was.  An analytic kernel hashes its N lags, a
        dense one all N^2 entries, so the same prior held both ways has two
        fingerprints.

        Computed on first access and cached on the instance; ``stored`` is
        held read-only (see ``Kernel``).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            head = f"{self.kind}|{self.num_ports}|{self.alpha!r}|{self.eta!r}|{self.jitter!r}"
            digest.update(head.encode())
            digest.update(np.ascontiguousarray(self.stored, dtype="<c16"))
            cached = self.__dict__["_fingerprint"] = digest.hexdigest()
        return cached


#: J_0(x) = 1 - (x^2 / 4) * sum_k c_k T_k(x^2 / 32 - 1) on [0, 8], c_k below;
#: fitted by tools/fit_j0.py, as is ``_J0_FAR``
_J0_NEAR = np.array([
    0.3110648377189683,
    -0.4115616683066592,
    0.2031745217635948,
    -0.06108202852136458,
    0.011513283747296814,
    -0.0014613145562533615,
    0.00013278771806213058,
    -9.055897237800749e-06,
    4.806179650396843e-07,
    -2.0420897529889553e-08,
    7.105569606325004e-10,
    -2.062537242240318e-11,
    5.071668517241088e-13,
    -1.070206724369773e-14,
    1.9595444754076717e-16,
    -3.143140469738431e-18,
])

#: row k holds the k-th Chebyshev coefficients of P and q in s = 128 / x^2 - 1,
#: Q = (8 / x) * q, of the Hankel form of J_0 beyond x = 8 (see ``_j0``)
_J0_FAR = np.array([
    [0.9994603493475187, -0.015555854605337009],
    [-0.0005365220468132117, 6.838519942611649e-05],
    [3.0751847875194745e-06, -7.414498411060647e-07],
    [-5.1705945376060975e-08, 1.7972457247968992e-08],
    [1.6306464635151382e-09, -7.27191593686632e-10],
    [-7.86409137723707e-11, 4.2201219046687385e-11],
    [5.168262387349193e-12, -3.206747420996635e-12],
    [-4.3045788699253914e-13, 3.006145125351706e-13],
    [4.3265957431549404e-14, -3.336328185322427e-14],
    [-5.069034095935236e-15, 4.255225040245461e-15],
    [6.748072215733873e-16, -6.09993013164005e-16],
    [-1.0011513723467786e-16, 9.662128970303257e-17],
    [1.6305919233744186e-17, -1.6686065214378146e-17],
    [-2.880866169482871e-18, 3.1082440486738143e-18],
])


def _chebyshev(coeffs, z):
    """sum_k coeffs[k] T_k(z) by Clenshaw's recurrence; each coeffs[k]
    broadcasts against z, so an (n, 2, 1) table sums two series at once."""
    z2 = 2.0 * z
    b1 = np.zeros(np.broadcast_shapes(np.shape(coeffs[0]), z.shape))
    b2 = np.zeros_like(b1)
    b0 = np.empty_like(b1)
    for c in coeffs[:0:-1]:
        np.multiply(z2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    np.multiply(z, b1, out=b0)
    b0 -= b2
    b0 += coeffs[0]
    return b0


def _j0(x):
    """The Bessel function J_0 of a float array, in numpy alone.

    Cephes' construction (Moshier, 1989).  On [0, 8] a Chebyshev series in
    t = x^2/32 - 1 gives J_0 = 1 - (x^2/4) * g(t), so J_0(0) is exactly 1.
    Beyond 8 it takes the Hankel form

        J_0 = sqrt(2 / (pi x)) * (P cos chi - Q sin chi),  chi = x - pi/4,

    with P and Q/(8/x) Chebyshev series in (8/x)^2.  cos chi and sin chi
    are taken as (cos x +- sin x) / sqrt(2), which spares the rounding of
    x - pi/4, so J_0 = ((P + Q) cos x + (P - Q) sin x) / sqrt(pi x).  Against
    scipy's ``jv(0, x)`` it agrees within 2e-15 on [0, 64] and 1e-14 beyond.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    near = x <= 8.0
    xn = x[near]
    u = xn * xn
    out[near] = 1.0 - 0.25 * u * _chebyshev(_J0_NEAR, u / 32.0 - 1.0)
    far = ~near
    xf = x[far]
    p, q = _chebyshev(_J0_FAR[:, :, None], 128.0 / (xf * xf) - 1.0)
    q *= 8.0 / xf
    out[far] = ((p + q) * np.cos(xf) + (p - q) * np.sin(xf)) / np.sqrt(np.pi * xf)
    return out


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

    Entry (n, m) is column[|n - m|], in the column's dtype.  The (N, N)
    result is a strided view with strides (-s, s), s the item size, so each
    row is contiguous, into one buffer [c[N-1], ..., c[0], ..., c[N-1]],
    the view ``scipy.linalg.toeplitz`` builds and then copies.
    """
    column = np.asarray(column)
    n = column.size
    buf = np.concatenate((column[:0:-1], column))
    return as_strided(buf[n - 1 :], (n, n), (-buf.itemsize, buf.itemsize), writeable=False)


def _analytic(profile, kind, alpha, eta, jitter, geom):
    """Kernel alpha^2 * profile(lag / eta) over the N lags of ``geom``, with
    ``jitter`` added at lag 0; eta None means ``default_eta()``."""
    if _finite(alpha, "alpha") <= 0.0:
        raise ValueError("alpha must be positive")
    if eta is None:
        eta = default_eta()
    if _finite(eta, "eta") <= 0.0:
        raise ValueError("eta must be positive")
    column = alpha**2 * profile(_lags(geom) / eta)
    jitter = _checked_jitter(toeplitz_view(column), jitter)
    column[0] += jitter
    return Kernel(column, kind, float(alpha), float(eta), jitter)


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

    d is measured in carrier wavelengths, like eta.  The classical
    isotropic-scattering correlation is J_0(2*pi*d) (Clarke, 1968; Jakes,
    1974), the port correlation of the fluid-antenna literature, so it is
    this kernel at eta = 1/(2*pi).  The default eta, sqrt(1/(2*pi)), is
    shared with the exponential kernel and stretches that correlation
    2.5 times over distance.
    """
    return _analytic(_j0, BESSEL, alpha, eta, jitter, geom)


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
    mat.flags.writeable = False  # so Kernel holds it without a copy
    return Kernel(mat, COVARIANCE, 0.0, 0.0, jitter)
