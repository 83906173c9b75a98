"""Port geometry, clustered channel synthesis, and pilot observation.

A fluid antenna exposes N candidate positions ("ports") spread uniformly
over a linear aperture of W wavelengths; at each pilot timeslot a switch
network connects M of them to the RF chains.  This module owns everything
physical: where the ports sit, how a multipath channel across them is
generated, and how noisy pilot measurements at a subset of ports are taken.

The synthetic channel is a clustered sum of plane waves,

    h(n) = (1 / sqrt(C*R)) * sum_{c,r} g_{c,r} * exp(-j*2*pi*x_n*sin(theta_{c,r})/lambda),

with i.i.d. CN(0, 1) ray gains g, so that E||h||^2 = N regardless of the
number of clusters C or rays per cluster R.

The ports sit on a uniform grid x_n = n*d, so writing n = q*b + r with
b = ceil(sqrt(N)) factors every plane-wave phase as

    exp(-j*2*pi*x_n*s/lambda) = exp(-j*2*pi*q*b*d*s/lambda) * exp(-j*2*pi*r*d*s/lambda).

Two small tables of ceil(N/b) and b rows per direction then give all N
responses.  Each table is a geometric sequence, so it is filled by a
recurrence from its ratio: 2 complex exponentials per ray instead of N,
plus ~2*sqrt(N) complex multiplies.  The recurrence rounds once per row,
so an entry drifts by about b*eps from the direct formula (~1e-14
absolute at N = 256, ~2e-14 at N = 4096).
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class PortGeometry:
    """Uniform linear layout of candidate antenna ports.

    Attributes
    ----------
    num_ports : int
        Number of candidate positions N (at least 2).
    aperture_wavelengths : float
        Aperture length W expressed in carrier wavelengths.
    wavelength : float
        Carrier wavelength in meters.
    positions : np.ndarray
        Port coordinates in meters, shape (N,), positions[0] == 0 and
        positions[-1] == W * wavelength; read-only.
    """

    num_ports: int
    aperture_wavelengths: float
    wavelength: float
    positions: np.ndarray

    @property
    def aperture_m(self) -> float:
        """Aperture length in meters."""
        return self.aperture_wavelengths * self.wavelength

    @property
    def spacing(self) -> float:
        """Distance between adjacent ports in meters."""
        return self.aperture_m / (self.num_ports - 1)


@dataclass(frozen=True)
class SscModelParams:
    """Parameters of the clustered plane-wave channel generator.

    Cluster centers are drawn uniformly on (-60, 60) degrees; each of the
    R rays of a cluster is offset uniformly within +-angle_spread_deg of
    its center.  Ray gains are i.i.d. circularly symmetric unit-variance
    complex Gaussians.
    """

    num_clusters: int = 9
    rays_per_cluster: int = 100
    angle_spread_deg: float = 5.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be at least 1")
        if self.rays_per_cluster < 1:
            raise ValueError("rays_per_cluster must be at least 1")
        if not 0.0 <= self.angle_spread_deg < 90.0:
            raise ValueError("angle_spread_deg must lie in [0, 90)")


@dataclass(frozen=True)
class ChannelRealization:
    """Complex channel values at every port."""

    values: np.ndarray


@dataclass(frozen=True)
class PilotObservation:
    """Noisy measurements taken through a sampling plan.

    ``plan_id`` binds the observation to the plan whose port order produced
    it; reconstruction refuses observations bound to a different plan.
    """

    values: np.ndarray
    noise_power: float
    plan_id: str = ""


def build_port_geometry(num_ports, aperture_in_wavelengths, carrier_hz):
    """Lay out ``num_ports`` ports uniformly over a linear aperture.

    Parameters
    ----------
    num_ports : int
        Number of ports N >= 2, a whole number.
    aperture_in_wavelengths : float
        Aperture length in carrier wavelengths, > 0.
    carrier_hz : float
        Carrier frequency in Hz, > 0.

    Returns
    -------
    PortGeometry
        Geometry with positions x_n = (n-1) * W/(N-1) * lambda for
        n = 1..N (0-based internally).
    """
    num_ports = _whole_number(num_ports, "num_ports")
    if num_ports < 2:
        raise ValueError("num_ports must be at least 2")
    if _finite(aperture_in_wavelengths, "aperture_in_wavelengths") <= 0.0:
        raise ValueError("aperture_in_wavelengths must be positive")
    if _finite(carrier_hz, "carrier_hz") <= 0.0:
        raise ValueError("carrier_hz must be positive")
    wavelength = SPEED_OF_LIGHT / float(carrier_hz)
    width = float(aperture_in_wavelengths) * wavelength
    positions = np.linspace(0.0, width, num_ports)
    positions.flags.writeable = False
    return PortGeometry(num_ports, float(aperture_in_wavelengths), wavelength, positions)


def _phase_table(geom, sin_angles):
    """Factored plane-wave phases: port q*b + r responds with hi[q] * lo[r].

    With b = ceil(sqrt(N)) and port spacing d, exp(-j*2*pi*n*d*s/lambda)
    splits into hi[q] = exp(-j*2*pi*q*b*d*s/lambda) and lo[r] =
    exp(-j*2*pi*r*d*s/lambda), tables of shape (ceil(N/b), K) and (b, K).
    Both are geometric in their row index: lo[r] = lo[r-1] * w and
    hi[q] = hi[q-1] * w_b with w = exp(-j*2*pi*d*s/lambda) and
    w_b = exp(-j*2*pi*b*d*s/lambda), so a direction costs 2 complex
    exponentials and each row one multiply.  The rounding of one multiply
    per row accumulates to ~b*eps; a column with s = 0 is exactly 1.
    """
    s = np.atleast_1d(np.asarray(sin_angles, dtype=float))
    b = math.isqrt(geom.num_ports - 1) + 1
    step = (-2.0 * np.pi * geom.spacing / geom.wavelength) * s
    lo = _geometric_rows(np.exp(1j * step), b)
    hi = _geometric_rows(np.exp(1j * b * step), len(range(0, geom.num_ports, b)))
    return hi, lo


def _geometric_rows(ratio, rows):
    """Rows ratio**0 .. ratio**(rows - 1), each the previous row times ratio."""
    out = np.empty((rows, ratio.size), dtype=complex)
    out[0] = 1.0
    for i in range(1, rows):
        np.multiply(out[i - 1], ratio, out=out[i])
    return out


def steering_matrix(geom, sin_angles):
    """Plane-wave phase response of every port for each direction.

    Entry (n, k) is exp(-j * 2*pi * x_n * s_k / lambda) for s_k the k-th
    value of ``sin_angles``.  Entries have unit modulus; columns therefore
    have Euclidean norm sqrt(N).  The ports sit on a uniform grid, so each
    entry is the product of two phases from ``_phase_table``, whose tables
    are filled by recurrence; that takes 2 complex exponentials per
    direction instead of N, and differs from the direct formula by about
    b*eps with b = ceil(sqrt(N)) (~1e-14 at N = 256, below 1e-12 through
    N = 4096).  An entry with s_k = 0 is exactly 1.
    """
    return _expand(*_phase_table(geom, sin_angles), geom.num_ports)


def _expand(hi, lo, num_ports):
    """The (num_ports, K) responses of ``_phase_table``'s tables: row q*b + r is hi[q] * lo[r]."""
    return (hi[:, None, :] * lo[None, :, :]).reshape(-1, lo.shape[1])[:num_ports]


def ssc_channel_from_rays(geom, ray_angles_rad, ray_gains):
    """Assemble a channel from explicit ray angles and gains.

    This is the deterministic core of ``generate_ssc_channel``, exposed so
    that degenerate cases (a single broadside ray, forced gains) can be
    constructed directly.  With K rays,

        h = steering(sin(angles)) @ gains / sqrt(K),

    so a single ray with gain 1 and angle 0 yields the all-ones vector and
    ||h||^2 = N exactly.  The sum runs on the factored phase table, as
    h(q*b + r) = sum_k hi[q, k] * g_k * lo[r, k], so the N x K steering
    matrix is never formed.
    """
    angles = np.atleast_1d(np.asarray(ray_angles_rad, dtype=float))
    gains = np.atleast_1d(np.asarray(ray_gains, dtype=complex))
    if angles.shape != gains.shape:
        raise ValueError("ray_angles_rad and ray_gains must have matching shapes")
    if angles.size == 0:
        raise ValueError("at least one ray is required")
    hi, lo = _phase_table(geom, np.sin(angles))
    values = ((hi * gains) @ lo.T).ravel()[: geom.num_ports] / np.sqrt(angles.size)
    return ChannelRealization(values)


def generate_ssc_channel(geom, params):
    """Draw one clustered plane-wave channel realization.

    Cluster centers, per-ray angle offsets, and complex ray gains are drawn
    from ``np.random.default_rng(params.rng_seed)`` in that fixed order, so
    a seed pins the realization bit for bit.

    Returns
    -------
    ChannelRealization
        Values at all ports.
    """
    rng = np.random.default_rng(params.rng_seed)
    c, r = params.num_clusters, params.rays_per_cluster
    centers = rng.uniform(-60.0, 60.0, size=c)
    offsets = rng.uniform(-params.angle_spread_deg, params.angle_spread_deg, size=(c, r))
    angles_deg = centers[:, None] + offsets
    gains = (rng.standard_normal((c, r)) + 1j * rng.standard_normal((c, r))) / np.sqrt(2.0)
    return ssc_channel_from_rays(geom, np.deg2rad(angles_deg).ravel(), gains.ravel())


def noise_power_for_snr(h_ensemble_power, snr_db):
    """Noise power sigma^2 such that h_ensemble_power / sigma^2 hits the SNR.

    The receiver SNR convention is E||h||^2 / sigma^2, so for the clustered
    model pass h_ensemble_power = N.  snr_db may be float('inf') for the
    noiseless limit; NaN raises ValueError.
    """
    if _finite(h_ensemble_power, "h_ensemble_power") <= 0.0:
        raise ValueError("h_ensemble_power must be positive")
    snr_db = snr_db if snr_db == np.inf else _finite(snr_db, "snr_db")
    return float(h_ensemble_power) / 10.0 ** (snr_db / 10.0)


def _check_noise_power(noise_power):
    if _finite(noise_power, "noise power") < 0.0:
        raise ValueError(f"noise power must be nonnegative, got {noise_power!r}")


def draw_port_noise(num_ports, noise_power, rng_seed):
    """One CN(0, noise_power) draw per port.

    Seeding noise per port rather than per measurement lets schemes that
    measure different port subsets of the same channel see identical noise
    on any port they share.
    """
    _check_noise_power(noise_power)
    rng = np.random.default_rng(rng_seed)
    scale = np.sqrt(noise_power / 2.0)
    return scale * (rng.standard_normal(num_ports) + 1j * rng.standard_normal(num_ports))


def _whole_number(value, name):
    """``value`` as an int, for a count: a whole number such as 4, 4.0 or
    np.int64(4).  A bool, a fraction or a non-number raises ValueError
    naming ``name``, where a bare ``int()`` would read True as 1 and 2.7 as 2."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _finite(value, name):
    """``value`` as a float, for a real number: a finite number such as 2 or
    0.5.  A bool, NaN, an infinity or a non-number raises ValueError naming
    ``name``, where a bare comparison lets NaN through and ``float()`` reads True as 1.0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _measured_ports(ports, num_ports, ndim=1):
    """``ports`` as an int array of distinct ports in [0, num_ports), each an
    integral number (3.0 is port 3): the one rule for every measured port set.
    A 1-D array is one set; with ``ndim=2`` each row of a 2-D array is one.
    Anything else (a bool, a fraction, another shape, a repeat within a set)
    raises ValueError."""
    arr = np.asarray(ports)
    if arr.ndim != ndim:
        raise ValueError(f"one measurement per port is required; ports have shape {arr.shape}")
    # np.asarray reads [True, 3] as the ints [1, 3], so bools are sought in the input itself
    entries = ports if ndim == 1 else (p for row in ports for p in row)
    bools = not isinstance(ports, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, entries))
    if bools or arr.dtype.kind not in "iuf" or arr.dtype.kind == "f" and (arr != np.rint(arr)).any():
        raise ValueError(f"ports must be integral numbers, got {ports!r}")
    if arr.size and (arr.min() < 0 or arr.max() >= num_ports):
        raise ValueError(f"port index out of range [0, {num_ports})")
    arr = arr.astype(int, copy=False)
    if ndim == 1:
        # a set of the few measured ports is cheaper to build than np.unique
        repeats = len(set(arr.tolist())) != arr.size
    else:
        ordered = np.sort(arr, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any()
    if repeats:
        raise ValueError("ports must be distinct")
    return arr


def observe_ports(h_values, ports, noise_power, rng_seed):
    """Measure the channel at the given ports with additive noise.

    ``h_values`` is one channel, shape (N,).  Returns y with
    y[k] = h[ports[k]] + z[ports[k]] where z is the per-port noise vector
    from ``draw_port_noise``.
    """
    h_values = np.asarray(h_values)
    if h_values.ndim != 1:
        raise ValueError(f"observe_ports measures one channel of shape (N,), got shape {h_values.shape}")
    ports = _measured_ports(ports, h_values.size)
    noise = draw_port_noise(h_values.size, noise_power, rng_seed)
    return h_values[ports] + noise[ports]


def observe_pilots(channel, plan, noise_power, rng_seed):
    """Take the pilot measurements a sampling plan asks for.

    Parameters
    ----------
    channel : ChannelRealization
        True channel across all ports.
    plan : SamplingPlan
        Plan whose ``order`` lists the measured ports slot by slot.
    noise_power : float
        Per-measurement noise variance sigma^2 (0 allowed).
    rng_seed : int
        Seed for the per-port noise draw.

    Returns
    -------
    PilotObservation
        y(k) = h(order[k]) + z_k, bound to ``plan.plan_id``.
    """
    if np.shape(channel.values) != (plan.num_ports,):
        raise ValueError("channel length does not match the plan's port count")
    values = observe_ports(channel.values, plan.order, noise_power, rng_seed)
    return PilotObservation(values, float(noise_power), plan.plan_id)
