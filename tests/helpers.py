"""Test helpers that the package itself never calls.

``stacked_switch_matrix`` reads a plan's one-hot switch matrices off its
port order, for the tests that check the order against them, criterion 9
of the acceptance suite among them.  ``mean_nmse_by_point`` averages sweep
records per (P, snr_db) point.  ``steering_matrix`` forms the full N x K
plane-wave response, the oracle that the fas-omp dictionary's atoms and
the phase tables are checked against bit for bit.  ``clustered_lags`` is
the lag column of the clustered channel model's own covariance, the
matched prior for the sweep's channels.  None is part of the package, and
the module's name keeps pytest from collecting it.
"""

import numpy as np

from fasbar.channels import _expand, _phase_table


def stacked_switch_matrix(plan):
    """The P switch matrices stacked into one (P*M, N) one-hot int64 matrix.

    Row k connects port ``plan.order[k]``, so slot s is rows s*M to s*M + M - 1.
    """
    k = plan.num_measurements
    stacked = np.zeros((k, plan.num_ports), dtype=np.int64)
    stacked[np.arange(k), list(plan.order)] = 1
    return stacked


def mean_nmse_by_point(records, scheme=None, kernel_kind=None):
    """Mean NMSE keyed by (P, snr_db), optionally filtered by scheme/kernel."""
    buckets = {}
    for r in records:
        if scheme is not None and r.scheme != scheme:
            continue
        if kernel_kind is not None and r.kernel_kind != kernel_kind:
            continue
        buckets.setdefault((r.num_timeslots, r.snr_db), []).append(r.nmse)
    return {key: float(np.mean(vals)) for key, vals in buckets.items()}


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


def clustered_lags(geom, params):
    """Lags r(d) of the ensemble covariance of ``generate_ssc_channel``.

    Every ray is a plane wave with a zero-mean unit-power gain, so
    E[h(n) h(m)^*] depends on the port distance d = |x_n - x_m| / lambda
    alone: r(d) = integral of p(theta) cos(2*pi*d*sin(theta)) dtheta, and
    r(0) = 1.  A ray angle is a cluster center uniform on (-60, 60) degrees
    plus an offset uniform within +-s = ``params.angle_spread_deg``, so its
    density p is a trapezoid: flat at 1/120 per degree on |theta| <= 60 - s,
    falling linearly to 0 at 60 + s.  The integrand is smooth between the
    four corners, so Gauss-Legendre with 64 points on each of the three
    pieces gives the lags to rounding (64 nodes agree with 512 to 5e-15 at
    10 wavelengths, and with a 200 001-point trapezoid rule to 1e-10).
    Returns the N real lags of the uniform grid of ``geom``.

    The corners are ordered only for 0 < s < 60, so other spreads, which
    ``SscModelParams`` accepts, raise a ValueError: s = 0 has no sloped
    pieces and s >= 60 moves the inner corners past each other.
    """
    s = params.angle_spread_deg
    if not 0.0 < s < 60.0:
        raise ValueError(f"clustered_lags needs 0 < angle_spread_deg < 60, got {s}")
    x, w = np.polynomial.legendre.leggauss(64)
    corners = np.deg2rad([-60.0 - s, -60.0 + s, 60.0 - s, 60.0 + s])
    half = np.diff(corners)[:, None] / 2.0
    theta = (half * x + (corners[:-1, None] + half)).ravel()
    weight = (half * w).ravel()
    density = np.clip((60.0 + s - np.rad2deg(np.abs(theta))) / (2.0 * s), 0.0, 1.0) * (180.0 / np.pi / 120.0)
    lags = (geom.positions - geom.positions[0]) / geom.wavelength
    return np.cos(2.0 * np.pi * np.outer(lags, np.sin(theta))) @ (weight * density)
