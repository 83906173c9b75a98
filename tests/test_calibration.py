"""Calibration of S-BAR on the paper's own channel model, with a matched prior.

The sweep's clustered channels are not Gaussian, but the reconstruction is
the linear MMSE estimate, so under the model's own covariance its expected
error ||h - hhat||^2 is sum(post_diag) and E||h||^2 = N.  The pooled error
sum_t ||h_t - hhat_t||^2 / sum_t ||h_t||^2 should therefore match the
prediction mean(post_diag), and the per-part +-3 sigma band should cover
about 99.73 % of the real and imaginary parts.

The tolerances come from 300 independent runs of this test (channel seeds
200*r + t, noise seeds 10**6 + 200*r + t for run r and trial t), 2700
(SNR, P) points in all:

* z = (pooled error - prediction) / its standard error had mean 0.00-0.10
  and standard deviation 0.95-1.07 at every point; the largest |z| of a
  run had median 1.54 and 99th percentile 3.24, and the largest of all was
  3.91.  K_SE = 4.5 lies above all of them.
* The lowest coverage of a run had median 0.9955 and 1st percentile 0.9928;
  the lowest of all was 0.9906, at 40 dB and P = 4.  COVERAGE_FLOOR = 0.985
  lies below it by about twice the distance from it to that percentile.

The fixed seed is run 0, chosen before any tolerance was set: its |z| reach
0.98 and its coverage falls to 0.9945.  The default Bessel prior, which
misses this model, fails the error check at all nine points and the
coverage floor at eight: at 40 dB and P = 10 it predicts 0.0069, against a
pooled error of 0.533 and a coverage of 0.318.

The pilots alone can show such a miss.  Under the prior, y is CN(0, G)
with G = Sigma(Omega, Omega) + s^2 I, so the normalized innovation
nu = y^H G^-1 y / K has mean 1 whenever the prior's covariance is the
channels' own, Gaussian or not.  The estimate gives it with no solve:
hhat(Omega) = y - s^2 G^-1 y, so nu = Re y^H (y - hhat(Omega)) / (s^2 K).
The same 300 runs set its bounds:

* z = (mean nu over a run's rounds - 1) / its standard error had mean
  -0.10-0.00 and standard deviation 0.97-1.09 at every point; the largest
  |z| of a run had median 1.51 and 99th percentile 3.06, and the largest
  of all was 4.07, so K_SE bounds it too.  Run 0's reach 1.16.
* With the default Bessel prior at 40 dB and P = 10 the mean nu of a run
  had median 15.4, 1st percentile 14.05 and lowest 13.69 (15.6 in run 0),
  where the matched prior's highest at any point was 1.12.
  MISMATCH_NU_FLOOR = 13 lies below the lowest by about twice the distance
  from it to that percentile.
"""

import numpy as np
import pytest

from fasbar import (
    Kernel,
    SscModelParams,
    build_port_geometry,
    design_plan,
    generate_ssc_channel,
    kernel_bessel,
    noise_power_for_snr,
    observe_pilots,
    reconstruct,
)
from helpers import clustered_lags

N, M, TRIALS = 256, 4, 200
NOISE_SEED0 = 10**6
K_SE = 4.5
COVERAGE_FLOOR = 0.985
MISMATCH_NU_FLOOR = 13.0


def innovation(plan, observation, estimate):
    """nu = Re y^H (y - hhat(Omega)) / (s^2 K) of one round: y^H G^-1 y / K."""
    y = observation.values
    residual = y - estimate[list(plan.order)]
    return np.vdot(y, residual).real / (observation.noise_power * plan.num_measurements)


@pytest.fixture(scope="module")
def setting():
    geom = build_port_geometry(N, 10.0, 3.5e9)
    kernel = Kernel(clustered_lags(geom, SscModelParams()), "covariance")
    channels = [generate_ssc_channel(geom, SscModelParams(rng_seed=t)) for t in range(TRIALS)]
    return kernel, channels


def test_the_matched_lags_are_a_unit_power_toeplitz_prior(setting):
    kernel, _ = setting
    assert kernel.stored.shape == (N,) and abs(kernel.stored[0] - 1.0) < 1e-14
    assert np.linalg.eigvalsh(kernel.matrix).min() > -1e-10


@pytest.mark.parametrize("spread", [0.0, 60.0, 75.0])
def test_the_matched_lags_reject_a_spread_the_trapezoid_does_not_fit(spread):
    # spread 0 gave NaN lags, and from 60 on the sloped pieces overlapped
    # the flat one and the lags came out wrong with no error
    geom = build_port_geometry(8, 2.0, 3.5e9)
    with pytest.raises(ValueError, match="angle_spread_deg"):
        clustered_lags(geom, SscModelParams(angle_spread_deg=spread))


@pytest.mark.parametrize("p", [1, 4, 10])
@pytest.mark.parametrize("snr_db", [20.0, 30.0, 40.0])
def test_pooled_error_and_band_are_calibrated_on_clustered_channels(setting, snr_db, p):
    kernel, channels = setting
    noise_power = noise_power_for_snr(N, snr_db)
    plan = design_plan(kernel, p, M, noise_power)
    errors, powers, nus, inside = np.empty(TRIALS), np.empty(TRIALS), np.empty(TRIALS), 0
    for t, channel in enumerate(channels):
        h = channel.values
        obs = observe_pilots(channel, plan, noise_power, NOISE_SEED0 + t)
        rec = reconstruct(plan, obs)
        nus[t] = innovation(plan, obs, rec.estimate)
        errors[t] = np.sum(np.abs(h - rec.estimate) ** 2)
        powers[t] = np.sum(np.abs(h) ** 2)
        lo, hi = rec.confidence_lo, rec.confidence_hi
        inside += np.count_nonzero((lo.real <= h.real) & (h.real <= hi.real))
        inside += np.count_nonzero((lo.imag <= h.imag) & (h.imag <= hi.imag))
    pooled = errors.sum() / powers.sum()
    predicted = plan.post_diag.mean()
    # standard error of a ratio of means, to first order
    stderr = np.std(errors - pooled * powers, ddof=1) / np.sqrt(TRIALS) / powers.mean()
    assert abs(pooled - predicted) <= K_SE * stderr, (pooled, predicted, stderr)
    assert inside / (2 * N * TRIALS) >= COVERAGE_FLOOR
    assert abs(nus.mean() - 1.0) <= K_SE * np.std(nus, ddof=1) / np.sqrt(TRIALS), nus.mean()


def test_the_innovation_flags_the_default_bessel_prior_where_the_signal_dominates(setting):
    # at 40 dB and P = 10 this prior predicts an error of 0.0069 and
    # delivers 0.533; no truth is needed to see that it misses
    _, channels = setting
    noise_power = noise_power_for_snr(N, 40.0)
    plan = design_plan(kernel_bessel(build_port_geometry(N, 10.0, 3.5e9)), 10, M, noise_power)
    nus = [innovation(plan, obs, reconstruct(plan, obs).estimate)
           for obs in (observe_pilots(c, plan, noise_power, NOISE_SEED0 + t) for t, c in enumerate(channels))]
    assert np.mean(nus) >= MISMATCH_NU_FLOOR
