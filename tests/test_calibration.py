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
"""

import numpy as np
import pytest

from fasbar import (
    Kernel,
    SscModelParams,
    build_port_geometry,
    design_plan,
    generate_ssc_channel,
    noise_power_for_snr,
    observe_pilots,
    reconstruct,
)
from helpers import clustered_lags

N, M, TRIALS = 256, 4, 200
NOISE_SEED0 = 10**6
K_SE = 4.5
COVERAGE_FLOOR = 0.985


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
    errors, powers, inside = np.empty(TRIALS), np.empty(TRIALS), 0
    for t, channel in enumerate(channels):
        h = channel.values
        rec = reconstruct(plan, observe_pilots(channel, plan, noise_power, NOISE_SEED0 + t))
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
