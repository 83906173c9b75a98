"""Test helpers that the package itself never calls.

``stacked_switch_matrix`` reads a plan's one-hot switch matrices off its
port order, for the tests that check the order against them, criterion 9
of the acceptance suite among them.  ``mean_nmse_by_point`` averages sweep
records per (P, snr_db) point.  Neither is part of the package, and the
module's name keeps pytest from collecting it.
"""

import numpy as np


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
