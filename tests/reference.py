"""Reference computations that the package no longer carries, kept for the
tests: the exact mass of an interval under a per-density law, and the rank
error of an output."""

import numpy as np


def interval_mass(density, lo: float, hi: float) -> float:
    """Exact probability that a draw from ``density`` (a
    ``WeightedIntervalDensity``) lands in ``[lo, hi]``, summed in log space
    per interval so that a tall spike cannot overflow."""
    assert lo <= hi
    b = density.breakpoints
    overlap = np.clip(b[1:], lo, hi) - np.clip(b[:-1], lo, hi)
    idx = overlap > 0
    log_masses = np.log(overlap[idx]) + density.log_weights[idx] - density.log_normalizer
    return float(np.sum(np.exp(log_masses)))


def empirical_error(sample, q: float, r: int) -> int:
    """Absolute rank error ``abs(#{X_i < q} - r)`` of ``q`` on a ``SortedSample``."""
    return abs(int(np.searchsorted(sample.values, q, side="left")) - r)
