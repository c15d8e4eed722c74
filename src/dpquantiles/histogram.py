"""Private histogram density estimator and its generalized quantile function.

The histogram adds Laplace noise to per-bin counts (sensitivity 2 under
replacement neighboring, 1 under add/remove) and normalizes by ``n * h``;
the resulting piecewise-constant estimate may be negative or integrate away
from 1, so quantiles are read off through an exact first-crossing infimum
that is well defined for any integrable piecewise-constant function.

:func:`private_histogram` takes one sample and its source, or samples of one
size with a source each, as the exponential-mechanism estimators do: it
checks the bin count and n and builds the bin edges once per call, and each
row is one sample's histogram, noised from its own source.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import InvalidArgumentError
from .mechanisms import NeighboringRelation, PrivacyBudget, RandomSource, laplace_draw
from .quantiles import SortedSample, _rows


# A release keeps a few arrays of one float per bin alive at once (edges,
# counts, noise, heights, running integral), about 50 bytes a bin, so this
# cap keeps one histogram under about half a gigabyte.
MAX_BIN_COUNT = 10**7


def check_bin_count(bin_count: int) -> None:
    """The one rule for a bin count, checked where one enters the program:
    at least 1 and at most ``MAX_BIN_COUNT``."""
    if not 1 <= bin_count <= MAX_BIN_COUNT:
        raise InvalidArgumentError(
            f"bin count must be between 1 and {MAX_BIN_COUNT}, got {bin_count}"
        )


def bin_counts(rows: Sequence[np.ndarray], bin_count: int) -> np.ndarray:
    """Raw per-bin counts of sorted rows of one size in [0, 1], a (rows, bins)
    array, the last bin closed at 1: bin ``b`` counts the values below inner
    edge ``b + 1`` but not below edge ``b``, one ``searchsorted`` per row."""
    inner = np.linspace(0.0, 1.0, bin_count + 1)[1:-1]
    below = np.stack([values.searchsorted(inner, "left") for values in rows])
    return np.diff(below, axis=1, prepend=0, append=rows[0].size)


def noise_scale(budget: PrivacyBudget) -> float:
    """Laplace scale per bin, ``sensitivity / epsilon``: the count vector has
    sensitivity 2 under replacement (one point moves between two bins) and 1
    under add/remove. It is ``inf`` when epsilon is too small for the ratio
    to be a double."""
    sensitivity = 2.0 if budget.relation is NeighboringRelation.REPLACE else 1.0
    return sensitivity / budget.epsilon


def check_noise_scale(budget: PrivacyBudget) -> None:
    """The one rule for a noised histogram's budget: its :func:`noise_scale` is
    a double. The message starts with epsilon, after the caller's key or flag."""
    if math.isinf(noise_scale(budget)):
        raise InvalidArgumentError(
            f"{budget.epsilon!r} is too small: the histogram's Laplace "
            f"scale sensitivity / epsilon overflows"
        )


def private_histogram(
    sample: SortedSample | Sequence[SortedSample],
    bin_count: int,
    budget: PrivacyBudget,
    rng: RandomSource | Sequence[RandomSource],
    zero_noise: bool = False,
) -> np.ndarray:
    """Laplace-noised histogram density: the heights of the bins
    ``[b*h, (b+1)*h)`` of [0, 1], the last closed at 1, negative ones allowed.
    Samples of one size with a source each give a (rows, bins) array whose
    row ``r`` is bit for bit the call on sample ``r`` and source ``r`` alone.

    The per-bin noise scale on the raw counts is :func:`noise_scale`.
    Dividing by ``n`` costs no budget under replacement, where ``n`` is a
    constant of the problem; the same normalization is applied under
    add/remove but is then a heuristic.

    ``zero_noise=True`` is a NON-PRIVATE test mode that skips the noise
    entirely; production paths must leave it off.
    """
    rows, rngs = _rows(sample, rng)
    n = rows[0].size
    if n == 0:
        raise InvalidArgumentError(
            "empty sample: the histogram normalizes by n, which must be positive"
        )
    check_bin_count(bin_count)
    noisy = bin_counts(rows, bin_count).astype(float)
    if not zero_noise:
        scale = noise_scale(budget)
        for counts, source in zip(noisy, rngs):
            counts += laplace_draw(scale, source, bin_count)
    noisy *= bin_count / n  # divide by n * h
    return noisy[0] if isinstance(sample, SortedSample) else noisy


def generalized_quantiles(values: np.ndarray, ps) -> np.ndarray:
    """First-crossing infima ``inf{q : integral_0^q of the estimate >= p}``
    for nondecreasing orders ``ps``, with ``inf emptyset = 1``.

    ``values`` are per-bin heights of a piecewise-constant function on the
    uniform partition of [0, 1], negative heights allowed, so the running
    integral at the start of bin k (zero at k = 0) need not be monotone and
    may dip back below ``p`` after crossing it. Its running maximum is
    monotone, and the first k at which that maximum reaches p is the first
    crossing of p: for k > 0 the crossing lies inside bin k - 1, whose height
    is then positive. Cost O(len(values) + len(ps) log len(values)).

    ``values`` may also be a (rows, bins) array, one function per row: the
    running integrals and maxima of all rows are one ``cumsum`` and one
    ``fmax.accumulate`` along axis 1, then each row takes one search, and
    row ``r`` of the (rows, len(ps)) result is bit for bit the quantiles of
    ``values[r]`` alone.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 1:
        raise InvalidArgumentError("need a vector of bin values, or a (rows, bins) array")
    ps = np.asarray(ps, dtype=float)
    # written as "not all valid" so that a NaN order fails both checks
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise InvalidArgumentError("quantile orders must lie in [0, 1]")
    if not np.all(np.diff(ps) >= 0):
        raise InvalidArgumentError("quantile orders must be nondecreasing")

    heights = values.reshape(-1, values.shape[-1])
    bins = heights.shape[1]
    h = 1.0 / bins
    running = np.zeros((heights.shape[0], bins + 1))
    np.cumsum(heights * h, axis=1, out=running[:, 1:])
    # fmax skips NaN: from a NaN bin on the integral is NaN and never crosses
    peaks = np.fmax.accumulate(running, axis=1)
    out = np.empty((len(heights), ps.size))
    for row, peak, integral, height in zip(out, peaks, running, heights):
        first = peak.searchsorted(ps)
        row[:] = np.where(first == 0, 0.0, 1.0)
        inside = (first > 0) & (first <= bins)
        b = first[inside] - 1
        row[inside] = b * h + (ps[inside] - integral[b]) / height[b]
    return out.reshape(values.shape[:-1] + ps.shape)


def quantile_from_histogram(
    sample: SortedSample | Sequence[SortedSample],
    bin_count: int,
    budget: PrivacyBudget,
    orders,
    rng: RandomSource | Sequence[RandomSource],
    zero_noise: bool = False,
) -> np.ndarray:
    """Quantiles of all ``orders`` read off one :func:`private_histogram` per
    sample, a row per sample as there. A single histogram is built however
    many orders are requested, so the spent budget does not depend on m."""
    heights = private_histogram(sample, bin_count, budget, rng, zero_noise=zero_noise)
    return generalized_quantiles(heights, orders)
